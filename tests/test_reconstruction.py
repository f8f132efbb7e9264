"""Recovering the poset from anonymous structure constants, and isomorphism
rigidity of the third flag algebra."""

import random
import time

import pytest
from isomorphism_oracle import enumerate_isomorphisms_exhaustive

from flagalg.algebra import AlgebraContext, StructureConstants, structure_constants
from flagalg.linalg import LinearMap
from flagalg.posets import Poset, antichain, chain, enumerate_posets, find_isomorphism
from flagalg.reconstruction import (
    AbstractAlgebra,
    ReconstructionError,
    conjugate_table,
    induced_isomorphism,
    is_algebra_isomorphism,
    reconstruct_poset,
    scramble,
)
from flagalg.rings import CapabilityError, PrimeField, Rationals

Q = Rationals()
F2 = PrimeField(2)

V_POSET = Poset.from_covers(3, [(0, 1), (0, 2)])
DIAMOND = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def from_rows(rows):
    """The LinearMap over Q whose matrix has these dense rows."""
    return LinearMap(Q, [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(len(rows))])


class TestCanonicalInput:
    @pytest.mark.parametrize(
        "p",
        [chain(2), chain(3), antichain(3), V_POSET, DIAMOND],
        ids=["chain2", "chain3", "antichain3", "V", "diamond"],
    )
    def test_recovers_exact_covers(self, p):
        a = AbstractAlgebra(structure_constants(AlgebraContext(p, 3, Q)))
        rec, elems, covers = reconstruct_poset(a)
        assert rec.size == p.size
        assert rec.covers == p.covers
        assert len(elems) == p.size and len(covers) == len(p.covers)

    def test_element_lifts_are_diagonal_like(self):
        # on canonical input, element i's idempotent lift starts at e_(i,i,i)
        ctx = AlgebraContext(chain(3), 3, Q)
        a = AbstractAlgebra(structure_constants(ctx))
        _, elems, _ = reconstruct_poset(a)
        for i, v in enumerate(elems):
            assert ctx.basis[min(v)] == (i, i, i)


class TestScrambledRoundTrip:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_small_posets(self, seed):
        for m in range(1, 5):
            for p in enumerate_posets(m):
                ctx = AlgebraContext(p, 3, Q)
                rec, _, _ = reconstruct_poset(scramble(ctx, seed))
                assert find_isomorphism(rec, p) is not None

    def test_decide_isomorphism_positive(self):
        a = scramble(AlgebraContext(V_POSET, 3, Q), 11)
        b = scramble(AlgebraContext(V_POSET.relabel((2, 0, 1)), 3, Q), 12)
        assert find_isomorphism(reconstruct_poset(a)[0], reconstruct_poset(b)[0]) is not None

    def test_decide_isomorphism_negative(self):
        # V and its dual have equal dimensions but are not isomorphic
        a = AbstractAlgebra(structure_constants(AlgebraContext(V_POSET, 3, Q)))
        b = AbstractAlgebra(structure_constants(AlgebraContext(V_POSET.dual(), 3, Q)))
        assert a.sc.dim == b.sc.dim
        assert find_isomorphism(reconstruct_poset(a)[0], reconstruct_poset(b)[0]) is None


class TestInducedMaps:
    def test_induced_map_is_isomorphism(self):
        p = V_POSET
        q = p.relabel((1, 2, 0))
        phi = find_isomorphism(p, q)
        ctx_p = AlgebraContext(p, 3, Q)
        ctx_q = AlgebraContext(q, 3, Q)
        t = induced_isomorphism(phi, ctx_p, ctx_q)
        assert is_algebra_isomorphism(t, structure_constants(ctx_p), structure_constants(ctx_q))

    def test_rejects_non_order_map(self):
        ctx = AlgebraContext(chain(3), 3, Q)
        with pytest.raises(ValueError):
            induced_isomorphism((2, 1, 0), ctx, ctx)

    def test_non_multiplicative_map_rejected(self):
        ctx = AlgebraContext(chain(2), 3, Q)
        d = ctx.dim
        # a random-ish invertible non-multiplicative map: identity plus a
        # shear between basis elements with different products
        m = [[Q.one() if i == j else Q.zero() for j in range(d)] for i in range(d)]
        m[0][1] = Q.one()
        sc = structure_constants(ctx)
        assert not is_algebra_isomorphism(from_rows(m), sc, sc)

    def test_dimension_mismatch_raises(self):
        a = structure_constants(AlgebraContext(chain(2), 3, Q))
        b = structure_constants(AlgebraContext(chain(3), 3, Q))
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_algebra_isomorphism(LinearMap.identity(Q, a.dim), a, b)

    def test_ring_mismatch_raises(self):
        # equal dimensions, so only the rings differ
        a = structure_constants(AlgebraContext(chain(2), 3, Q))
        b = structure_constants(AlgebraContext(chain(2), 3, F2))
        with pytest.raises(ValueError, match="ring mismatch"):
            is_algebra_isomorphism(LinearMap.identity(Q, a.dim), a, b)


class TestExhaustiveScan:
    def test_two_chain_rigidity_over_f2(self):
        # dim 4, all 2^16 matrices: exactly one automorphism (Aut of the
        # 2-chain is trivial) and it is the induced identity map
        ctx = AlgebraContext(chain(2), 3, F2)
        sc = structure_constants(ctx)
        isos = enumerate_isomorphisms_exhaustive(sc, sc)
        assert len(isos) == 1
        assert isos[0] == induced_isomorphism((0, 1), ctx, ctx)

    def test_two_antichain_over_f2(self):
        # dim 2, 2^4 matrices: the two automorphisms are the two induced
        # permutation maps
        ctx = AlgebraContext(antichain(2), 3, F2)
        sc = structure_constants(ctx)
        isos = enumerate_isomorphisms_exhaustive(sc, sc)
        induced = {
            induced_isomorphism(phi, ctx, ctx) for phi in ((0, 1), (1, 0))
        }
        assert len(isos) == 2
        assert set(isos) == induced

    def test_budget_guard(self):
        sc = structure_constants(AlgebraContext(chain(3), 3, F2))
        with pytest.raises(CapabilityError):
            enumerate_isomorphisms_exhaustive(sc, sc)


class TestGuards:
    def test_requires_field(self):
        from flagalg.rings import Integers

        a = AbstractAlgebra(structure_constants(AlgebraContext(chain(2), 3, Integers())))
        with pytest.raises(CapabilityError):
            reconstruct_poset(a)

    def test_rejects_decomposable_ring(self):
        from flagalg.rings import ModularRing

        ctx = AlgebraContext(chain(2), 3, ModularRing(6))
        with pytest.raises(CapabilityError):
            AbstractAlgebra(structure_constants(ctx))

    def test_rejects_non_flag_table(self):
        # the 2-dimensional zero algebra has no idempotent structure to read
        sc = StructureConstants(2, Q, {})
        with pytest.raises(ReconstructionError):
            reconstruct_poset(AbstractAlgebra(sc))

    def test_cover_closure_bug_is_not_reported_as_bad_input(self, monkeypatch):
        # only the PosetError of a cyclic cover relation means "not a partial
        # order"; any other error in that step is a bug and propagates
        a = AbstractAlgebra(structure_constants(AlgebraContext(chain(2), 3, Q)))

        def broken(cls, size, cover_pairs, names=None):
            raise RuntimeError("from_covers failed")

        monkeypatch.setattr(Poset, "from_covers", classmethod(broken))
        with pytest.raises(RuntimeError, match="from_covers failed"):
            reconstruct_poset(a)

    def test_conjugation_by_identity_is_identity(self):
        ctx = AlgebraContext(V_POSET, 3, Q)
        a = conjugate_table(ctx, LinearMap.identity(Q, ctx.dim))
        assert a.sc.table == structure_constants(ctx).table

    def test_conjugation_solves_against_the_map(self):
        # a scramble-style map (shears, swaps, scalings) against the table
        # T^-1 (T b_i)(T b_j) built with the inverse map
        ctx = AlgebraContext(DIAMOND, 3, Q)
        d = ctx.dim
        rng = random.Random(5)
        m = [[Q.one() if i == j else Q.zero() for j in range(d)] for i in range(d)]
        for _ in range(2 * d):
            i, j = rng.sample(range(d), 2)
            m[i] = [a + rng.choice([-2, -1, 1, 2]) * b for a, b in zip(m[i], m[j])]
            m[i], m[j] = m[j], m[i]
            m[j] = [Q.mul(x, Q.inv(Q.coerce(3))) for x in m[j]]
        t = from_rows(m)
        tinv = t.inverse()
        sc = structure_constants(ctx)
        expected = {}
        for i in range(d):
            for j in range(d):
                coords = tinv.apply(sc.multiply(t.columns[i], t.columns[j]))
                expected[(i, j)] = sorted(coords.items())
        assert conjugate_table(ctx, t).sc.table == StructureConstants(d, Q, expected).table

    def test_conjugation_by_singular_map_raises(self):
        ctx = AlgebraContext(chain(2), 3, Q)
        m = [[Q.one() if i == j else Q.zero() for j in range(ctx.dim)] for i in range(ctx.dim)]
        m[1] = list(m[0])
        with pytest.raises(ValueError, match="singular"):
            conjugate_table(ctx, from_rows(m))


class TestRootSearchIsPolynomial:
    """Tables whose probe eigenvalues are large: a root search by trial
    division of the constant term ran past 60 s on each."""

    @staticmethod
    def reconstruct_timed(algebra):
        start = time.perf_counter()
        poset, _, _ = reconstruct_poset(algebra)
        assert time.perf_counter() - start < 10
        return poset

    @pytest.mark.parametrize("m", [20, 40])
    def test_diagonal_table(self, m):
        # the first probe has eigenvalues 1..m, so its constant term is m!
        sc = StructureConstants(m, Q, {(i, i): [(i, 1)] for i in range(m)})
        poset = self.reconstruct_timed(AbstractAlgebra(sc))
        assert poset.size == m and poset.covers == ()

    @pytest.mark.parametrize("exponent", [16, 40])
    def test_shears_of_large_size(self, exponent):
        # e_(x,x,x) -> e_(x,x,x) + 10^exponent e_(x+1,x+1,x+1) makes the
        # element quotient's probe eigenvalues that large
        ctx = AlgebraContext(chain(3), 3, Q)
        columns = [{k: 1} for k in range(ctx.dim)]
        for x in range(2):
            columns[ctx.index[(x, x, x)]][ctx.index[(x + 1, x + 1, x + 1)]] = 10**exponent
        poset = self.reconstruct_timed(conjugate_table(ctx, LinearMap(Q, columns)))
        assert poset.covers == ((0, 1), (1, 2))
