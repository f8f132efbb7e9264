"""Recovering the poset from anonymous structure constants, and isomorphism
rigidity of the third flag algebra."""

import itertools
import json
import random
import time

import pytest
from isomorphism_oracle import enumerate_isomorphisms_exhaustive
from reconstruction_oracle import reconstruct_poset_reference

from flagalg import cli
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

# Faulty F_2 tables, one per late guard of reconstruct_poset, with the start
# of the diagnostic each gets (None where only the exit and the one line are
# pinned).  Drawn by a seeded multi-flip scan: with rng = random.Random(seed),
# pick (dim, table) of I^3(P, F_2) for P among enumerate_posets(2), (3) and
# (4) in order, then rng.randint(1, 6) times flip coefficient k of entry
# (i, j) for i, j, k each drawn by rng.randrange(dim).
GUARD_TABLES = {
    # seed 41896: C3 is not an ideal of C2
    "cover-ideal": (
        '{"dim":4,"ring":"Fp:2","table":[[0,0,[[0,"1 mod 2"]]],[0,1,[[0,"1 mod 2"],[1,"1 mod 2"]]],'
        '[1,2,[[1,"1 mod 2"]]],[2,3,[[2,"1 mod 2"]]],[3,3,[[3,"1 mod 2"]]]]}',
        "cover quotient did not split: ",
    ),
    # seed 45321: two cover idempotents attach to the same pair
    "duplicate-cover": (
        '{"dim":7,"ring":"Fp:2","table":[[0,0,[[0,"1 mod 2"]]],[0,1,[[1,"1 mod 2"]]],[0,4,[[1,"1 mod 2"]]],'
        '[1,2,[[1,"1 mod 2"],[2,"1 mod 2"]]],[2,6,[[2,"1 mod 2"]]],[3,3,[[3,"1 mod 2"]]],'
        '[4,5,[[4,"1 mod 2"],[5,"1 mod 2"]]],[4,6,[[1,"1 mod 2"]]],[5,6,[[5,"1 mod 2"]]],[6,6,[[6,"1 mod 2"]]]]}',
        None,
    ),
    # seed 60362: the covers close up to a cycle
    "cycle": (
        '{"dim":10,"ring":"Fp:2","table":[[0,0,[[0,"1 mod 2"]]],[0,1,[[1,"1 mod 2"]]],[0,2,[[2,"1 mod 2"]]],'
        '[0,3,[[3,"1 mod 2"]]],[1,3,[[1,"1 mod 2"],[3,"1 mod 2"]]],[1,4,[[2,"1 mod 2"],[4,"1 mod 2"]]],'
        '[2,5,[[2,"1 mod 2"],[4,"1 mod 2"],[5,"1 mod 2"]]],[3,6,[[3,"1 mod 2"]]],[3,7,[[4,"1 mod 2"]]],'
        '[4,8,[[4,"1 mod 2"],[5,"1 mod 2"]]],[5,9,[[5,"1 mod 2"]]],[6,6,[[6,"1 mod 2"]]],[6,7,[[7,"1 mod 2"]]],'
        '[7,8,[[7,"1 mod 2"],[8,"1 mod 2"]]],[8,2,[[4,"1 mod 2"]]],[8,9,[[8,"1 mod 2"]]],[9,1,[[8,"1 mod 2"]]],'
        '[9,9,[[9,"1 mod 2"]]]]}',
        "cover closure is not a partial order: ",
    ),
    # seed 110403: a recovered cover is implied by two others
    "not-own-cover-set": (
        '{"dim":10,"ring":"Fp:2","table":[[0,0,[[0,"1 mod 2"]]],[0,1,[[1,"1 mod 2"]]],[0,2,[[2,"1 mod 2"]]],'
        '[1,3,[[1,"1 mod 2"],[3,"1 mod 2"]]],[2,4,[[2,"1 mod 2"],[4,"1 mod 2"]]],[3,8,[[3,"1 mod 2"]]],'
        '[4,9,[[4,"1 mod 2"]]],[5,5,[[5,"1 mod 2"]]],[5,6,[[6,"1 mod 2"]]],[5,7,[[7,"1 mod 2"]]],'
        '[6,7,[[6,"1 mod 2"],[7,"1 mod 2"]]],[7,9,[[7,"1 mod 2"]]],[8,7,[[1,"1 mod 2"]]],[8,8,[[8,"1 mod 2"]]],'
        '[9,9,[[9,"1 mod 2"]]]]}',
        None,
    ),
}


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

    @pytest.mark.parametrize("name", GUARD_TABLES)
    def test_guard_table_fails_with_one_line(self, tmp_path, capsys, name):
        table, start = GUARD_TABLES[name]
        f = tmp_path / f"{name}.json"
        f.write_text(table)
        assert cli.main(["reconstruct", str(f), "--ring", "Fp:2"]) == 1
        out, err = capsys.readouterr()
        report = json.loads(out)
        diagnostic = report["diagnostic"]
        assert report["status"] == "fail" and diagnostic and "\n" not in diagnostic
        assert err == f"reconstruct: FAILED: {diagnostic}\n"
        assert start is None or diagnostic.startswith(start)

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


def single_change(ctx, i, j, k):
    """I^3's table with one added to the coefficient of b_k in b_i b_j."""
    ring = ctx.ring
    plain = structure_constants(ctx).table
    entry = dict(plain.get((i, j), ()))
    entry[k] = ring.add(entry.get(k, ring.zero()), ring.one())
    return StructureConstants(ctx.dim, ring, {**plain, (i, j): entry.items()})


class TestAgainstReference:
    def test_single_changes_and_guard_tables(self):
        # the fault scan changes each coefficient of I^3(P, F_2) for P of size
        # 2 and 3 and the 4-chain, and of I^3(3-chain, Q): a seeded sample of
        # 400 changes of the small tables and 100 of the 4-chain's, about 2 s
        # on a 2-core VM
        small = [AlgebraContext(p, 3, F2) for m in (2, 3) for p in enumerate_posets(m)]
        small.append(AlgebraContext(chain(3), 3, Q))
        changes = [(ctx, *ijk) for ctx in small for ijk in itertools.product(range(ctx.dim), repeat=3)]
        rng = random.Random(0)
        chain4 = AlgebraContext(chain(4), 3, F2)
        sample = rng.sample(changes, 400)
        sample += [(chain4, *ijk) for ijk in rng.sample(list(itertools.product(range(20), repeat=3)), 100)]
        tables = [single_change(*change) for change in sample]
        tables += [StructureConstants.from_json(table) for table, _start in GUARD_TABLES.values()]
        verdicts = set()
        for sc in tables:
            outcomes = []
            for reconstruct in (reconstruct_poset, reconstruct_poset_reference):
                try:
                    poset, elements, cover_lifts = reconstruct(AbstractAlgebra(sc))
                    outcomes.append((poset.covers, elements, cover_lifts))
                except ReconstructionError:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1], sc.to_json()
            verdicts.add(outcomes[0] is None)
        assert verdicts == {True, False}


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
        # Q^m with b_0 = sum_k (k+1) e_k: the first probe, b_0, has
        # eigenvalues 1..m, so its constant term is m!
        ctx = AlgebraContext(antichain(m), 3, Q)
        columns = [{k: k + 1 for k in range(m)}] + [{k: 1} for k in range(1, m)]
        poset = self.reconstruct_timed(conjugate_table(ctx, LinearMap(Q, columns)))
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
