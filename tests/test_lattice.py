"""Ideal filtration, commutator chain, quotients, primitive idempotents."""

import random
from fractions import Fraction

import pytest
from helpers import is_subset_of
from hypothesis import given, settings, strategies as st

from flagalg import poly
from flagalg.algebra import AlgebraContext, StructureConstants, structure_constants
from flagalg.lattice import (
    IdealError,
    SplittingError,
    _split,
    commutator_chain,
    ideal_J,
    mul_submodule,
    primitive_idempotents,
    quotient,
    z_chain,
)
from flagalg.linalg import LinearMap, span
from flagalg.posets import Poset, antichain, chain, enumerate_posets
from flagalg.rings import PrimeField, Rationals

Q = Rationals()
F2 = PrimeField(2)

V_POSET = Poset.from_covers(3, [(0, 1), (0, 2)])
DIAMOND = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def contexts(poset):
    return [AlgebraContext(poset, 3, Q), AlgebraContext(poset, 3, F2)]


class TestIdealFiltration:
    def test_ranks_on_chains(self):
        # J_k keeps exactly the basis tuples whose endpoints are >= k apart
        ctx = AlgebraContext(chain(3), 3, Q)
        assert ideal_J(ctx, 0).rank == ctx.dim == 10
        assert ideal_J(ctx, 1).rank == 7
        assert ideal_J(ctx, 2).rank == 3
        assert ideal_J(ctx, 3).rank == 0

    def test_filtration_is_decreasing_and_ideal(self):
        for p in (chain(3), V_POSET, DIAMOND):
            for ctx in contexts(p):
                sc = structure_constants(ctx)
                a = ideal_J(ctx, 0)
                assert a.rank == ctx.dim
                prev = a
                for k in range(0, 4):
                    jk = ideal_J(ctx, k)
                    assert is_subset_of(jk, prev)
                    assert is_subset_of(mul_submodule(sc, a, jk), jk)
                    assert is_subset_of(mul_submodule(sc, jk, a), jk)
                    prev = jk

    def test_product_stays_in_deeper_level(self):
        # the product only controls one endpoint pair, so J_k * J_l lands in
        # J_{max(k,l)} (and k+l would be too strong: ranks 13 vs 10 on the
        # 4-chain at k=l=1)
        ctx = AlgebraContext(chain(4), 3, Q)
        sc = structure_constants(ctx)
        for k in range(3):
            for l in range(3):
                prod = mul_submodule(sc, ideal_J(ctx, k), ideal_J(ctx, l))
                assert is_subset_of(prod, ideal_J(ctx, max(k, l)))


class TestZChain:
    def test_commutator_equals_J1(self):
        for m in range(1, 5):
            for p in enumerate_posets(m):
                for ctx in contexts(p):
                    assert commutator_chain(structure_constants(ctx))[0] == ideal_J(ctx, 1)

    def test_c2_explicit_span(self):
        # C2 = J_2 + span{e_(x,x,y) + e_(x,y,y) : x covered by y}, and it
        # coincides with C1 * C1
        for p in (chain(3), V_POSET, DIAMOND):
            for ctx in contexts(p):
                c1, c2, c3 = z_chain(ctx)
                gens = [v for v in ideal_J(ctx, 2).basis]
                for (x, y) in ctx.poset.covers:
                    gens.append({ctx.index[(x, x, y)]: ctx.ring.one(), ctx.index[(x, y, y)]: ctx.ring.one()})
                assert c2 == span(gens, ctx.ring, ctx.dim)
                assert c2 == mul_submodule(structure_constants(ctx), c1, c1)

    def test_c3_equals_J2(self):
        for m in range(1, 5):
            for p in enumerate_posets(m):
                for ctx in contexts(p):
                    assert z_chain(ctx)[2] == ideal_J(ctx, 2)

    def test_ranks_on_small_chains(self):
        c1, c2, c3 = z_chain(AlgebraContext(chain(2), 3, Q))
        assert (c1.rank, c2.rank, c3.rank) == (2, 1, 0)
        c1, c2, c3 = z_chain(AlgebraContext(chain(3), 3, Q))
        assert (c1.rank, c2.rank, c3.rank) == (7, 5, 3)

    def test_z_chain_requires_three_flags(self):
        with pytest.raises(ValueError):
            z_chain(AlgebraContext(chain(2), 2, Q))


class TestQuotient:
    def test_rejects_non_ideal_denominator(self):
        ctx = AlgebraContext(chain(2), 3, Q)
        one_axis = {ctx.index[(0, 0, 0)]: ctx.ring.one()}
        bad = span([one_axis], ctx.ring, ctx.dim)
        with pytest.raises(IdealError, match="denominator is not a right ideal of the numerator"):
            quotient(structure_constants(ctx), ideal_J(ctx, 0), bad)

    @staticmethod
    def _unit(ctx, *tuples):
        return {ctx.index[t]: ctx.ring.one() for t in tuples}

    def test_rejects_denominator_outside_numerator(self):
        ctx = AlgebraContext(chain(3), 3, Q)
        with pytest.raises(IdealError, match="denominator is not contained in the numerator"):
            quotient(structure_constants(ctx), ideal_J(ctx, 2), ideal_J(ctx, 1))

    def test_rejects_numerator_not_closed(self):
        # (e_(0,0,1) + e_(1,1,1))^2 = e_(1,1,1) leaves the line it spans
        ctx = AlgebraContext(chain(2), 3, Q)
        sc = structure_constants(ctx)
        v = self._unit(ctx, (0, 0, 1), (1, 1, 1))
        assert sc.multiply(v, v) == self._unit(ctx, (1, 1, 1))
        with pytest.raises(IdealError, match="numerator is not closed under the product"):
            quotient(sc, span([v], Q, ctx.dim), span([], Q, ctx.dim))

    def test_rejects_left_ideal_failure(self):
        # span{e_(1,1,1)} is a right ideal (e_(1,1,1) A = span{e_(1,1,1)})
        # but e_(0,1,1) e_(1,1,1) = e_(0,1,1) leaves it
        ctx = AlgebraContext(chain(2), 3, Q)
        bad = span([self._unit(ctx, (1, 1, 1))], Q, ctx.dim)
        with pytest.raises(IdealError, match="denominator is not a left ideal of the numerator"):
            quotient(structure_constants(ctx), ideal_J(ctx, 0), bad)

    def test_mod_c1_is_split_commutative(self):
        ctx = AlgebraContext(chain(3), 3, Q)
        c1, _, _ = z_chain(ctx)
        q = quotient(structure_constants(ctx), ideal_J(ctx, 0), c1)
        assert q.dim == ctx.poset.size
        assert q.sc.is_commutative()
        assert q.sc.identity("left") is not None

    def test_reduce_lift_roundtrip(self):
        ctx = AlgebraContext(chain(3), 3, Q)
        c1, _, _ = z_chain(ctx)
        q = quotient(structure_constants(ctx), ideal_J(ctx, 0), c1)
        for coords in ({0: Q.one()},):
            assert q.reduce(q.lift(coords)) == coords


class TestPrimitiveIdempotents:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_counts_match_elements_and_covers(self, m):
        for p in enumerate_posets(m):
            ctx = AlgebraContext(p, 3, Q)
            c1, c2, c3 = z_chain(ctx)
            elems = primitive_idempotents(quotient(structure_constants(ctx), ideal_J(ctx, 0), c1).sc)
            assert len(elems) == p.size
            if c2.rank > c3.rank:
                covs = primitive_idempotents(quotient(structure_constants(ctx), c2, c3).sc)
                assert len(covs) == len(p.covers)
            else:
                assert not p.covers

    def test_idempotents_are_orthogonal_and_complete(self):
        ctx = AlgebraContext(DIAMOND, 3, Q)
        c1, _, _ = z_chain(ctx)
        q = quotient(structure_constants(ctx), ideal_J(ctx, 0), c1)
        idems = primitive_idempotents(q.sc)
        unit = q.sc.identity("left")
        total = {}
        for e in idems:
            assert q.sc.multiply(e, e) == e
            for k, x in e.items():
                total[k] = Q.add(total.get(k, Q.zero()), x)
        assert {k: x for k, x in total.items() if x} == unit
        for i, e in enumerate(idems):
            for f in idems[i + 1 :]:
                assert q.sc.multiply(e, f) == {}

    def test_diagonal_f2_40_splits_into_unit_vectors(self):
        # over F_2 an element has at most two eigenvalues, so this takes
        # many probes; the basis probes separate all 40 components
        sc = StructureConstants(40, F2, {(i, i): [(i, 1)] for i in range(40)})
        units = [tuple(int(i == k) for i in range(40)) for k in range(40)]
        assert primitive_idempotents(sc) == [{u.index(1): 1} for u in sorted(units)]

    def test_works_over_f2(self):
        ctx = AlgebraContext(chain(3), 3, F2)
        c1, _, _ = z_chain(ctx)
        q = quotient(structure_constants(ctx), ideal_J(ctx, 0), c1)
        assert len(primitive_idempotents(q.sc)) == 3

    @pytest.mark.parametrize("field", [Q, PrimeField(3), PrimeField(5), PrimeField(262139)])
    def test_conjugated_split_algebra_splits_into_the_preimages(self, field):
        # F^k in the basis T b_0, ..., T b_(k-1) for a seeded invertible T:
        # the idempotents are T^-1 e_m, not unit vectors, and over F_3 the
        # probes' eigenvalues often collide
        zero, one = field.zero(), field.one()
        for seed in range(40):
            rng = random.Random(seed)
            k = 1 + seed % 6
            ech = None
            while ech is None:
                columns = [{m: field.coerce(rng.randint(-3, 3)) for m in range(k)} for _ in range(k)]
                columns = [{m: x for m, x in col.items() if x} for col in columns]
                ech = LinearMap(field, columns).column_echelon()
            table = {}
            for i, a in enumerate(columns):
                for j, b in enumerate(columns):
                    product = {m: field.mul(a[m], b[m]) for m in a.keys() & b.keys()}
                    table[(i, j)] = sorted(ech.reduce(product)[1].items())
            expected = [ech.reduce({m: one})[1] for m in range(k)]
            expected.sort(key=lambda e: [e.get(i, zero) for i in range(k)])
            assert primitive_idempotents(StructureConstants(k, field, table)) == expected, seed


def test_identity_absent():
    # a structure-constants table with no identity: 2-dim zero algebra
    from flagalg.algebra import StructureConstants

    sc = StructureConstants(2, Q, {})
    assert sc.identity("left") is None
    assert sc.identity("right") is None


def from_roots(roots, ring, cofactor):
    """cofactor * prod (x - r) over the ring, coefficients low to high."""
    f = cofactor
    for r in roots:
        f = poly.mul(f, [ring.neg(r), ring.one()], ring)
    return f


def irreducible_quadratic(p):
    """x^2 + x + 1 over F_2, else x^2 - n for the least non-residue n."""
    if p == 2:
        return [1, 1, 1]
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    return [p - n, 0, 1]


class TestRootFinders:
    # 13 and 1000033 are 1 mod 4 (Tonelli-Shanks), 262139 is 3 mod 4; up to
    # degree 5 over F_13 the roots come from splitting, not from the scan
    @pytest.mark.parametrize("p", [2, 3, 5, 13, 262139, 1000033])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fp_finder_matches_residue_scan(self, p, data):
        field = PrimeField(p)
        roots = data.draw(st.sets(st.integers(0, p - 1), max_size=min(p, 6)))
        cofactor = irreducible_quadratic(p) if data.draw(st.booleans()) else [1]
        f = from_roots(sorted(roots), field, cofactor)
        if p <= 5:
            expected = [a for a in range(p) if poly.value(f, a) % p == 0]
        else:
            # the quadratic has no root, so these are all the roots a scan finds
            expected = sorted(roots)
        assert poly.roots(f, field) == expected

    def test_fp_split_exponentiates_once_per_needed_shift(self, monkeypatch):
        # x^p mod f, then one (x + a)^((p-1)/2) per shift tried: a factor
        # carries on from the shift after the one that split it, and a
        # quadratic factor is solved by one square root (14 calls without)
        field = PrimeField(262139)
        roots = [0, 7, 1000, 4242, 99999, 262138]
        exponents = []
        powmod = poly.powmod
        monkeypatch.setattr(poly, "powmod", lambda u, e, f, ring: exponents.append(e) or powmod(u, e, f, ring))
        assert poly.roots(from_roots(roots, field, [1]), field) == roots
        assert exponents == [262139, 131069, 131069, 131069]

    def test_fp_finder_matches_residue_scan_on_a_large_prime(self):
        p = 262139
        field = PrimeField(p)
        f = from_roots([7, 1000, 262138], field, irreducible_quadratic(p))
        assert poly.roots(f, field) == [a for a in range(p) if poly.value(f, a) % p == 0]

    @settings(max_examples=60, deadline=None)
    @given(
        roots=st.lists(
            st.tuples(st.integers(-12, 12), st.integers(1, 6), st.integers(1, 3)), max_size=5
        ),
        cofactor=st.sampled_from([[1], [-2, 0, 1], [1, 0, 1], [Fraction(-5, 3), 0, 1]]),
    )
    def test_q_finder_matches_brute_force(self, roots, cofactor):
        # repeated roots and denominators up to 6: the cleared polynomial is
        # not monic and not squarefree
        f = from_roots([Q.coerce(Fraction(a, b)) for a, b, mult in roots for _ in range(mult)], Q, cofactor)
        candidates = {Fraction(a, b) for a in range(-12, 13) for b in range(1, 7)}
        expected = sorted(c for c in candidates if poly.value(f, c) == 0)
        assert poly.roots(f, Q) == expected
        assert all(type(r) in (int, Fraction) for r in poly.roots(f, Q))

    def test_rational_roots_of_large_coefficients(self):
        big = [10**40 + 7, -(10**40), Fraction(10**20, 3)]
        f = from_roots(big + big[:1], Q, [-2, 0, 1])
        assert poly.roots(f, Q) == sorted(big)

    def test_missing_roots_are_counted_in_the_diagnostic(self):
        # Q[x]/((x - 1)(x^2 - 2)) on 1, x, x^2, with x^3 = x^2 + 2x - 2 and
        # x^4 = 3x^2 - 2: the probe x has one rational eigenvalue of three
        x3, x4 = [(0, -2), (1, 2), (2, 1)], [(0, -2), (2, 3)]
        table = {(0, 0): [(0, 1)], (0, 1): [(1, 1)], (1, 0): [(1, 1)], (0, 2): [(2, 1)], (2, 0): [(2, 1)]}
        table |= {(1, 1): [(2, 1)], (1, 2): x3, (2, 1): x3, (2, 2): x4}
        sc = StructureConstants(3, Q, table)
        with pytest.raises(SplittingError) as err:
            _split(sc, {0: 1}, {1: 1})
        assert str(err.value) == (
            "a probe element has minimal polynomial x^3 + (-1)*x^2 + (-2)*x^1 + (2)*x^0 with 1 distinct "
            "root(s) in Q, not 3; the algebra is not a product of copies of Q"
        )
