"""Ideal filtration, commutator chain, quotients, primitive idempotents."""

import pytest

from flagalg.algebra import AlgebraContext, StructureConstants, structure_constants
from flagalg.lattice import (
    IdealError,
    commutator_submodule,
    ideal_J,
    mul_submodule,
    primitive_idempotents,
    quotient,
    z_chain,
)
from flagalg.linalg import span
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
                    assert jk.is_subset_of(prev)
                    assert mul_submodule(sc, a, jk).is_subset_of(jk)
                    assert mul_submodule(sc, jk, a).is_subset_of(jk)
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
                assert prod.is_subset_of(ideal_J(ctx, max(k, l)))


class TestZChain:
    def test_commutator_equals_J1(self):
        for m in range(1, 5):
            for p in enumerate_posets(m):
                for ctx in contexts(p):
                    a = ideal_J(ctx, 0)
                    assert commutator_submodule(structure_constants(ctx), a, a) == ideal_J(ctx, 1)

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
            elems = primitive_idempotents(quotient(structure_constants(ctx), ideal_J(ctx, 0), c1))
            assert len(elems) == p.size
            if c2.rank > c3.rank:
                covs = primitive_idempotents(quotient(structure_constants(ctx), c2, c3))
                assert len(covs) == len(p.covers)
            else:
                assert not p.covers

    def test_idempotents_are_orthogonal_and_complete(self):
        ctx = AlgebraContext(DIAMOND, 3, Q)
        c1, _, _ = z_chain(ctx)
        q = quotient(structure_constants(ctx), ideal_J(ctx, 0), c1)
        idems = primitive_idempotents(q)
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
        assert len(primitive_idempotents(q)) == 3


def test_identity_absent():
    # a structure-constants table with no identity: 2-dim zero algebra
    from flagalg.algebra import StructureConstants

    sc = StructureConstants(2, Q, {})
    assert sc.identity("left") is None
    assert sc.identity("right") is None
