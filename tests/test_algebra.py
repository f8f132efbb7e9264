"""Flag algebra core: basis products vs the convolution oracle, the
non-power-associativity witness, identity (non)existence, serialization."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagalg.algebra import (
    AlgebraContext,
    StructureConstants,
    basis_product,
    convolve,
    power_assoc_witness,
    structure_constants,
)
from flagalg.posets import Poset, antichain, chain, enumerate_posets
from flagalg.rings import PrimeField, Rationals

Q = Rationals()


def convolution_oracle(ctx, f, g, t):
    """Pointwise definition: (fg)(x) = sum over y_i in [[x_i, x_{i+1}]] of
    f(x_1, ..., y) * g(y, ..., x_n), evaluated with no table lookups."""
    ring, p, n = ctx.ring, ctx.poset, ctx.n
    acc = ring.zero()
    ranges = [p.interval(t[i], t[i + 1]) for i in range(n - 1)]
    for mid in itertools.product(*ranges):
        lhs = f.get(ctx.index[(t[0],) + tuple(mid)], ring.zero())
        rhs = g.get(ctx.index[tuple(mid) + (t[-1],)], ring.zero())
        acc = ring.add(acc, ring.mul(lhs, rhs))
    return acc


def assert_matches_oracle(ctx):
    for x in ctx.basis:
        for y in ctx.basis:
            prod = basis_product(ctx, x, y)
            for t in ctx.basis:
                assert prod.get(ctx.index[t], 0) == convolution_oracle(
                    ctx, ctx.basis_element(x), ctx.basis_element(y), t
                )


def combine(ring, *terms):
    """The element sum of c * v over (c, v) terms, zero coefficients dropped."""
    out = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = ring.add(out.get(k, ring.zero()), ring.mul(c, x))
    return {k: x for k, x in out.items() if x != ring.zero()}


class TestProduct:
    def test_two_chain_classical_rule(self):
        # n=2 recovers the ordinary incidence algebra product
        ctx = AlgebraContext(chain(2), 2, Q)
        e = ctx.basis_element
        assert convolve(ctx, e((0, 0)), e((0, 1))) == e((0, 1))
        assert convolve(ctx, e((0, 1)), e((1, 1))) == e((0, 1))
        assert convolve(ctx, e((0, 1)), e((0, 1))) == {}
        assert convolve(ctx, e((0, 0)), e((0, 0))) == e((0, 0))

    def test_three_flag_product_on_two_chain(self):
        ctx = AlgebraContext(chain(2), 3, Q)
        e = ctx.basis_element
        # middle parts must match, output interpolates the interval
        assert convolve(ctx, e((0, 0, 1)), e((0, 1, 1))) == {**e((0, 0, 1)), **e((0, 1, 1))}
        assert convolve(ctx, e((0, 0, 0)), e((0, 0, 1))) == e((0, 0, 1))
        assert convolve(ctx, e((0, 0, 1)), e((1, 1, 1))) == {}
        assert convolve(ctx, e((0, 1, 1)), e((0, 0, 1))) == {}

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_small_posets(self, n):
        for p in enumerate_posets(3):
            assert_matches_oracle(AlgebraContext(p, n, Q))

    def test_oracle_diamond_f3(self):
        diamond = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert_matches_oracle(AlgebraContext(diamond, 3, PrimeField(3)))

    def test_oracle_table_is_the_basis_convolutions(self):
        # every pair, zero products included, against the element convolution
        diamond = Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        posets = [(p, n) for m in range(1, 4) for p in enumerate_posets(m) for n in (2, 3, 4)]
        for (p, n), ring in itertools.product(posets + [(diamond, 3)], (Q, PrimeField(2))):
            ctx = AlgebraContext(p, n, ring)
            table = ctx.oracle_table()
            assert isinstance(table, StructureConstants) and table.dim == ctx.dim
            e = [{i: ring.one()} for i in range(ctx.dim)]
            for i, j in itertools.product(range(ctx.dim), repeat=2):
                assert dict(table.table.get((i, j), ())) == convolve(ctx, e[i], e[j])
            assert ctx.oracle_table() is table


class TestBilinearity:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_elements(self, data):
        ctx = AlgebraContext(chain(3), 3, Q)
        coeff = st.fractions(min_value=-4, max_value=4, max_denominator=4)
        vec = st.lists(coeff, min_size=ctx.dim, max_size=ctx.dim)
        f = dict(enumerate(data.draw(vec)))
        g = dict(enumerate(data.draw(vec)))
        h = dict(enumerate(data.draw(vec)))
        c = data.draw(coeff)
        mul = lambda u, v: convolve(ctx, u, v)
        add = lambda u, v: combine(Q, (1, u), (1, v))
        assert mul(add(f, g), h) == add(mul(f, h), mul(g, h))
        assert mul(f, add(g, h)) == add(mul(f, g), mul(f, h))
        assert mul(combine(Q, (c, f)), g) == combine(Q, (c, mul(f, g)))


class TestPowerAssociativity:
    def test_two_chain_witness_coefficients(self):
        ctx = AlgebraContext(chain(2), 3, Q)
        f = power_assoc_witness(ctx)
        i000, i001, i011 = (ctx.index[t] for t in ((0, 0, 0), (0, 0, 1), (0, 1, 1)))
        assert f == {i000: 1, i001: 1, i011: 1}
        ff = convolve(ctx, f, f)
        lhs, rhs = convolve(ctx, f, ff), convolve(ctx, ff, f)
        assert lhs == {i000: 1, i001: Fraction(3), i011: 1}
        assert rhs == {i000: 1, i001: Fraction(3), i011: Fraction(2)}
        assert lhs != rhs

    def test_every_non_antichain_has_witness(self):
        for m in range(2, 5):
            for p in enumerate_posets(m):
                ctx = AlgebraContext(p, 3, Q)
                f = power_assoc_witness(ctx)
                if p.covers:
                    ff = convolve(ctx, f, f)
                    assert convolve(ctx, f, ff) != convolve(ctx, ff, f)
                else:
                    assert f is None

    def test_antichain_is_fully_associative(self):
        ctx = AlgebraContext(antichain(3), 3, Q)
        for x in ctx.basis:
            for y in ctx.basis:
                for z in ctx.basis:
                    ex, ey, ez = map(ctx.basis_element, (x, y, z))
                    lhs = convolve(ctx, convolve(ctx, ex, ey), ez)
                    assert lhs == convolve(ctx, ex, convolve(ctx, ey, ez))


class TestIdentity:
    def test_classical_algebra_is_unital(self):
        sc = structure_constants(AlgebraContext(chain(3), 2, Q))
        assert sc.identity("left") is not None
        assert sc.identity("right") is not None

    def test_third_flag_algebra_has_no_identity(self):
        for p in enumerate_posets(3):
            sc = structure_constants(AlgebraContext(p, 3, Q))
            if p.covers:
                assert sc.identity("left") is None
                assert sc.identity("right") is None
            else:
                # an antichain's algebra is a product of copies of R
                assert sc.identity("left") is not None


class TestStructureConstants:
    def test_table_agrees_with_products(self):
        ctx = AlgebraContext(chain(3), 3, Q)
        sc = structure_constants(ctx)
        for i, x in enumerate(ctx.basis):
            for j, y in enumerate(ctx.basis):
                assert dict(sc.table.get((i, j), ())) == basis_product(ctx, x, y)

    def test_multiply_matches_convolve(self):
        ctx = AlgebraContext(chain(2), 3, Q)
        sc = structure_constants(ctx)
        u = {0: Fraction(1), 1: Fraction(2), 3: Fraction(-1)}
        v = {0: Fraction(3), 2: Fraction(1), 3: Fraction(1)}
        got = sc.multiply(u, v)
        want = convolve(ctx, u, v)
        assert got == want

    def test_json_roundtrip(self):
        for ring in (Q, PrimeField(5)):
            ctx = AlgebraContext(chain(2), 3, ring)
            sc = structure_constants(ctx)
            again = StructureConstants.from_json(sc.to_json())
            assert again.dim == sc.dim
            assert again.ring == sc.ring
            assert again.table == sc.table

    def test_term_order_does_not_matter(self):
        # entries are stored sorted by k, so a table listing its terms in
        # descending k equals the ascending one
        ascending = '{"dim":3,"ring":"Q","table":[[0,1,[[0,"1"],[2,"-1/2"]]],[2,2,[[1,"3"],[2,"1"]]]]}'
        descending = '{"dim":3,"ring":"Q","table":[[0,1,[[2,"-1/2"],[0,"1"]]],[2,2,[[2,"1"],[1,"3"]]]]}'
        a, b = StructureConstants.from_json(ascending), StructureConstants.from_json(descending)
        assert a.table == b.table
        assert b.to_json() == ascending

    def test_json_is_deterministic(self):
        ctx = AlgebraContext(chain(3), 3, Q)
        assert structure_constants(ctx).to_json() == structure_constants(ctx).to_json()

    def test_commutativity_flag(self):
        assert structure_constants(AlgebraContext(antichain(2), 3, Q)).is_commutative()
        assert not structure_constants(AlgebraContext(chain(2), 3, Q)).is_commutative()
