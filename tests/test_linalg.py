"""Exact linear algebra: echelon forms, HNF, spans, kernels, solving."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from helpers import inverse, is_subset_of, reference_contains
from hypothesis import example, given, settings, strategies as st

from flagalg.linalg import (
    LinearMap,
    SparseEchelon,
    hnf,
    kernel,
    span,
    sub_scaled,
)
from flagalg.rings import Integers, PrimeField, Rationals

Q = Rationals()
Z = Integers()
F2 = PrimeField(2)

small_int = st.integers(-6, 6)


def sparse(vector):
    """The nonzero entries of a dense vector, in the library's vector format."""
    return {i: x for i, x in enumerate(vector) if x}


def from_rows(ring, rows):
    """The LinearMap whose matrix has these dense rows."""
    return LinearMap(ring, [sparse([r[j] for r in rows]) for j in range(len(rows))])


def matrices(nrows, ncols, elems=small_int):
    return st.lists(
        st.lists(elems, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


def det_fraction(rows):
    """Determinant by plain fraction elimination (independent of hnf)."""
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


@given(matrices(3, 4))
def test_span_idempotent(rows):
    rows = [sparse([Fraction(x) for x in r]) for r in rows]
    s = span(rows, Q, ambient=4)
    assert span(s.basis, Q, ambient=4) == s


@given(matrices(3, 4))
def test_span_preserves_row_space(rows):
    rows = [sparse([Fraction(x) for x in r]) for r in rows]
    s = span(rows, Q, ambient=4)
    # every generator lies in the span, and no basis row adds to the rank
    assert all(s.contains(r) for r in rows)
    assert all(span(rows + [b], Q, ambient=4).rank == s.rank for b in s.basis)


def test_hnf_determinant_preserved():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h = hnf([sparse(r) for r in rows])
    pivot_product = 1
    for r in h:
        pivot_product *= r[min(r)]
    assert pivot_product == abs(det_fraction(rows))


@given(matrices(3, 4))
def test_hnf_pivots_positive_and_reduced(rows):
    h = hnf([sparse(r) for r in rows])
    for i, row in enumerate(h):
        nz = [j for j, x in row.items() if x]
        assert nz, "hnf must drop zero rows"
        p = min(nz)
        assert row[p] > 0
        for k in range(i):
            assert 0 <= h[k].get(p, 0) < row[p]


def reduce_above_pivots_all_pairs(echelon):
    """The reference for `hnf`'s final pass: for each pivot row in turn,
    reduce its pivot column in every row above it."""
    rows = [dict(r) for r in echelon]
    for i, prow in enumerate(rows):
        pc = min(prow)
        for r in rows[:i]:
            q = r.get(pc, 0) // prow[pc]
            if q:
                sub_scaled(r, q, prow, Z)
    return rows


@given(matrices(5, 6), st.lists(st.integers(-9, 9), min_size=10, max_size=10))
@settings(max_examples=200)
def test_hnf_final_pass_matches_all_pairs_reference(rows, multipliers):
    # add multiples of each HNF row to the rows above it: an echelon basis of
    # the same lattice with positive pivots, left for the final pass to reduce
    h = hnf([sparse(r) for r in rows])
    echelon = [dict(r) for r in h]
    m = iter(multipliers)
    for i, j in itertools.combinations(range(len(echelon)), 2):
        sub_scaled(echelon[i], next(m), echelon[j], Z)
    assert reduce_above_pivots_all_pairs(echelon) == h
    assert hnf(echelon) == h


class TestSpan:
    def test_field_membership(self):
        s = span([{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}], Q, ambient=2)
        assert s.rank == 1
        assert s.contains({0: Fraction(3), 1: Fraction(6)})
        assert not s.contains({0: Fraction(1), 1: Fraction(1)})

    def test_integer_membership_respects_divisibility(self):
        s = span([{0: 2}, {1: 2}], Z, ambient=2)
        assert s.contains({0: 4, 1: -2})
        assert not s.contains({0: 1})

    def test_span_is_canonical(self):
        a = span([sparse([1, 2, 3]), sparse([0, 1, 1])], Z, ambient=3)
        b = span([sparse([1, 3, 4]), sparse([0, 1, 1]), sparse([1, 2, 3])], Z, ambient=3)
        assert a.basis == b.basis

    def test_subset(self):
        big = span([{0: Fraction(1)}, {1: Fraction(1)}], Q, ambient=2)
        small = span([{0: Fraction(1), 1: Fraction(1)}], Q, ambient=2)
        assert is_subset_of(small, big)
        assert not is_subset_of(big, small)

    def test_empty_span_needs_ambient(self):
        assert span([], Q, ambient=3).rank == 0
        with pytest.raises(TypeError):
            span([], Q)


@pytest.mark.parametrize("ring", [Q, F2], ids=lambda r: r.name)
@given(rows=matrices(3, 5))
@settings(max_examples=40)
def test_kernel_rank_nullity(ring, rows):
    rows = [sparse([ring.coerce(x) for x in r]) for r in rows]
    ker = kernel(rows, 5, ring)
    assert ker.rank + span(rows, ring, ambient=5).rank == 5
    zero = ring.zero()
    for v in ker.basis:
        for r in rows:
            acc = zero
            for i, x in r.items():
                acc = ring.add(acc, ring.mul(x, v.get(i, zero)))
            assert acc == zero


@given(rows=matrices(3, 4))
@example(rows=[[0] * 4] * 3)  # the zero matrix: the kernel is all of Z^4
@settings(max_examples=40)
def test_integer_kernel_is_saturated(rows):
    ker = kernel([sparse(r) for r in rows], 4, Z)
    for v in ker.basis:
        assert all(sum(x * v.get(i, 0) for i, x in enumerate(r)) == 0 for r in rows)
    qker = kernel([sparse([Fraction(x) for x in r]) for r in rows], 4, Q)
    assert ker.rank == qker.rank
    # saturation: each rational kernel vector, scaled integral and primitive,
    # must already lie in the integer kernel lattice
    for v in qker.basis:
        den = math.lcm(*(x.denominator for x in v.values()))
        w = {i: int(x * den) for i, x in v.items()}
        g = math.gcd(*w.values())
        assert ker.contains({i: x // g for i, x in w.items()})


@given(rows=matrices(3, 4))
# the lattice spanned by (2, 0, 1, 1) and (0, 2, 1, -1) lies in this
# matrix's kernel, has its rank and holds its primitive Q-RREF kernel
# vectors, yet misses (1, 1, 1, 0)
@example(rows=[[-1, -1, 2, 0], [-1, 1, 0, 2], [0, 0, 0, 0]])
@settings(max_examples=40)
def test_integer_kernel_holds_every_small_kernel_vector(rows):
    ker = kernel([sparse(r) for r in rows], 4, Z)
    for v in itertools.product(range(-3, 4), repeat=4):
        if all(sum(x * y for x, y in zip(r, v)) == 0 for r in rows):
            assert ker.contains(sparse(v))
    assert span(ker.basis, Z, 4) == ker


def test_echelon_tags_solve_consistent_and_inconsistent():
    # tag row i with {i: 1}; reducing a target in the row span to zero
    # yields the combination of rows that produces it
    ech = SparseEchelon(Q)
    for i, row in enumerate([{0: Fraction(1), 1: Fraction(2)}, {1: Fraction(1)}]):
        ech.add_row(row, {i: Fraction(1)})
    residue, combo = ech.reduce({0: Fraction(2), 1: Fraction(5)})
    assert residue == {}
    x, y = combo.get(0, 0), combo.get(1, 0)
    assert [x * 1 + y * 0, x * 2 + y * 1] == [Fraction(2), Fraction(5)]
    ech = SparseEchelon(Q)
    ech.add_row({0: Fraction(1)}, {0: Fraction(1)})
    assert ech.reduce({1: Fraction(1)})[0] == {1: Fraction(1)}


def test_linear_map_inverse():
    m = from_rows(Q, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    inv = inverse(m)
    ident = [m.apply(col) for col in inv.columns]
    assert ident == [{0: Fraction(1)}, {1: Fraction(1)}]
    assert inverse(from_rows(Q, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])) is None


def test_linear_map_apply():
    # the product of the matrix [[1, 2], [3, 4]] with the vector (1, 1)
    assert from_rows(Z, [[1, 2], [3, 4]]).apply({0: 1, 1: 1}) == {0: 3, 1: 7}


def test_submodule_contains_member():
    rng = random.Random(3)
    vecs = [sparse([Fraction(rng.randint(-4, 4)) for _ in range(4)]) for _ in range(3)]
    s = span(vecs, Q, ambient=4)
    member = {}
    for row in s.basis:
        for i, x in row.items():
            member[i] = member.get(i, 0) + x
    assert s.contains({i: x for i, x in member.items() if x})


@pytest.mark.parametrize("ring, basis", [(Z, ({0: 2}, {1: 3})), (Q, ({0: 1}, {1: 1}))], ids=["Z", "Q"])
def test_explicit_zero_entries_are_no_entries(ring, basis):
    # an entry 0 is no entry: over Z it must never become an hnf pivot,
    # which divides by it, gives the zero module rank 1 or leaves 0 outside
    assert span([{0: 2}, {0: 0, 1: 3}], ring, 2).basis == basis
    assert span([{0: 0}], ring, 2).basis == ()
    assert span([{0: 2}], ring, 2).contains({0: 0})


def z_lattices():
    """Seeded Z-submodules of Z^d, d <= 6, from `span` and from `kernel`."""
    rng = random.Random("z-lattices")
    entry = lambda: rng.randint(-9, 9) if rng.random() < 0.6 else 0
    for _ in range(40):
        d = rng.randint(1, 6)
        rows = [sparse([entry() for _ in range(d)]) for _ in range(rng.randint(0, d + 1))]
        yield span(rows, Z, d)
        yield kernel(rows, d, Z)


def test_integer_membership_matches_the_divide_down_reference():
    # members are integer combinations of the basis; the vectors one step
    # of +-1 off a member are members only for some lattices
    rng = random.Random("z-members")
    verdicts = []
    for s in z_lattices():
        for _ in range(10):
            member = {}
            for row in s.basis:
                sub_scaled(member, rng.randint(-3, 3), row, Z)
            off = dict(member)
            sub_scaled(off, rng.choice((-1, 1)), {rng.randrange(s.ambient): 1}, Z)
            assert s.contains(member) and reference_contains(s, member), (s.basis, member)
            verdicts.append(s.contains(off))
            assert verdicts[-1] == reference_contains(s, off), (s.basis, off)
    assert verdicts.count(False) > 500 and verdicts.count(True) > 100


@pytest.mark.parametrize("ring", [Q, Z], ids=lambda r: r.name)
def test_index_outside_ambient_raises(ring):
    # a sparse vector does not carry its length, so every index is checked
    with pytest.raises(ValueError, match="outside range"):
        span([{0: 1}, {3: 1}], ring, ambient=3)
    with pytest.raises(ValueError, match="outside range"):
        span([{-1: 1}], ring, ambient=3)
    s = span([{0: 1}], ring, ambient=3)
    with pytest.raises(ValueError, match="outside range"):
        s.contains({3: 1})
    with pytest.raises(ValueError, match="outside range"):
        s.contains({0: 1, -1: 1})
    assert s.contains({0: 2}) and not s.contains({2: 1})


F5 = PrimeField(5)


def dense(vector, width, ring):
    return [vector.get(i, ring.zero()) for i in range(width)]


class GaussJordan:
    """Dense reference for SparseEchelon: each accepted row is kept as
    [row | tag] in reduced row echelon form on its first `width` columns."""

    def __init__(self, ring, width, ntags):
        self.ring, self.width, self.ntags = ring, width, ntags
        self.rows = []

    def pivot(self, v):
        return next((c for c in range(self.width) if v[c]), None)

    def combine(self, v, c, r):
        ring = self.ring
        return [ring.sub(x, ring.mul(c, y)) for x, y in zip(v, r)]

    def reduce_dense(self, v):
        for r in self.rows:
            p = self.pivot(r)
            if v[p]:
                v = self.combine(v, v[p], r)
        return v

    def add_row(self, row, tag):
        ring = self.ring
        v = self.reduce_dense(dense(row, self.width, ring) + dense(tag or {}, self.ntags, ring))
        p = self.pivot(v)
        if p is None:
            return False
        inv = ring.inv(v[p])
        v = [ring.mul(inv, x) for x in v]
        self.rows = [self.combine(r, r[p], v) if r[p] else r for r in self.rows] + [v]
        return True

    def pivots(self):
        return {self.pivot(r): (sparse(r[: self.width]), sparse(r[self.width :])) for r in self.rows}

    def reduce(self, vector):
        """(residue, coords): the row part of v minus sum v[p] r_p, and the
        matching sum v[p] t_p of tags."""
        ring = self.ring
        v = dense(vector, self.width, ring) + [ring.zero()] * self.ntags
        out = self.reduce_dense(v)
        return sparse(out[: self.width]), sparse([ring.neg(x) for x in out[self.width :]])

    def kernel_basis(self):
        ring = self.ring
        piv = {self.pivot(r): r for r in self.rows}
        basis = []
        for f in range(self.width):
            if f not in piv:
                v = {f: ring.one()}
                v.update({p: ring.neg(r[f]) for p, r in piv.items() if r[f]})
                basis.append(v)
        return basis


@st.composite
def planted_rows(draw, ring):
    """(width, ntags, [(row, tag)], probes): sparse rows, some of them
    planted combinations of earlier rows; each row untagged or tagged."""
    width = draw(st.integers(1, 7))
    ntags = 4
    scalar = st.integers(-3, 3).map(ring.coerce)

    def sparse_vec(n):
        entries = st.dictionaries(st.integers(0, n - 1), scalar, max_size=3)
        return entries.map(lambda d: {i: x for i, x in d.items() if x})

    rows = []
    for _ in range(draw(st.integers(1, 9))):
        if rows and draw(st.booleans()):
            combo = [ring.zero()] * width
            for r, _tag in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = draw(scalar)
                combo = [ring.add(x, ring.mul(c, y)) for x, y in zip(combo, dense(r, width, ring))]
            row = sparse(combo)
        else:
            row = draw(sparse_vec(width))
        rows.append((row, draw(st.one_of(st.none(), sparse_vec(ntags)))))
    probes = draw(st.lists(sparse_vec(width), max_size=3)) + [row for row, _tag in rows]
    return width, ntags, rows, probes


@pytest.mark.parametrize("ring", [Q, F5], ids=lambda r: r.name)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_echelon_matches_dense_gauss_jordan(ring, data):
    width, ntags, rows, probes = data.draw(planted_rows(ring))
    ech, ref = SparseEchelon(ring), GaussJordan(ring, width, ntags)
    for row, tag in rows:
        assert ech.add_row(row, tag) == ref.add_row(row, tag)
        assert {p: (ech.pivots[p], ech.tags[p]) for p in ech.pivots} == ref.pivots()
        # the column index is exactly the supports of the stored rows
        supports = {}
        for p, r in ech.pivots.items():
            for c in r:
                if c != p:
                    supports.setdefault(c, set()).add(p)
        assert ech.holders == supports
    for v in probes:
        assert ech.reduce(v) == ref.reduce(v)
    assert ech.kernel_basis(width) == ref.kernel_basis()


@given(rows=st.lists(st.lists(small_int, min_size=4, max_size=4), max_size=4))
@settings(max_examples=40)
def test_hnf_ignores_row_order(rows):
    rows = [sparse(r) for r in rows]
    expected = hnf(rows)
    for perm in itertools.permutations(rows):
        assert hnf(list(perm)) == expected
