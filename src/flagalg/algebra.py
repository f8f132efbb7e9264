"""The partial flag incidence algebra I^n(P,R).

Elements are sparse dicts, basis index -> nonzero scalar, like every vector
of the package; the product is the interval convolution (for f, g and a
multichain x = (x_1..x_n):
(fg)(x) = sum over y in the interval product of x of f(x_1,y) g(y,x_n)).
The closed-form basis product and the anonymous structure-constants table
are derived from it.  The oracle table, a StructureConstants read off the
same interval products without the closed form, is what they are checked
against.
"""

from __future__ import annotations

import itertools
import json

from .linalg import SparseEchelon, sub_scaled
from .posets import Poset
from .rings import Ring, ring_from_spec


class AlgebraContext:
    """Immutable bundle: poset, flag order n >= 2, ring, ordered basis.

    Caches, per basis tuple x, the interval product I(x) as a list of
    (left-index, right-index) pairs feeding the convolution, where
    left = (x_1, y) and right = (y, x_n) for y in I(x).
    """

    def __init__(self, poset: Poset, n: int, ring: Ring):
        if n < 2:
            raise ValueError("flag order n must be >= 2")
        self.poset = poset
        self.n = n
        self.ring = ring
        self.basis = tuple(poset.multichains(n))
        self.index = {t: i for i, t in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._conv_pairs = self._build_conv_pairs()
        self._sc = None
        self._oracle = None

    def _build_conv_pairs(self):
        p, n, index = self.poset, self.n, self.index
        pairs = []
        for t in self.basis:
            iv = [sorted(p.interval(t[i], t[i + 1])) for i in range(n - 1)]
            mids = itertools.product(*iv)
            pairs.append(tuple((index[(t[0],) + m], index[m + (t[n - 1],)]) for m in mids))
        return tuple(pairs)

    def oracle_table(self) -> "StructureConstants":
        """The table of the products e_i e_j, built once from the convolution
        pairs alone: each pair (l, r) feeding basis index k adds one at k to
        entry (l, r).  It is an independent check of `basis_product` and the
        structure constants."""
        if self._oracle is None:
            ring = self.ring
            one, table = ring.one(), {}
            for k, pairs in enumerate(self._conv_pairs):
                for key in pairs:
                    entry = table.setdefault(key, {})
                    entry[k] = ring.add(entry.get(k, ring.zero()), one)
            table = {key: e.items() for key, e in table.items()}
            self._oracle = StructureConstants(self.dim, ring, table)
        return self._oracle

    def index_of(self, t) -> int:
        """Basis index of the tuple t; ValueError unless it is a basis tuple."""
        t = tuple(t)
        if t not in self.index:
            raise ValueError(f"{t} is not a weakly increasing tuple (multichain) of this poset")
        return self.index[t]

    def basis_element(self, t) -> dict:
        """The indicator basis element e_x."""
        return {self.index_of(t): self.ring.one()}

    def __repr__(self):
        return f"AlgebraContext(|P|={self.poset.size}, n={self.n}, ring={self.ring.name}, dim={self.dim})"


def convolve(ctx: AlgebraContext, f: dict, g: dict) -> dict:
    """The defining pointwise convolution product of two elements of ctx."""
    ring = ctx.ring
    zero = ring.zero()
    out = {}
    for k, pairs in enumerate(ctx._conv_pairs):
        acc = zero
        for (li, ri) in pairs:
            a = f.get(li)
            if a is None:
                continue
            b = g.get(ri)
            if b is None:
                continue
            acc = ring.add(acc, ring.mul(a, b))
        if acc != zero:
            out[k] = acc
    return out


def basis_product(ctx: AlgebraContext, x, y) -> dict:
    """Closed-form product e_x e_y.

    For n >= 3: zero unless the trailing part of x equals the leading part
    of y, in which case it is the sum of e_(x_1, z, y_n) over z in the
    interval product of the shared middle.  For n = 2 this degenerates to
    the classical rule e_(a,b) e_(c,d) = [b = c] e_(a,d).
    """
    x, y = ctx.basis[ctx.index_of(x)], ctx.basis[ctx.index_of(y)]
    n = ctx.n
    u, v = x[1:], y[:-1]
    if u != v:
        return {}
    p = ctx.poset
    iv = [sorted(p.interval(u[i], u[i + 1])) for i in range(n - 2)]
    # distinct middles give distinct basis tuples: every coefficient is one
    one = ctx.ring.one()
    return {ctx.index[(x[0],) + mid + (y[n - 1],)]: one for mid in itertools.product(*iv)}


class StructureConstants:
    """Anonymous multiplication table of a finite free R-algebra.

    table[(i, j)] is a tuple of (k, c), sorted by k, with c the nonzero
    coefficient of basis vector k in b_i * b_j; absent pairs have zero
    product, so equal tables compare equal with `==`.  `chain` holds the
    commutator chain once `lattice.commutator_chain` computed it.
    """

    def __init__(self, dim: int, ring: Ring, table: dict):
        self.dim = dim
        self.ring = ring
        entries = (
            (key, tuple(sorted((k, c) for (k, c) in val if c))) for key, val in table.items()
        )
        self.table = {key: val for key, val in entries if val}
        self.chain = None

    def multiply(self, u: dict, v: dict) -> dict:
        """Product of two sparse vectors."""
        ring, table = self.ring, self.table
        zero = ring.zero()
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                entry = table.get((i, j))
                if entry is None:
                    continue
                ab = ring.mul(a, b)
                for k, c in entry:
                    out[k] = ring.add(out.get(k, zero), ring.mul(ab, c))
        return {k: x for k, x in out.items() if x}

    def commutator_vec(self, u: dict, v: dict) -> dict:
        out = self.multiply(u, v)
        sub_scaled(out, self.ring.one(), self.multiply(v, u), self.ring)
        return out

    def identity(self, side: str):
        """An element e with e*b = b (side "left") or b*e = b ("right") for
        every basis vector b, or None; solved exactly over a field."""
        ring, d = self.ring, self.dim
        one = ring.one()
        # unknown e = sum_q a_q b_q; generator q carries the coefficients of
        # b_q*b_j (left) or b_j*b_q (right), coefficient of b_k at j*d + k
        ech = SparseEchelon(ring)
        for q in range(d):
            row = {}
            for j in range(d):
                for k, c in self.table.get((q, j) if side == "left" else (j, q), ()):
                    row[j * d + k] = c
            ech.add_row(row, {q: one})
        residue, coords = ech.reduce({j * d + j: one for j in range(d)})
        return None if residue else coords

    def is_commutative(self) -> bool:
        table = self.table
        return all(table.get((j, i)) == e for (i, j), e in table.items())

    def rebase(self, ech: SparseEchelon, vectors) -> "StructureConstants | None":
        """The table in the basis `vectors`: entry (i, j) holds the coords of
        v_i v_j reduced against `ech`, whose rows carry the vectors' tags.
        None if a product leaves a residue, i.e. the span is not closed."""
        table = {}
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                residue, coords = ech.reduce(self.multiply(a, b))
                if residue:
                    return None
                table[(i, j)] = coords.items()
        return StructureConstants(len(vectors), self.ring, table)

    def to_json(self) -> str:
        fmt = self.ring.format
        entries = [
            [i, j, [[k, fmt(c)] for (k, c) in self.table[(i, j)]]]
            for (i, j) in sorted(self.table)
        ]
        return json.dumps(
            {"dim": self.dim, "ring": self.ring.name, "table": entries},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "StructureConstants":
        """Parse the `to_json` format; any malformed table raises ValueError."""
        # the decoder, and the repr in an error message, recurse once per
        # nesting level
        try:
            return cls._from_data(json.loads(text))
        except RecursionError:
            raise ValueError("the JSON nests too deeply") from None

    @classmethod
    def _from_data(cls, data) -> "StructureConstants":
        if not isinstance(data, dict) or not {"dim", "ring", "table"} <= data.keys():
            raise ValueError('expected an object with keys "dim", "ring" and "table"')
        dim = data["dim"]
        if type(dim) is not int or dim < 0:
            raise ValueError(f"dim must be a non-negative integer, got {dim!r}")
        if not isinstance(data["ring"], str):
            raise ValueError(f"ring must be a ring spec string, got {data['ring']!r}")
        ring = ring_from_spec(data["ring"])
        if not isinstance(data["table"], list):
            raise ValueError("table must be a list of [i, j, [[k, coeff], ...]] entries")

        def index(x):
            if type(x) is not int or not 0 <= x < dim:
                raise ValueError(f"index {x!r} is not an integer in [0, {dim})")
            return x

        table = {}
        for entry in data["table"]:
            if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[2], list)):
                raise ValueError(f"table entry {entry!r} is not [i, j, [[k, coeff], ...]]")
            key = (index(entry[0]), index(entry[1]))
            if key in table:
                raise ValueError(f"duplicate table entry for {list(key)}")
            terms = {}
            for term in entry[2]:
                if not (isinstance(term, list) and len(term) == 2 and isinstance(term[1], str)):
                    raise ValueError(f"term {term!r} is not [k, \"coeff\"]")
                k = index(term[0])
                if k in terms:
                    raise ValueError(f"duplicate basis index {k} in table entry {list(key)}")
                terms[k] = ring.parse(term[1])
            table[key] = list(terms.items())
        return cls(dim, ring, table)


def structure_constants(ctx: AlgebraContext) -> StructureConstants:
    """The c_{ij}^k table of the context, built from the closed-form product."""
    if ctx._sc is None:
        table = {}
        for i, x in enumerate(ctx.basis):
            for j, y in enumerate(ctx.basis):
                prod = basis_product(ctx, x, y)
                if prod:
                    table[(i, j)] = prod.items()
        ctx._sc = StructureConstants(ctx.dim, ctx.ring, table)
    return ctx._sc


def power_assoc_witness(ctx: AlgebraContext):
    """Witness f with f(ff) != (ff)f, or None.

    Uses the lexicographically least comparable pair x < y and the element
    f = e_(x..x) + e_(x..x,y) + e_(x..x,y,y).  None means an antichain (no
    such pair) or, against the theorem, a candidate with f(ff) = (ff)f.
    """
    if ctx.n < 3:
        raise ValueError("power_assoc_witness requires n >= 3")
    p = ctx.poset
    pair = next(
        (
            (x, y)
            for x in range(p.size)
            for y in range(p.size)
            if x != y and p.leq[x][y]
        ),
        None,
    )
    if pair is None:
        return None
    x, y = pair
    n = ctx.n
    one = ctx.ring.one()
    tuples = ((x,) * n, (x,) * (n - 1) + (y,), (x,) * (n - 2) + (y, y))
    f = {ctx.index[t]: one for t in tuples}
    ff = convolve(ctx, f, f)
    return None if convolve(ctx, f, ff) == convolve(ctx, ff, f) else f
