"""Exact linear algebra over fields and Z.

A vector is a dict from index to nonzero scalar, everywhere in the package
(scalars are Fractions or ints, so a scalar's truthiness is its zero test).
Submodules of R^d are kept in a canonical basis (reduced row echelon form
over fields, row-style Hermite normal form over Z), so equal submodules
compare equal.  Every elimination over a field goes through SparseEchelon,
which indexes each non-pivot column by the stored rows holding it, so a new
pivot is eliminated only where it occurs; over Z, spans, kernel lattices
and membership go through the one sparse `hnf`, which buckets its work
rows by leading column.  A LinearMap keeps its matrix as sparse columns.
"""

from __future__ import annotations

from math import lcm

from .rings import CapabilityError, Integers, Rationals, Ring


def _require_submodule_support(ring: Ring):
    if not ring.supports_submodules:
        raise CapabilityError(
            f"submodule computations are not supported over {ring.name}; "
            "use a field or Z"
        )


def _check_bounds(vector: dict, ambient: int):
    if any(not 0 <= i < ambient for i in vector):
        raise ValueError(f"vector {vector} has an index outside range({ambient})")


def sub_scaled(target: dict, a, source: dict, ring: Ring):
    """target -= a * source on sparse dicts, in place, dropping zeros."""
    zero = ring.zero()
    for c, v in source.items():
        nv = ring.sub(target.get(c, zero), ring.mul(a, v))
        if not nv:
            target.pop(c, None)
        else:
            target[c] = nv


class SparseEchelon:
    """Incrementally maintained fully-reduced echelon form over a field.

    Rows are dicts mapping column index to a nonzero scalar.  Each accepted
    pivot row is normalized to pivot 1 and its pivot column is eliminated
    from every other stored row, so reading off kernels is immediate.  A
    stored row thus holds its own pivot and otherwise only non-pivot
    columns; `holders` maps each non-pivot column to the pivots of the rows
    holding it, and elimination and `kernel_basis` visit only those rows.

    A row may carry a tag, a sparse dict naming it as a combination of
    labelled generators; untagged rows count as zero.  Every row operation
    is applied to the tags as well, so `reduce` can say which combination
    of generators it subtracted.
    """

    def __init__(self, ring: Ring):
        if not ring.is_field:
            raise CapabilityError("SparseEchelon requires a field")
        self.ring = ring
        self.pivots = {}  # pivot column -> row dict
        self.tags = {}  # pivot column -> tag dict
        self.holders = {}  # non-pivot column -> pivots of the rows holding it

    def reduce(self, row: dict):
        """Reduce row against the stored rows; return (residue, coords).

        The residue is zero on every pivot column.  coords sums the tags of
        the rows subtracted, so row - residue equals the generators combined
        by coords, plus a combination of untagged rows.
        """
        ring = self.ring
        zero = ring.zero()
        row = dict(row)
        coords = {}
        for col in sorted(row):
            piv = self.pivots.get(col)
            if piv is None:
                continue
            coeff = row.get(col, zero)
            if not coeff:
                continue
            sub_scaled(row, coeff, piv, ring)
            if self.tags[col]:
                sub_scaled(coords, ring.neg(coeff), self.tags[col], ring)
        return {c: v for c, v in row.items() if v}, coords

    def add_row(self, row: dict, tag: dict | None = None) -> bool:
        """Insert a row labelled `tag`; returns True if it increased the rank."""
        ring = self.ring
        row, coords = self.reduce(row)
        if not row:
            return False
        tag = dict(tag or {})
        sub_scaled(tag, ring.one(), coords, ring)
        pcol = min(row)
        pinv = ring.inv(row[pcol])
        row = {c: ring.mul(pinv, v) for c, v in row.items()}
        tag = {c: ring.mul(pinv, v) for c, v in tag.items()}
        rest = [(c, v) for c, v in row.items() if c != pcol]
        holders = self.holders
        for c, _v in rest:
            holders.setdefault(c, set()).add(pcol)
        # eliminate the new pivot column from the rows holding it; over a
        # field an entry of such a row cancels only where it already was
        zero = ring.zero()
        for col in holders.pop(pcol, ()):
            other = self.pivots[col]
            coeff = other.pop(pcol)
            for c, v in rest:
                nv = ring.sub(other.get(c, zero), ring.mul(coeff, v))
                if nv:
                    if c not in other:
                        holders[c].add(col)
                    other[c] = nv
                else:
                    del other[c]
                    holders[c].remove(col)
            if tag:
                sub_scaled(self.tags[col], coeff, tag, ring)
        self.pivots[pcol] = row
        self.tags[pcol] = tag
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel_basis(self, width: int) -> list:
        """Basis of the null space of the row span, one vector per free column."""
        ring = self.ring
        free = [c for c in range(width) if c not in self.pivots]
        basis = []
        for f in free:
            v = {f: ring.one()}
            for pcol in self.holders.get(f, ()):
                v[pcol] = ring.neg(self.pivots[pcol][f])
            basis.append(v)
        return basis


def hnf(rows):
    """Row-style Hermite normal form of sparse integer rows, as sparse rows.

    Convention (fixed once for the whole package): pivots are positive,
    rows are sorted by pivot column, and entries above a pivot are reduced
    into [0, pivot).  Zero entries and zero rows are dropped.
    """
    z = Integers()
    lead = {}  # leading column -> the work rows that start there
    for r in rows:
        if r := {c: x for c, x in r.items() if x}:
            lead.setdefault(min(r), []).append(r)
    done = []  # the pivot rows, by pivot column
    while lead:
        col = min(lead)
        live = lead.pop(col)
        # gcd-reduce the column until a single nonzero entry remains; a row
        # that loses it starts further right
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                q = r[col] // piv[col]
                if q:
                    sub_scaled(r, q, piv, z)
            for r in live:
                if r and col not in r:
                    lead.setdefault(min(r), []).append(r)
            live = [r for r in live if col in r]
        piv = live[0]
        done.append(piv if piv[col] > 0 else {c: -x for c, x in piv.items()})
    # reduce entries above each pivot, bottom up: the rows below r are final,
    # so r visits only the pivot columns it holds, fill-in included, left to right
    at = {min(r): r for r in done}  # pivot column -> its row
    for r in reversed(done):
        c = min(r)
        while (c := min((k for k in r if k > c and k in at), default=None)) is not None:
            q = r[c] // at[c][c]
            if q:
                sub_scaled(r, q, at[c], z)
    return done


class Submodule:
    """An R-submodule of R^d in canonical basis form.

    Over a field it keeps the echelon `span` built, and membership is a
    residue test on it; over Z a vector is a member iff adding it leaves
    the HNF unchanged, since a lattice has exactly one HNF.
    """

    __slots__ = ("ring", "ambient", "basis", "_echelon")

    def __init__(self, ring: Ring, ambient: int, canonical_basis, echelon=None):
        self.ring = ring
        self.ambient = ambient
        self.basis = tuple(canonical_basis)
        self._echelon = echelon  # field only: the SparseEchelon of the basis

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ring == other.ring
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ring, self.ambient, tuple(tuple(sorted(r.items())) for r in self.basis)))

    def __repr__(self):
        return f"Submodule(ring={self.ring.name}, ambient={self.ambient}, rank={self.rank})"

    def contains(self, vector: dict) -> bool:
        _check_bounds(vector, self.ambient)
        if self._echelon is not None:
            return not self._echelon.reduce(vector)[0]
        return hnf([*self.basis, vector]) == list(self.basis)


def span(vectors, ring: Ring, ambient: int | None = None) -> Submodule:
    """Canonical-form submodule of R^ambient generated by the given vectors."""
    _require_submodule_support(ring)
    if ambient is None:
        raise ValueError("ambient dimension required: sparse vectors do not carry it")
    vectors = list(vectors)
    for v in vectors:
        _check_bounds(v, ambient)
    if isinstance(ring, Integers):
        return Submodule(ring, ambient, hnf(vectors))
    # reduced row echelon form: the stored rows by pivot column
    ech = SparseEchelon(ring)
    for v in vectors:
        ech.add_row(v)
    return Submodule(ring, ambient, [ech.pivots[pc] for pc in sorted(ech.pivots)], ech)


def kernel(rows, width: int, ring: Ring) -> Submodule:
    """Canonical basis of {v : Mv = 0} for the matrix M with the given
    sparse rows.

    Over a field this is the classical null space; over Z it is the full
    kernel lattice (automatically saturated).
    """
    _require_submodule_support(ring)
    # over Z the integer kernel depends only on the Q-row-space: reduce over
    # Q (integers are Q scalars) to at most `width` independent rows R and
    # clear denominators.  The rows (x R^T, x) for x in Z^width span the
    # lattice of [R^T | I]; its HNF rows that vanish on the first `rank`
    # columns are the HNF of {(0, x) : R x = 0}, the kernel lattice.
    ech = SparseEchelon(ring if ring.is_field else Rationals())
    for r in rows:
        ech.add_row(r)
    if ring.is_field:
        return span(ech.kernel_basis(width), ring, width)
    rank = ech.rank
    if rank == width:
        return span([], ring, width)
    stacked = [{rank + i: 1} for i in range(width)]
    for k, pcol in enumerate(sorted(ech.pivots)):
        row = ech.pivots[pcol]
        denom = lcm(*(v.denominator for v in row.values()))
        for i, v in row.items():
            stacked[i][k] = int(v * denom)
    basis = [{c - rank: x for c, x in r.items()} for r in hnf(stacked) if min(r) >= rank]
    return Submodule(ring, width, basis)


class LinearMap:
    """A d x d matrix over a field or Z, kept as its sparse columns: column j
    is the image of basis vector j."""

    __slots__ = ("ring", "columns")

    def __init__(self, ring: Ring, columns):
        self.ring = ring
        self.columns = tuple(columns)

    @property
    def dim(self):
        return len(self.columns)

    def apply(self, vector: dict) -> dict:
        ring = self.ring
        out = {}
        for j, a in vector.items():
            sub_scaled(out, ring.neg(a), self.columns[j], ring)
        return out

    def column_echelon(self):
        """The echelon of the columns, column j tagged j, or None if the map
        is singular over a field: reducing v yields T^-1 v as its coords."""
        ech = SparseEchelon(self.ring)
        for j, col in enumerate(self.columns):
            ech.add_row(col, {j: self.ring.one()})
        return ech if ech.rank == self.dim else None

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.ring == other.ring
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.ring, tuple(tuple(sorted(c.items())) for c in self.columns)))
