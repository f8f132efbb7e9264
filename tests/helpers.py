"""Poset and linear-map helpers that only the tests use.

No command or pipeline relabels or dualises a poset, compares two
submodules, or builds an identity or inverse map, so the library does not
ship these.
"""

from flagalg.linalg import LinearMap, Submodule
from flagalg.posets import Poset
from flagalg.rings import Ring


def relabel(p: Poset, perm) -> Poset:
    """Image poset under index map x -> perm[x]."""
    m = p.size
    leq = [[False] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            if p.leq[x][y]:
                leq[perm[x]][perm[y]] = True
    names = [None] * m
    for x in range(m):
        names[perm[x]] = p.names[x]
    return Poset(leq, names=names)


def dual(p: Poset) -> Poset:
    return Poset(tuple(zip(*p.leq)), names=p.names)


def is_subset_of(a: Submodule, b: Submodule) -> bool:
    return all(b.contains(row) for row in a.basis)


def identity(ring: Ring, dim: int) -> LinearMap:
    return LinearMap(ring, [{j: ring.one()} for j in range(dim)])


def inverse(t: LinearMap):
    """The inverse map over a field, or None if singular."""
    ech = t.column_echelon()
    if ech is None:
        return None
    # reducing e_i yields column i of the inverse
    return LinearMap(t.ring, [ech.reduce({i: t.ring.one()})[1] for i in range(t.dim)])
