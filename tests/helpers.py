"""Poset and linear-map helpers that only the tests use.

No command or pipeline relabels or dualises a poset, compares two
submodules, or builds an identity or inverse map, so the library does not
ship these.  The cubic order build on boolean rows is kept here as the
reference that Poset's bitmask build is compared with.
"""

from flagalg.linalg import LinearMap, Submodule
from flagalg.posets import Poset, PosetError
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


def reference_order(leq):
    """(leq, covers) of the order with rows leq, or the PosetError that
    Poset raises, by the cubic checks and cover search on boolean rows."""
    m = len(leq)
    leq = tuple(tuple(bool(v) for v in row) for row in leq)
    for row in leq:
        if len(row) != m:
            raise PosetError("leq relation must be square")
    for x in range(m):
        if not leq[x][x]:
            raise PosetError(f"relation is not reflexive at {x}")
        for y in range(m):
            if x != y and leq[x][y] and leq[y][x]:
                raise PosetError(f"relation is not antisymmetric on {{{x},{y}}}")
            if leq[x][y]:
                for z in range(m):
                    if leq[y][z] and not leq[x][z]:
                        raise PosetError(f"relation is not transitive via {x}<={y}<={z}")
    covers = []
    for x in range(m):
        for y in range(m):
            if x != y and leq[x][y]:
                if not any(z != x and z != y and leq[x][z] and leq[z][y] for z in range(m)):
                    covers.append((x, y))
    return leq, tuple(sorted(covers))


def reference_from_covers(size, cover_pairs):
    """reference_order of the Floyd-Warshall closure of cover_pairs on
    boolean rows, or the PosetError that Poset.from_covers raises."""
    leq = [[i == j for j in range(size)] for i in range(size)]
    for (x, y) in cover_pairs:
        leq[x][y] = True
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(size):
        for j in range(size):
            if i != j and leq[i][j] and leq[j][i]:
                raise PosetError("cycle detected in declared relation")
    return reference_order(leq)


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
