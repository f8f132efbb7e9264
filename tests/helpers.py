"""Poset and linear-map helpers that only the tests use.

No command or pipeline relabels or dualises a poset, keys one poset on
its own (`enumerate_posets` keys its candidates by `_canonical_key`),
compares two submodules, or builds an identity or inverse map, so the
library does not ship these.  The cubic order build, the order queries on boolean rows and
the divide-down membership test over Z are kept here as the references
that Poset's bitmask build and queries and Submodule.contains are
compared with.
"""

from flagalg.linalg import LinearMap, Submodule, sub_scaled
from flagalg.posets import InvalidIntervalError, Poset, PosetError, _canonical_key
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


def canonical_key(p: Poset):
    """Isomorphism-invariant canonical encoding: the least integer with
    bit i*m + j = leq[perm[i]][perm[j]] over all perms."""
    return (p.size, _canonical_key(p.size, p.up))


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


def reference_interval(p: Poset, x, y):
    """The set {z : x <= z <= y}, read off the leq rows; x <= y required."""
    if not p.leq[x][y]:
        raise InvalidIntervalError(f"{x} is not <= {y}")
    return {z for z in range(p.size) if p.leq[x][z] and p.leq[z][y]}


def reference_chain_heights(p: Poset, elems):
    """For each z in elems, the longest cover chain within elems that ends
    at z (elems is an interval or all of P, so convex)."""
    best = {z: 0 for z in elems}
    for z in sorted(elems, key=lambda z: sum(p.leq[w][z] for w in elems)):
        for (a, b) in p.covers:
            if a == z and b in best:
                best[b] = max(best[b], best[z] + 1)
    return best


def reference_multichains(p: Poset, n: int):
    """All weakly increasing n-tuples in lexicographic index order."""
    chains = [(x,) for x in range(p.size)]
    for _ in range(n - 1):
        chains = [c + (y,) for c in chains for y in range(p.size) if p.leq[c[-1]][y]]
    return chains


def reference_count_multichains(p: Poset, n: int) -> int:
    """len(reference_multichains(p, n)), by n - 1 passes over the leq rows."""
    ends = [1] * p.size  # the chains so far that end at each element
    for _ in range(n - 1):
        ends = [sum(c for c, row in zip(ends, p.leq) if row[y]) for y in range(p.size)]
    return sum(ends)


def reference_invariant(p: Poset, x):
    """(up-degree, down-degree, height) of x, read off the leq rows."""
    up = sum(p.leq[x][y] for y in range(p.size)) - 1
    down = sum(p.leq[y][x] for y in range(p.size)) - 1
    return (up, down, reference_chain_heights(p, range(p.size))[x])


def reference_is_order_isomorphism(p: Poset, q: Poset, phi) -> bool:
    if p.size != q.size or sorted(phi) != list(range(p.size)):
        return False
    return all(
        p.leq[x][y] == q.leq[phi[x]][phi[y]]
        for x in range(p.size)
        for y in range(p.size)
    )


def reference_contains(s: Submodule, vector: dict) -> bool:
    """Membership in a Z-submodule by dividing the vector down the pivots
    of its HNF basis."""
    v = dict(vector)
    for row in s.basis:
        pc = min(row)
        q, r = divmod(v.get(pc, 0), row[pc])
        if r != 0:
            return False
        if q:
            sub_scaled(v, q, row, s.ring)
    return not v


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
