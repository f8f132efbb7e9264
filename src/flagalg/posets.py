"""Finite posets: construction, intervals, chain lengths, multichains,
isomorphism/automorphism search and exhaustive generation of small posets.

Elements are dense integer indices 0..m-1; user-facing names live in a side
table on the Poset.
"""

from __future__ import annotations

from functools import lru_cache


class PosetError(Exception):
    pass


class InvalidIntervalError(PosetError):
    """Raised when an interval endpoint pair is not comparable."""


class Poset:
    """An immutable finite poset given by its full order relation.

    Attributes:
        size: number of elements
        leq:  tuple of row tuples of booleans, leq[x][y] iff x <= y
        covers: ordered pairs (x, y) with y covering x
        names: element names (defaults to str(index))
    """

    __slots__ = ("size", "leq", "covers", "names", "_heights")

    def __init__(self, leq, names=None):
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
                            raise PosetError(
                                f"relation is not transitive via {x}<={y}<={z}"
                            )
        self.size = m
        self.leq = leq
        self.names = tuple(names) if names is not None else tuple(str(i) for i in range(m))
        if len(self.names) != m:
            raise PosetError("names table length mismatch")
        covers = []
        for x in range(m):
            for y in range(m):
                if x != y and leq[x][y]:
                    if not any(
                        z != x and z != y and leq[x][z] and leq[z][y] for z in range(m)
                    ):
                        covers.append((x, y))
        self.covers = tuple(sorted(covers))
        self._heights = None

    @classmethod
    def from_covers(cls, size, cover_pairs, names=None):
        """Build from cover (or general relation) pairs via transitive closure."""
        leq = [[i == j for j in range(size)] for i in range(size)]
        for (x, y) in cover_pairs:
            leq[x][y] = True
        # Floyd-Warshall closure
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
        return cls(leq, names=names)

    def interval(self, x, y):
        """The set {z : x <= z <= y}; x <= y required."""
        if not self.leq[x][y]:
            raise InvalidIntervalError(f"{x} is not <= {y}")
        return {z for z in range(self.size) if self.leq[x][z] and self.leq[z][y]}

    def _chain_heights(self, elems):
        """For each z in elems, the longest cover chain within elems that
        ends at z (elems is an interval or all of P, so convex)."""
        best = {z: 0 for z in elems}
        for z in sorted(elems, key=lambda z: sum(self.leq[w][z] for w in elems)):
            for (a, b) in self.covers:
                if a == z and b in best:
                    best[b] = max(best[b], best[z] + 1)
        return best

    def length(self, x, y) -> int:
        """Longest-chain length within the interval [x, y]."""
        return self._chain_heights(self.interval(x, y))[y]  # validates x <= y

    def height(self, x) -> int:
        """Longest chain length from a minimal element up to x."""
        if self._heights is None:
            self._heights = self._chain_heights(range(self.size))
        return self._heights[x]

    def poset_length(self) -> int:
        """l(P): maximum chain length in P (0 for an antichain)."""
        return max((self.height(x) for x in range(self.size)), default=0)

    def is_antichain(self) -> bool:
        return not self.covers

    def multichains(self, n: int):
        """All weakly increasing n-tuples in lexicographic index order."""
        if n < 1:
            raise ValueError("n must be >= 1")
        chains = [(x,) for x in range(self.size)]
        for _ in range(n - 1):
            chains = [c + (y,) for c in chains for y in range(self.size) if self.leq[c[-1]][y]]
        return chains

    def count_multichains(self, n: int) -> int:
        """len(self.multichains(n)), by n - 1 passes over the leq rows."""
        if n < 1:
            raise ValueError("n must be >= 1")
        ends = [1] * self.size  # the chains so far that end at each element
        for _ in range(n - 1):
            ends = [sum(c for c, row in zip(ends, self.leq) if row[y]) for y in range(self.size)]
        return sum(ends)

    def _invariant(self, x):
        up = sum(self.leq[x][y] for y in range(self.size)) - 1
        down = sum(self.leq[y][x] for y in range(self.size)) - 1
        return (up, down, self.height(x))

    def canonical_key(self):
        """Isomorphism-invariant canonical encoding: the least integer with
        bit i*m + j = leq[perm[i]][perm[j]] over all perms."""
        return (self.size, _canonical_key(self.size, [_mask(row) for row in self.leq]))


def _mask(row):
    """The bitmask of the True entries of a row."""
    return sum(1 << y for y, v in enumerate(row) if v)


def _canonical_key(m: int, up):
    """The least key of the order with up-sets up[x] (bitmasks), filled row
    by row from the most significant, i = m-1, down.

    Row i reads perm[i]'s relations to the elements already placed (first
    placed most significant), then its own bit, then 0s exactly when perm[i]
    is maximal in the rest; an element above x reads no more than x, so only
    maximal elements can give the least row. Every state reaching the least
    rows is kept, and states with the same rest and readings have the same
    future, so the set dedupes them. The rest is an order ideal: a chain
    keeps one state per level, an antichain 2^m states in all."""
    key = 0
    states = {((1 << m) - 1, (0,) * m)}
    for i in reversed(range(m)):
        best, kept = 1 << m, set()  # above every reading
        for rest, reads in states:
            for x in range(m):
                if up[x] & rest != 1 << x or reads[x] > best:
                    continue  # x is placed, not maximal in the rest, or reads more
                if reads[x] < best:
                    best, kept = reads[x], set()
                left = rest & ~(1 << x)
                after = tuple(r << 1 | up[y] >> x & 1 if left >> y & 1 else 0 for y, r in enumerate(reads))
                kept.add((left, after))
        key |= (best << (i + 1) | 1 << i) << (i * m)
        states = kept
    return key


# the most elements a poset file may name, refused before the two m x m order
# matrices are built: an m-element poset has dim I^n >= m, `check` and
# `derivations` take dim at most 210, and on a 2-core VM parsing took 0.25 s
# for the 200-chain, 0.50 s for the 256-chain, 0.84 s for the 300-chain and
# 21.8 s for the 800-chain
MAX_POSET_SIZE = 256


def parse_poset(text: str) -> Poset:
    """Parse the line-oriented poset file format.

    Line 1: ``elements: <name> ...``; line 2: ``covers:``; then one
    ``<name> <name>`` pair per line (first covered by second).  Lines
    starting with '#' are ignored.  At most MAX_POSET_SIZE names.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("elements:"):
        raise PosetError("expected an 'elements:' line first")
    names = lines[0][len("elements:"):].split()
    if len(names) > MAX_POSET_SIZE:
        raise PosetError(f"the file names {len(names)} elements; at most {MAX_POSET_SIZE} are accepted")
    if len(set(names)) != len(names):
        raise PosetError("duplicate element name")
    index = {nm: i for i, nm in enumerate(names)}
    if len(lines) < 2 or lines[1] != "covers:":
        raise PosetError("expected a 'covers:' line")
    pairs = []
    seen = set()
    for ln in lines[2:]:
        toks = ln.split()
        if len(toks) != 2:
            raise PosetError(f"malformed cover line: {ln!r}")
        for t in toks:
            if t not in index:
                raise PosetError(f"undeclared element {t!r}")
        pair = (index[toks[0]], index[toks[1]])
        if pair in seen:
            raise PosetError(f"duplicate cover: {ln!r}")
        if pair[0] == pair[1]:
            raise PosetError(f"cycle detected: element {toks[0]!r} covers itself")
        seen.add(pair)
        pairs.append(pair)
    return Poset.from_covers(len(names), pairs, names=names)


def format_poset(p: Poset) -> str:
    lines = ["elements: " + " ".join(p.names), "covers:"]
    for (x, y) in p.covers:
        lines.append(f"{p.names[x]} {p.names[y]}")
    return "\n".join(lines) + "\n"


def _isomorphisms(p: Poset, q: Poset):
    """Every order isomorphism P -> Q as a list (phi[x] = image).

    Exhaustive backtracking pruned by (up-degree, down-degree, height).
    """
    if p.size != q.size:
        return
    m = p.size
    pinv = [p._invariant(x) for x in range(m)]
    qinv = [q._invariant(x) for x in range(m)]
    if sorted(pinv) != sorted(qinv):
        return
    candidates = [[y for y in range(m) if qinv[y] == pinv[x]] for x in range(m)]
    # assign in order of fewest candidates first
    order = sorted(range(m), key=lambda x: len(candidates[x]))
    phi = [None] * m
    used = [False] * m

    def backtrack(k):
        if k == m:
            yield list(phi)
            return
        x = order[k]
        for y in candidates[x]:
            if used[y]:
                continue
            ok = True
            for x2 in order[:k]:
                y2 = phi[x2]
                if p.leq[x][x2] != q.leq[y][y2] or p.leq[x2][x] != q.leq[y2][y]:
                    ok = False
                    break
            if ok:
                phi[x] = y
                used[y] = True
                yield from backtrack(k + 1)
                phi[x] = None
                used[y] = False

    yield from backtrack(0)


def find_isomorphism(p: Poset, q: Poset):
    """An order isomorphism P -> Q as a list (phi[x] = image), or None."""
    return next(_isomorphisms(p, q), None)


def automorphisms(p: Poset):
    """All order automorphisms of P, as permutation lists, sorted."""
    return sorted(_isomorphisms(p, p))


def is_order_isomorphism(p: Poset, q: Poset, phi) -> bool:
    if p.size != q.size or sorted(phi) != list(range(p.size)):
        return False
    return all(
        p.leq[x][y] == q.leq[phi[x]][phi[y]]
        for x in range(p.size)
        for y in range(p.size)
    )


MAX_ENUM_SIZE = 6


@lru_cache(maxsize=None)
def enumerate_posets(m: int):
    """One representative per isomorphism class of posets of size m (m <= 6).

    Representatives are built by extending each smaller representative with a
    new maximal element over every down-closed subset, then deduplicating by
    canonical form.  Every poset arises this way since removing a maximal
    element of a size-m poset leaves a size-(m-1) poset.  Keys are read off
    up-set bitmasks; only the first candidate of a class becomes a Poset.
    """
    if not 1 <= m <= MAX_ENUM_SIZE:
        raise ValueError(f"poset enumeration supports 1 <= m <= {MAX_ENUM_SIZE}")
    if m == 1:
        return (Poset([[True]]),)
    seen = {}
    for base in enumerate_posets(m - 1):
        k = base.size
        up = [_mask(row) for row in base.leq]
        for mask in range(1 << k):
            if any(up[x] & mask for x in range(k) if not mask >> x & 1):
                continue  # not down-closed
            key = _canonical_key(m, [u | (mask >> x & 1) << k for x, u in enumerate(up)] + [1 << k])
            if key not in seen:
                leq = [list(row) + [bool(mask >> x & 1)] for x, row in enumerate(base.leq)]
                seen[key] = Poset(leq + [[False] * k + [True]])
    return tuple(seen[key] for key in sorted(seen))


def chain(m: int) -> Poset:
    return Poset.from_covers(m, [(i, i + 1) for i in range(m - 1)])


def antichain(m: int) -> Poset:
    return Poset.from_covers(m, [])
