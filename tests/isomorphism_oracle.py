"""Brute-force reference for algebra isomorphisms over F_2.

The library decides isomorphism of third flag algebras by recovering the
posets; this scan checks that answer independently, by trying every matrix.
"""

from flagalg.algebra import StructureConstants
from flagalg.linalg import LinearMap
from flagalg.rings import CapabilityError

MAX_EXHAUSTIVE_DIM = 4


def enumerate_isomorphisms_exhaustive(sa: StructureConstants, sb: StructureConstants):
    """All algebra isomorphisms from table A to table B over F_2 by brute
    force (dim <= 4).

    Scans all 2^(d^2) candidate matrices using bitmask arithmetic.
    """
    ring = sa.ring
    if ring != sb.ring or ring.name != "Fp:2":
        raise CapabilityError("exhaustive scan is supported over F_2 only")
    if sa.dim != sb.dim:
        return []
    d = sa.dim
    if d > MAX_EXHAUSTIVE_DIM:
        raise CapabilityError(
            f"exhaustive scan budget is dim <= {MAX_EXHAUSTIVE_DIM} (got {d})"
        )
    # bitmask tables: product of basis i, j as a d-bit mask
    amask = [[0] * d for _ in range(d)]
    bmask = [[0] * d for _ in range(d)]
    for (i, j), entry in sa.table.items():
        for k, c in entry:
            if c:
                amask[i][j] |= 1 << k
    for (i, j), entry in sb.table.items():
        for k, c in entry:
            if c:
                bmask[i][j] |= 1 << k

    def mul_b(u, v):
        w = 0
        for i in range(d):
            if u >> i & 1:
                row = bmask[i]
                for j in range(d):
                    if v >> j & 1:
                        w ^= row[j]
        return w

    found = []
    one = ring.one()
    for code in range(1 << (d * d)):
        cols = [(code >> (d * i)) & ((1 << d) - 1) for i in range(d)]

        def apply_t(mask):
            w = 0
            for i in range(d):
                if mask >> i & 1:
                    w ^= cols[i]
            return w

        multiplicative = all(
            apply_t(amask[i][j]) == mul_b(cols[i], cols[j]) for i in range(d) for j in range(d)
        )
        if multiplicative:
            t = LinearMap(ring, [{r: one for r in range(d) if cols[j] >> r & 1} for j in range(d)])
            if t.column_echelon() is not None:
                found.append(t)
    return found
