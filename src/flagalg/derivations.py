"""R-linear derivations of I^n(P,R) as the kernel of the Leibniz system.

The unknowns are the d*d entries of the matrix of D in the canonical basis
(index p*d + q for entry D[p][q], i.e. D(b_q) = sum_p D[p][q] b_p).  One
vector equation per ordered basis pair expands into d scalar rows:

    sum_l c_{ij}^l D[k][l] - sum_q c_{qj}^k D[q][i] - sum_q c_{iq}^k D[q][j] = 0
"""

from __future__ import annotations

from .algebra import AlgebraContext, structure_constants
from .linalg import LinearMap, kernel
from .rings import CapabilityError


def leibniz_system(ctx: AlgebraContext):
    """Sparse rows, over the d^2 unknowns, of the system above.

    One pass over the pairs (i, j) in index order builds row (i, j, k) once
    for each k in the supports of A b_j and b_i A, which hold that of
    b_i b_j; zero and repeated rows are dropped.  A left-out row says that
    D(b_i b_j) has no b_k term, so the kernel contains Der(I^n), and
    `check_derivation` checks each kernel map against the full rule.
    """
    sc = structure_constants(ctx)
    ring = ctx.ring
    zero = ring.zero()
    d = ctx.dim
    # right[j][k] lists (q * d, -c_{qj}^k); left[i][k] lists (q * d, -c_{iq}^k)
    right = [{} for _ in range(d)]
    left = [{} for _ in range(d)]
    for (i, j), entry in sc.table.items():
        for k, c in entry:
            right[j].setdefault(k, []).append((i * d, ring.neg(c)))
            left[i].setdefault(k, []).append((j * d, ring.neg(c)))
    rows = {}  # the distinct rows as sorted terms, in first-seen order
    for i in range(d):
        for j in range(d):
            entry = sc.table.get((i, j), ())
            for k in right[j].keys() | left[i].keys():
                terms = [(k * d + l, c) for l, c in entry]
                for qd, c in right[j].get(k, ()):
                    terms.append((qd + i, c))
                for qd, c in left[i].get(k, ()):
                    terms.append((qd + j, c))
                if len(terms) > 1:  # a lone term is a nonzero table entry, or its negative
                    row = {}
                    for col, c in terms:
                        row[col] = ring.add(row.get(col, zero), c)
                    terms = sorted((col, c) for col, c in row.items() if c != zero)
                if terms:
                    rows[tuple(terms)] = None
    return [dict(key) for key in rows]


def derivation_basis(ctx: AlgebraContext):
    """Canonical basis of Der(I^n(P,R)) as LinearMaps (field or Z only)."""
    ring = ctx.ring
    if not ring.supports_submodules:
        raise CapabilityError(
            f"derivation kernels are computed over fields and Z only (got {ring.name})"
        )
    d = ctx.dim
    ker = kernel(leibniz_system(ctx), d * d, ring)
    out = []
    for vec in ker.basis:
        columns = [{} for _ in range(d)]
        for index, v in vec.items():
            p, q = divmod(index, d)
            columns[q][p] = v
        out.append(LinearMap(ring, columns))
    return out


def moved_basis_tuple(ctx: AlgebraContext, t: LinearMap):
    """The first basis tuple x with t(e_x) != 0, or None if t is zero.

    For n = 3 every derivation kills every basis element, so any such tuple
    names a theorem violation.
    """
    return next((ctx.basis[q] for q, col in enumerate(t.columns) if col), None)


def check_derivation(ctx: AlgebraContext, t: LinearMap) -> bool:
    """Direct Leibniz check T(b_i b_j) = T(b_i) b_j + b_i T(b_j) on all basis
    pairs, which by bilinearity is T(ab) = T(a)b + aT(b) for all a, b.

    Products are read off the context's convolution table, independently of
    the structure-constants table used to assemble the solver's system, and
    only the nonzero entries of T's columns are visited.  A pair (i, j) has
    a term only if b_i b_j != 0, or b_p b_j != 0 for some p in T's column i,
    or b_i b_p != 0 for some p in T's column j; no other pair is visited.
    """
    if t.dim != ctx.dim:
        raise ValueError(f"dimension mismatch: map is {t.dim}, algebra is {ctx.dim}")
    ring = ctx.ring
    zero = ring.zero()
    oracle = ctx.oracle_table().table
    cols = [col.items() for col in t.columns]
    holders = [[] for _ in range(ctx.dim)]  # holders[p]: the columns of T with a row-p entry
    for i, col in enumerate(cols):
        for p, _v in col:
            holders[p].append(i)
    pairs = set(oracle)
    for a, b in oracle:
        pairs.update([(i, b) for i in holders[a]] + [(a, j) for j in holders[b]])
    for i, j in pairs:
        # T(b_i b_j) - T(b_i) b_j - b_i T(b_j) as (scalar, sparse vector) terms
        terms = [(c, cols[k]) for k, c in oracle.get((i, j), ())]
        terms += [(ring.neg(v), oracle.get((p, j), ())) for p, v in cols[i]]
        terms += [(ring.neg(v), oracle.get((i, p), ())) for p, v in cols[j]]
        diff = {}
        for a, vec in terms:
            for q, c in vec:
                diff[q] = ring.add(diff.get(q, zero), ring.mul(a, c))
        if any(v != zero for v in diff.values()):
            return False
    return True
