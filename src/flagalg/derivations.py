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

    Row (i, j, k) is kept only for k in the supports of b_i b_j, A b_j and
    b_i A; zero and repeated rows are dropped.  A left-out row says that
    D(b_i b_j) has no b_k term, so the kernel contains Der(I^n), and
    `check_derivation` checks each kernel map against the full rule.
    """
    sc = structure_constants(ctx)
    ring = ctx.ring
    zero = ring.zero()
    d = ctx.dim
    # right-multiplication and left-multiplication sparse columns:
    # right_by_j[k] lists (q, c_{qj}^k); left_by_i[k] lists (q, c_{iq}^k)
    right = [dict() for _ in range(d)]  # j -> {k: [(q, c)]}
    left = [dict() for _ in range(d)]
    for (i, j), entry in sc.table.items():
        for k, c in entry:
            right[j].setdefault(k, []).append((i, c))
            left[i].setdefault(k, []).append((j, c))
    rows = []
    seen = set()
    for (i, j), entry in list(sc.table.items()) + [
        ((i, j), ())
        for i in range(d)
        for j in range(d)
        if (i, j) not in sc.table
    ]:
        ks = {k for k, _c in entry}
        ks.update(right[j].keys())
        ks.update(left[i].keys())
        for k in ks:
            row = {}

            def bump(col, val):
                nv = ring.add(row.get(col, zero), val)
                if nv == zero:
                    row.pop(col, None)
                else:
                    row[col] = nv

            for l, c in entry:
                bump(k * d + l, c)
            for q, c in right[j].get(k, ()):
                bump(q * d + i, ring.neg(c))
            for q, c in left[i].get(k, ()):
                bump(q * d + j, ring.neg(c))
            if row:
                key = tuple(sorted(row.items()))
                if key not in seen:
                    seen.add(key)
                    rows.append(row)
    return rows


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
    only the nonzero entries of T's columns are visited.
    """
    if t.dim != ctx.dim:
        raise ValueError(f"dimension mismatch: map is {t.dim}, algebra is {ctx.dim}")
    ring = ctx.ring
    zero = ring.zero()
    oracle = ctx.oracle_table().table
    cols = [col.items() for col in t.columns]
    for i in range(ctx.dim):
        for j in range(ctx.dim):
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
