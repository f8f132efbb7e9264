"""References for the derivations module.

`flagalg.derivations.check_derivation` visits only the basis pairs whose
defect T(b_i b_j) - T(b_i) b_j - b_i T(b_j) can have a term; this check
visits all d^2 pairs, so the tests can compare the two verdicts.

`flagalg.derivations.leibniz_system` builds its rows in one pass over the
basis pairs in index order; the reference builds the same rows the earlier
way, table pairs first and then a list of the absent pairs, so the tests can
compare the two row sets.
"""

from flagalg.algebra import AlgebraContext, structure_constants
from flagalg.linalg import LinearMap


def check_derivation_all_pairs(ctx: AlgebraContext, t: LinearMap) -> bool:
    """T(b_i b_j) = T(b_i) b_j + b_i T(b_j) on every basis pair, with the
    products read off the context's convolution table."""
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


def leibniz_system_reference(ctx: AlgebraContext):
    """Sparse rows, over the d^2 unknowns, of the Leibniz system in
    `flagalg.derivations`.

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
