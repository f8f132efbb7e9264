"""All-pairs reference for the direct Leibniz check.

`flagalg.derivations.check_derivation` visits only the basis pairs whose
defect T(b_i b_j) - T(b_i) b_j - b_i T(b_j) can have a term; this check
visits all d^2 pairs, so the tests can compare the two verdicts.
"""

from flagalg.algebra import AlgebraContext
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
