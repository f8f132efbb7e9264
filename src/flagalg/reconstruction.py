"""Recover a poset from anonymous structure constants of its third flag
algebra, and realize/verify the isomorphisms induced by poset maps.
"""

from __future__ import annotations

import random

from .algebra import AlgebraContext, StructureConstants, structure_constants
from .lattice import IdealError, SplittingError, commutator_chain, primitive_idempotents, quotient
from .linalg import LinearMap, span, sub_scaled
from .posets import Poset, PosetError, is_order_isomorphism
from .rings import CapabilityError


class ReconstructionError(Exception):
    """The input does not behave like a third flag algebra."""


class AbstractAlgebra:
    """Structure constants with no poset attached, over an indecomposable ring."""

    def __init__(self, sc: StructureConstants):
        ring = sc.ring
        if not ring.is_indecomposable:
            raise CapabilityError(
                f"{ring.name} is decomposable; reconstruction theory requires an "
                "indecomposable coefficient ring"
            )
        self.sc = sc


def reconstruct_poset(a: AbstractAlgebra):
    """Recover (Poset, element idempotent lifts, cover idempotent lifts).

    Pipeline: commutator submodule C1; primitive idempotents of A/C1 are the
    elements; C2 = [C1,C1] and C3 = [C2,C2]; primitive idempotents of C2/C3
    are the covers; endpoints attach via products landing outside C2; the
    order is the reflexive-transitive closure of the covers.
    """
    sc = a.sc
    ring = sc.ring
    if not ring.is_field:
        raise CapabilityError(
            f"reconstruction requires a field (got {ring.name}); re-run over Q"
        )
    d = sc.dim
    # A*A = A in every third flag algebra (e_(x,y,z) = e_(x,y,y) e_(y,y,z))
    # and A*A is spanned by the table's entries
    if len(sc.table) < d:
        raise ReconstructionError(
            f"the table has {len(sc.table)} nonzero products for dim {d}: A*A != A, unlike any third flag algebra"
        )
    c1, c2, c3 = commutator_chain(sc)
    std = [{i: ring.one()} for i in range(d)]
    try:
        q1 = quotient(sc, span(std, ring, d), c1)
    except IdealError:
        raise ReconstructionError("the commutator submodule is not an ideal")
    try:
        elem_idems = primitive_idempotents(q1.sc)
    except SplittingError as exc:
        raise ReconstructionError(f"element quotient did not split: {exc}") from exc
    # order by leading coordinate so canonical input labels elements by the
    # position of e_(x,...,x) in the basis; ties by the lift itself, which
    # does not depend on the quotient's coordinates
    zero = ring.zero()
    elements = sorted(
        (q1.lift(e) for e in elem_idems), key=lambda v: (min(v), [v.get(i, zero) for i in range(d)])
    )
    m = len(elements)

    # pipeline self-checks: C1*C2 <= C2 and A*C3 <= C2 make the endpoint
    # attachment independent of the choice of lifts
    for u in c1.basis:
        for v in c2.basis:
            if not c2.contains(sc.multiply(u, v)):
                raise ReconstructionError("C1*C2 is not contained in C2")
    for u in std:
        for v in c3.basis:
            if not c2.contains(sc.multiply(u, v)):
                raise ReconstructionError("A*C3 is not contained in C2")
            if not c2.contains(sc.multiply(v, u)):
                raise ReconstructionError("C3*A is not contained in C2")

    covers = []
    cover_lifts = []
    if c2.rank > c3.rank:
        try:
            q2 = quotient(sc, c2, c3)
            cover_idems = primitive_idempotents(q2.sc)
        except IdealError as exc:
            raise ReconstructionError(f"C2/C3 is not a quotient algebra: {exc}")
        except SplittingError as exc:
            raise ReconstructionError(f"cover quotient did not split: {exc}") from exc
        for f in sorted((q2.lift(e) for e in cover_idems), key=min):
            src = [x for x in range(m) if not c2.contains(sc.multiply(elements[x], f))]
            tgt = [y for y in range(m) if not c2.contains(sc.multiply(f, elements[y]))]
            if len(src) != 1 or len(tgt) != 1 or src == tgt:
                raise ReconstructionError(
                    "cover endpoint attachment is not unique; input is not a "
                    "third flag algebra"
                )
            covers.append((src[0], tgt[0]))
            cover_lifts.append(f)

    if len(set(covers)) != len(covers):
        raise ReconstructionError("duplicate cover recovered")
    try:
        poset = Poset.from_covers(m, covers)
    except PosetError as exc:
        raise ReconstructionError(f"cover closure is not a partial order: {exc}")
    if set(poset.covers) != set(covers):
        raise ReconstructionError("recovered cover relation is not its own cover set")
    chains = len(poset.multichains(3))
    if chains != d:
        raise ReconstructionError(
            f"the recovered poset has {chains} 3-multichain(s), so its third flag algebra has dim "
            f"{chains}, not the table's {d}"
        )
    return poset, elements, cover_lifts


def scramble(ctx: AlgebraContext, seed: int) -> AbstractAlgebra:
    """Structure constants of the context conjugated by a seeded random
    invertible map.

    The map is a product of random shears, transpositions, sign flips and a
    few small diagonal scalings, so it is guaranteed invertible and keeps
    the table entries small.
    """
    ring = ctx.ring
    if not ring.is_field:
        raise CapabilityError("scramble requires field coefficients")
    d = ctx.dim
    rng = random.Random(seed)
    t = [{i: ring.one()} for i in range(d)]  # the map's rows

    def shear(i, j, c):
        # row_i += c * row_j
        sub_scaled(t[i], ring.neg(c), t[j], ring)

    for _ in range(2 * d):
        kind = rng.randrange(4)
        if d == 1:
            kind = 3
        if kind == 0:
            i, j = rng.sample(range(d), 2)
            shear(i, j, ring.coerce(rng.choice([-2, -1, 1, 2])))
        elif kind == 1:
            i, j = rng.sample(range(d), 2)
            t[i], t[j] = t[j], t[i]
        elif kind == 2:
            i = rng.randrange(d)
            t[i] = {k: ring.neg(x) for k, x in t[i].items()}
        else:
            i = rng.randrange(d)
            c = ring.coerce(rng.choice([2, 3]))
            if ring.name == "Q" and rng.random() < 0.5:
                c = ring.inv(c)
            if c:
                t[i] = {k: ring.mul(c, x) for k, x in t[i].items()}
    columns = [{} for _ in range(d)]
    for i, row in enumerate(t):
        for j, x in row.items():
            columns[j][i] = x
    return conjugate_table(ctx, LinearMap(ring, columns))


def conjugate_table(ctx: AlgebraContext, t: LinearMap) -> AbstractAlgebra:
    """Express the algebra in the basis {T b_k}: c'_{ij} solves
    (T b_i)(T b_j) = sum_k c'_{ij}^k (T b_k), read off as the coords of the
    product reduced against T's tagged columns."""
    ech = t.column_echelon()
    if ech is None:
        raise ValueError("conjugating map is singular")
    return AbstractAlgebra(structure_constants(ctx).rebase(ech, t.columns))


def induced_isomorphism(phi, ctx_p: AlgebraContext, ctx_q: AlgebraContext) -> LinearMap:
    """The basis permutation e_(x,y,z) -> e_(phi x, phi y, phi z)."""
    if ctx_p.ring != ctx_q.ring:
        raise ValueError("contexts use different rings")
    if ctx_p.n != ctx_q.n:
        raise ValueError("contexts have different flag orders")
    if not is_order_isomorphism(ctx_p.poset, ctx_q.poset, phi):
        raise ValueError("phi is not an order isomorphism")
    one = ctx_p.ring.one()
    return LinearMap(ctx_p.ring, [{ctx_q.index[tuple(phi[x] for x in tup)]: one} for tup in ctx_p.basis])


def is_algebra_isomorphism(t: LinearMap, sa: StructureConstants, sb: StructureConstants) -> bool:
    """True iff T is invertible and multiplicative from table A to table B."""
    if sa.ring != sb.ring or sa.ring != t.ring:
        raise ValueError("ring mismatch")
    if sa.dim != sb.dim or t.dim != sa.dim:
        raise ValueError(
            f"dimension mismatch: {sa.dim} vs {sb.dim} (map is {t.dim})"
        )
    ech = t.column_echelon()
    if ech is None:
        return False
    # T is multiplicative iff T^-1 ((T b_i)(T b_j)) = b_i b_j for all i, j
    return sb.rebase(ech, t.columns).table == sa.table
