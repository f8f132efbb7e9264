"""Reference for the reconstruction module.

`flagalg.reconstruction.reconstruct_poset` runs its two quotient stages
through one helper and checks C1*C2 <= C2 and A*C3 + C3*A <= C2 after the
cover stage, on complements.  The reference is the earlier pipeline: both
stage conditions checked on whole bases before the cover stage, the cover
stage skipped when rank C2 = rank C3, and separate guards for a duplicate
cover and for a cover relation that is not its own cover set.  The tests
compare the two on faulty tables: the same success or failure, and the same
poset and lifts on every success.
"""

from flagalg.lattice import IdealError, SplittingError, commutator_chain, primitive_idempotents, quotient
from flagalg.linalg import span
from flagalg.posets import Poset, PosetError
from flagalg.reconstruction import AbstractAlgebra, ReconstructionError
from flagalg.rings import CapabilityError


def reconstruct_poset_reference(a: AbstractAlgebra):
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
        table1, lift1 = quotient(sc, span(std, ring, d), c1)
    except IdealError:
        raise ReconstructionError("the commutator submodule is not an ideal")
    try:
        elem_idems = primitive_idempotents(table1)
    except SplittingError as exc:
        raise ReconstructionError(f"element quotient did not split: {exc}") from exc
    # order by leading coordinate so canonical input labels elements by the
    # position of e_(x,...,x) in the basis; ties by the lift itself, which
    # does not depend on the quotient's coordinates
    zero = ring.zero()
    elements = sorted(
        (lift1.apply(e) for e in elem_idems), key=lambda v: (min(v), [v.get(i, zero) for i in range(d)])
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
            table2, lift2 = quotient(sc, c2, c3)
            cover_idems = primitive_idempotents(table2)
        except IdealError as exc:
            raise ReconstructionError(f"C2/C3 is not a quotient algebra: {exc}")
        except SplittingError as exc:
            raise ReconstructionError(f"cover quotient did not split: {exc}") from exc
        for f in sorted((lift2.apply(e) for e in cover_idems), key=min):
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
