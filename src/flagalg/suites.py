"""Theorem battery run by the CLI `check` command.

Each suite returns a list of report entries; an entry always carries the
theorem id, a pass/fail/capability-skip status and, on failure, a
serialized counterexample.
"""

from __future__ import annotations

from .algebra import AlgebraContext, power_assoc_witness, structure_constants
from .derivations import derivation_basis, moved_basis_tuple
from .lattice import ideal_J, mul_submodule, z_chain
from .linalg import span
from .posets import Poset, find_isomorphism
from .reconstruction import ReconstructionError, reconstruct_poset, scramble
from .rings import Ring


def _entry(theorem, status, detail=None):
    e = {"theorem": theorem, "status": status}
    if detail is not None:
        e["detail" if status != "fail" else "counterexample"] = detail
    return e


def _verdict(theorem, ok, counterexample=None):
    """A pass, or a fail with the counterexample; a pass never carries one."""
    return _entry(theorem, "pass" if ok else "fail", None if ok else counterexample)


def _capability(theorem, exc):
    return _entry(theorem, "capability-skip", str(exc))


def suite_flag_algebra(ctx: AlgebraContext):
    entries = []
    poset, ring, basis = ctx.poset, ctx.ring, ctx.basis
    oracle = ctx.oracle_table()
    # the table the lattice, the quotients and reconstruction multiply with
    sc = structure_constants(ctx)
    bad = next(
        (
            [list(basis[i]), list(basis[j])]
            for (i, j) in sorted(oracle.table.keys() | sc.table.keys())
            if sc.table.get((i, j)) != oracle.table.get((i, j))
        ),
        None,
    )
    entries.append(_verdict("product-closed-form", not bad, bad))

    if poset.is_antichain():
        # (ab)c = 0 = a(bc) when ab = 0 = bc, so only the triples with a
        # nonzero product in the oracle table are multiplied
        e = [ctx.basis_element(x) for x in basis]
        mul = oracle.multiply
        triples = {(i, j, k) for i, j in oracle.table for k in range(ctx.dim)}
        triples |= {(i, j, k) for j, k in oracle.table for i in range(ctx.dim)}
        ok = all(mul(mul(e[i], e[j]), e[k]) == mul(e[i], mul(e[j], e[k])) for i, j, k in triples)
        entries.append(_verdict("power-associativity", ok))
    elif (witness := power_assoc_witness(ctx)) is None:
        entries.append(_verdict("power-associativity", False, "third-power associativity held unexpectedly"))
    else:
        entries.append(_entry("power-associativity", "pass", {"witness": sorted(witness)}))

    if not ring.is_field:
        entries.append(_capability("no-one-sided-identity", "feasibility check needs a field"))
    elif poset.is_antichain():
        entries.append(_entry("no-one-sided-identity", "pass", "antichain: unital"))
    else:
        sided = {side: sc.identity(side) is not None for side in ("left", "right")}
        entries.append(_verdict("no-one-sided-identity", not any(sided.values()), sided))
    return entries


def suite_submodules(ctx: AlgebraContext):
    theorems = ["commutator-is-J1", "zchain-C2-span", "zchain-C3-is-J2"]
    entries = []
    poset, ring = ctx.poset, ctx.ring
    if not ring.supports_submodules:
        return [_capability(t, f"submodule computations unsupported over {ring.name}") for t in theorems]
    sc = structure_constants(ctx)
    c1, c2, c3 = z_chain(ctx)
    j1 = ideal_J(ctx, 1)
    j2 = ideal_J(ctx, 2)
    entries.append(_verdict("commutator-is-J1", c1 == j1, {"rank_C1": c1.rank, "rank_J1": j1.rank}))
    # C2 = span{e_xxy + e_xyy : l(x,y) = 1} + J^3_2
    one = ring.one()
    gens = list(j2.basis)
    gens += [{ctx.index[(x, x, y)]: one, ctx.index[(x, y, y)]: one} for (x, y) in poset.covers]
    rhs = span(gens, ring, ctx.dim)
    c1sq = mul_submodule(sc, c1, c1)
    ok2 = c2 == rhs and c1sq == rhs
    entries.append(
        _verdict("zchain-C2-span", ok2, {"rank_C2": c2.rank, "rank_span": rhs.rank, "rank_C1sq": c1sq.rank})
    )
    entries.append(_verdict("zchain-C3-is-J2", c3 == j2, {"rank_C3": c3.rank, "rank_J2": j2.rank}))
    return entries


def suite_reconstruction(ctx: AlgebraContext, seed: int):
    """idempotent-counts and reconstruction-roundtrip from one reconstruction
    of a scrambled table, whose recovered poset must be isomorphic to P."""
    theorems = ["idempotent-counts", "reconstruction-roundtrip"]
    poset, ring = ctx.poset, ctx.ring
    if not ring.is_field:
        return [
            _capability(
                theorems[0],
                "idempotent splitting needs a field"
                if ring.supports_submodules
                else f"submodule computations unsupported over {ring.name}",
            ),
            _capability(theorems[1], f"reconstruction requires a field (got {ring.name})"),
        ]
    try:
        recovered, elements, cover_lifts = reconstruct_poset(scramble(ctx, seed))
    except ReconstructionError as exc:
        # a flag algebra always splits, so a splitting failure is a fail as well
        failed = {"diagnostic": str(exc)}
        return [_verdict(t, False, failed) for t in theorems]
    ok = len(elements) == poset.size and len(cover_lifts) == len(poset.covers)
    detail = {
        "elements": len(elements),
        "expected_elements": poset.size,
        "covers": len(cover_lifts),
        "expected_covers": len(poset.covers),
    }
    iso = find_isomorphism(recovered, poset)
    mismatch = {"scrambled_covers": list(recovered.covers), "expected_covers": list(poset.covers)}
    return [_verdict(theorems[0], ok, detail), _verdict(theorems[1], iso is not None, mismatch)]


def suite_derivations(ctx: AlgebraContext):
    theorem = "derivations-trivial-n3"
    if not ctx.ring.supports_submodules:
        return [_capability(theorem, f"kernel computation unsupported over {ctx.ring.name}")]
    basis = derivation_basis(ctx)
    if basis:
        moved = list(moved_basis_tuple(ctx, basis[0]))
        return [_verdict(theorem, False, {"kernel_rank": len(basis), "basis_tuple": moved})]
    return [_verdict(theorem, True)]


ALL_THEOREMS = [
    "product-closed-form",
    "power-associativity",
    "no-one-sided-identity",
    "commutator-is-J1",
    "zchain-C2-span",
    "zchain-C3-is-J2",
    "idempotent-counts",
    "reconstruction-roundtrip",
    "derivations-trivial-n3",
]


def run_poset_suite(poset: Poset, ring: Ring, seed: int):
    ctx = AlgebraContext(poset, 3, ring)
    entries = []
    entries += suite_flag_algebra(ctx)
    entries += suite_submodules(ctx)
    entries += suite_reconstruction(ctx, seed)
    entries += suite_derivations(ctx)
    assert [e["theorem"] for e in entries] == ALL_THEOREMS
    return entries
