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
from .reconstruction import AbstractAlgebra, ReconstructionError, reconstruct_poset, scramble
from .rings import Ring


def _entry(theorem, status, detail=None):
    e = {"theorem": theorem, "status": status}
    if detail is not None:
        e["detail" if status != "fail" else "counterexample"] = detail
    return e


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
    entries.append(
        _entry("product-closed-form", "fail" if bad else "pass", bad)
    )

    if poset.is_antichain():
        e = [ctx.basis_element(x) for x in basis]
        mul = oracle.multiply
        ok = all(mul(mul(a, b), c) == mul(a, mul(b, c)) for a in e for b in e for c in e)
        entries.append(_entry("power-associativity", "pass" if ok else "fail"))
    else:
        witness = power_assoc_witness(ctx)
        if witness is None:
            entries.append(
                _entry("power-associativity", "fail", "third-power associativity held unexpectedly")
            )
        else:
            entries.append(
                _entry("power-associativity", "pass", {"witness": sorted(witness)})
            )

    if ring.is_field:
        if poset.is_antichain():
            entries.append(_entry("no-one-sided-identity", "pass", "antichain: unital"))
        else:
            left = sc.identity("left") is not None
            right = sc.identity("right") is not None
            entries.append(
                _entry(
                    "no-one-sided-identity",
                    "fail" if (left or right) else "pass",
                    {"left": left, "right": right} if (left or right) else None,
                )
            )
    else:
        entries.append(
            _capability("no-one-sided-identity", "feasibility check needs a field")
        )
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
    entries.append(
        _entry(
            "commutator-is-J1",
            "pass" if c1 == j1 else "fail",
            None if c1 == j1 else {"rank_C1": c1.rank, "rank_J1": j1.rank},
        )
    )
    # C2 = span{e_xxy + e_xyy : l(x,y) = 1} + J^3_2
    one = ring.one()
    gens = list(j2.basis)
    gens += [{ctx.index[(x, x, y)]: one, ctx.index[(x, y, y)]: one} for (x, y) in poset.covers]
    rhs = span(gens, ring, ctx.dim)
    c1sq = mul_submodule(sc, c1, c1)
    ok2 = c2 == rhs and c1sq == rhs
    entries.append(
        _entry(
            "zchain-C2-span",
            "pass" if ok2 else "fail",
            None if ok2 else {"rank_C2": c2.rank, "rank_span": rhs.rank, "rank_C1sq": c1sq.rank},
        )
    )
    ok3 = c3 == j2
    entries.append(
        _entry(
            "zchain-C3-is-J2",
            "pass" if ok3 else "fail",
            None if ok3 else {"rank_C3": c3.rank, "rank_J2": j2.rank},
        )
    )
    return entries


def suite_reconstruction(ctx: AlgebraContext, seed: int):
    """idempotent-counts and reconstruction-roundtrip from one reconstruction
    of the plain table and one of a scrambled table."""
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
    counts = None
    try:
        recovered, elements, cover_lifts = reconstruct_poset(AbstractAlgebra.from_context(ctx))
        ok = len(elements) == poset.size and len(cover_lifts) == len(poset.covers)
        detail = {
            "elements": len(elements),
            "expected_elements": poset.size,
            "covers": len(cover_lifts),
            "expected_covers": len(poset.covers),
        }
        counts = _entry(theorems[0], "pass" if ok else "fail", None if ok else detail)
        if set(recovered.covers) != set(poset.covers):
            detail = {"expected_covers": list(poset.covers), "got": list(recovered.covers)}
            return [counts, _entry(theorems[1], "fail", detail)]
        rec2, _, _ = reconstruct_poset(scramble(ctx, seed))
    except ReconstructionError as exc:
        # a flag algebra always splits, so a splitting failure is a fail as well
        failed = {"diagnostic": str(exc)}
        return [counts or _entry(theorems[0], "fail", failed), _entry(theorems[1], "fail", failed)]
    if find_isomorphism(rec2, poset) is None:
        detail = {"scrambled_covers": list(rec2.covers), "expected_covers": list(poset.covers)}
        return [counts, _entry(theorems[1], "fail", detail)]
    return [counts, _entry(theorems[1], "pass")]


def suite_derivations(ctx: AlgebraContext):
    theorem = "derivations-trivial-n3"
    if not ctx.ring.supports_submodules:
        return [_capability(theorem, f"kernel computation unsupported over {ctx.ring.name}")]
    basis = derivation_basis(ctx)
    if basis:
        moved = list(moved_basis_tuple(ctx, basis[0]))
        return [_entry(theorem, "fail", {"kernel_rank": len(basis), "basis_tuple": moved})]
    return [_entry(theorem, "pass")]


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
