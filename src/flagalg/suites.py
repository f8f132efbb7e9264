"""Theorem battery run by the CLI `check` command.

Each suite returns a list of report entries; an entry always carries the
theorem id, a pass/fail/capability-skip status and, on failure, a
serialized counterexample.
"""

from __future__ import annotations

from .algebra import (
    AlgebraContext,
    basis_product,
    convolve,
    power_assoc_witness,
    structure_constants,
)
from .derivations import derivation_basis, moved_basis_tuple
from .lattice import (
    AlgebraSubmodule,
    SplittingError,
    full_module,
    ideal_J,
    mul_submodule,
    primitive_idempotents,
    quotient,
    z_chain,
)
from .linalg import span
from .posets import Poset, find_isomorphism
from .reconstruction import AbstractAlgebra, reconstruct_poset, scramble
from .rings import CapabilityError, Ring


def _entry(theorem, status, detail=None):
    e = {"theorem": theorem, "status": status}
    if detail is not None:
        e["detail" if status != "fail" else "counterexample"] = detail
    return e


def _capability(theorem, exc):
    return _entry(theorem, "capability-skip", str(exc))


def suite_flag_algebra(poset: Poset, ring: Ring, n: int = 3):
    entries = []
    ctx = AlgebraContext(poset, n, ring)
    bad = None
    for i, x in enumerate(ctx.basis):
        ex = ctx.basis_element(x)
        for j, y in enumerate(ctx.basis):
            if basis_product(ctx, x, y) != convolve(ex, ctx.basis_element(y)):
                bad = [list(x), list(y)]
                break
        if bad:
            break
    entries.append(
        _entry("product-closed-form", "fail" if bad else "pass", bad)
    )

    if poset.is_antichain():
        ok = True
        for x in ctx.basis:
            ex = ctx.basis_element(x)
            for y in ctx.basis:
                ey = ctx.basis_element(y)
                for z in ctx.basis:
                    ez = ctx.basis_element(z)
                    if convolve(convolve(ex, ey), ez) != convolve(ex, convolve(ey, ez)):
                        ok = False
        entries.append(_entry("power-associativity", "pass" if ok else "fail"))
    else:
        witness = power_assoc_witness(ctx)
        if witness is None:
            entries.append(
                _entry("power-associativity", "fail", "third-power associativity held unexpectedly")
            )
        else:
            entries.append(
                _entry("power-associativity", "pass", {"witness": sorted(witness.coeffs)})
            )

    if ring.is_field:
        if poset.is_antichain():
            entries.append(_entry("no-one-sided-identity", "pass", "antichain: unital"))
        else:
            sc = structure_constants(ctx)
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


def suite_submodules(poset: Poset, ring: Ring):
    theorems = ["commutator-is-J1", "zchain-C2-span", "zchain-C3-is-J2", "idempotent-counts"]
    entries = []
    if not ring.supports_submodules:
        return [_capability(t, f"submodule computations unsupported over {ring.name}") for t in theorems]
    ctx = AlgebraContext(poset, 3, ring)
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
    zero = ring.zero()
    gens = [list(r) for r in j2.basis]
    for (x, y) in poset.covers:
        v = [zero] * ctx.dim
        v[ctx.index[(x, x, y)]] = one
        v[ctx.index[(x, y, y)]] = one
        gens.append(v)
    rhs = AlgebraSubmodule(ctx, span(gens, ring, ctx.dim))
    c1sq = mul_submodule(c1, c1)
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
    if not ring.is_field:
        entries.append(_capability("idempotent-counts", "idempotent splitting needs a field"))
        return entries
    try:
        a = full_module(ctx)
        q1 = quotient(a, c1)
        n_elems = len(primitive_idempotents(q1))
        if c2.rank > c3.rank:
            q2 = quotient(c2, c3)
            n_covers = len(primitive_idempotents(q2))
        else:
            n_covers = 0
        ok = n_elems == poset.size and n_covers == len(poset.covers)
        entries.append(
            _entry(
                "idempotent-counts",
                "pass" if ok else "fail",
                None
                if ok
                else {
                    "elements": n_elems,
                    "expected_elements": poset.size,
                    "covers": n_covers,
                    "expected_covers": len(poset.covers),
                },
            )
        )
    except (SplittingError, CapabilityError) as exc:
        entries.append(_capability("idempotent-counts", exc))
    return entries


def suite_reconstruction(poset: Poset, ring: Ring, seed: int):
    theorem = "reconstruction-roundtrip"
    if not ring.is_field:
        return [_capability(theorem, f"reconstruction requires a field (got {ring.name})")]
    ctx = AlgebraContext(poset, 3, ring)
    a = AbstractAlgebra.from_context(ctx)
    recovered, _, _ = reconstruct_poset(a, seed=seed)
    if set(recovered.covers) != set(poset.covers):
        return [
            _entry(
                theorem,
                "fail",
                {"expected_covers": list(poset.covers), "got": list(recovered.covers)},
            )
        ]
    scrambled = scramble(ctx, seed)
    rec2, _, _ = reconstruct_poset(scrambled, seed=seed)
    if find_isomorphism(rec2, poset) is None:
        return [
            _entry(
                theorem,
                "fail",
                {"scrambled_covers": list(rec2.covers), "expected_covers": list(poset.covers)},
            )
        ]
    return [_entry(theorem, "pass")]


def suite_derivations(poset: Poset, ring: Ring):
    theorem = "derivations-trivial-n3"
    if not ring.supports_submodules:
        return [_capability(theorem, f"kernel computation unsupported over {ring.name}")]
    ctx = AlgebraContext(poset, 3, ring)
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
    entries = []
    entries += suite_flag_algebra(poset, ring)
    entries += suite_submodules(poset, ring)
    entries += suite_reconstruction(poset, ring, seed)
    entries += suite_derivations(poset, ring)
    assert [e["theorem"] for e in entries] == ALL_THEOREMS
    return entries
