"""Command-line front door.

Commands: check, reconstruct, derivations, multiply, enumerate-posets.
JSON reports go to stdout (or --out); a human summary goes to stderr.
Exit codes: 0 all pass, 1 theorem violation, 2 input or capability error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .posets import PosetError, enumerate_posets, format_poset, parse_poset
from .rings import CapabilityError, ring_from_spec

# Each command imports the pipeline it runs, so a job compiles only the
# modules it needs when there is no bytecode cache.  It returns
# (exit code, report body, summary); `main` adds the envelope and prints.

EXIT_OK = 0
EXIT_THEOREM_VIOLATION = 1
EXIT_INPUT_ERROR = 2
MAX_FLAG_ORDER = 8  # the largest --n; like --all-up-to's 5, it keeps every basis small
# the largest algebra whose Leibniz system `derivations` and `check` (always I^3)
# solve: it grows faster than the dim, and on a 2-core VM the 7-chain took 3.7 s
# at --n 4 (dim 210), 13.5 s at --n 5
MAX_DERIVATION_DIM = 210


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as every other input error does: one `error: `
    line and exit 2, raised to `main` (subparsers inherit the class)."""

    def error(self, message):
        raise CliError(message)


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write report: {exc}")
    else:
        sys.stdout.write(text)


def _load_poset(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_poset(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read poset file: {exc}")
    except PosetError as exc:
        raise CliError(f"poset parse error: {exc}")


def _flag_context(args, max_dim=None):
    """The poset file's context at --n over --ring; max_dim refuses a larger one unbuilt."""
    from .algebra import AlgebraContext

    ring = ring_from_spec(args.ring)
    poset = _load_poset(args.poset)
    if args.n > MAX_FLAG_ORDER:
        raise CliError(f"--n must be at most {MAX_FLAG_ORDER}")
    if max_dim is not None and args.n >= 2 and (dim := poset.count_multichains(args.n)) > max_dim:
        raise CliError(f"derivations need dim at most {max_dim} (this algebra has dim {dim})")
    return AlgebraContext(poset, args.n, ring)


def cmd_check(args):
    from .suites import run_poset_suite

    if bool(args.poset) == (args.all_up_to is not None):
        raise CliError("check: give exactly one of a poset file or --all-up-to")
    ring = ring_from_spec(args.ring)
    if args.poset:
        poset = _load_poset(args.poset)
        dim = poset.count_multichains(3)
        if dim > MAX_DERIVATION_DIM:
            raise CliError(f"check needs dim at most {MAX_DERIVATION_DIM} (I^3 of this poset has dim {dim})")
        posets = [(os.path.basename(args.poset), poset)]
    else:
        m = args.all_up_to
        if not 1 <= m <= 5:
            raise CliError("--all-up-to must be between 1 and 5")
        posets = []
        for size in range(1, m + 1):
            for i, p in enumerate(enumerate_posets(size)):
                posets.append((f"size{size}-{i}", p))
    results = []
    for name, poset in posets:
        results.append(
            {
                "poset": name,
                "size": poset.size,
                "covers": [list(c) for c in poset.covers],
                "theorems": run_poset_suite(poset, ring, args.seed),
            }
        )
    statuses = [e["status"] for r in results for e in r["theorems"]]
    if "fail" in statuses:
        code = EXIT_THEOREM_VIOLATION
    elif "capability-skip" in statuses:
        code = EXIT_INPUT_ERROR
    else:
        code = EXIT_OK
    summary = (
        f"{len(results)} poset(s) over {ring.name}: "
        f"{statuses.count('pass')}/{len(statuses)} theorem checks passed"
    )
    return code, {"ring": ring.name, "seed": args.seed, "posets": results}, summary


def cmd_reconstruct(args):
    from .algebra import StructureConstants
    from .reconstruction import AbstractAlgebra, ReconstructionError, reconstruct_poset

    ring = ring_from_spec(args.ring)
    try:
        with open(args.table, encoding="utf-8") as fh:
            sc = StructureConstants.from_json(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read table: {exc}")
    except ValueError as exc:
        raise CliError(f"malformed structure constants JSON: {exc}")
    if sc.ring != ring:
        raise CliError(f"table ring {sc.ring.name} does not match --ring {ring.name}")
    try:
        poset, elements, cover_lifts = reconstruct_poset(AbstractAlgebra(sc))
    except ReconstructionError as exc:
        report = {"ring": ring.name, "status": "fail", "diagnostic": str(exc)}
        return EXIT_THEOREM_VIOLATION, report, f"FAILED: {exc}"

    def dense(vec):
        return [ring.format(vec.get(i, ring.zero())) for i in range(sc.dim)]

    report = {
        "ring": ring.name,
        "status": "ok",
        "size": poset.size,
        "covers": [list(c) for c in poset.covers],
        "element_idempotents": [dense(vec) for vec in elements],
        "cover_idempotents": [dense(vec) for vec in cover_lifts],
        "stage_ranks": {
            "dim": sc.dim,
            "elements": poset.size,
            "covers": len(poset.covers),
        },
    }
    summary = f"recovered a poset on {poset.size} elements with {len(poset.covers)} covers"
    return EXIT_OK, report, summary


def cmd_derivations(args):
    from .derivations import check_derivation, derivation_basis, moved_basis_tuple

    ctx = _flag_context(args, MAX_DERIVATION_DIM)
    basis = derivation_basis(ctx)
    violation = None
    if args.n == 3 and basis:
        # the theorem says the kernel is zero: report the first basis tuple
        # a kernel map moves, and whether that map passes the direct check
        violation = {
            "basis_tuple": list(moved_basis_tuple(ctx, basis[0])),
            "direct_check": "pass" if check_derivation(ctx, basis[0]) else "fail",
        }
    elif not all(check_derivation(ctx, t) for t in basis):
        raise CliError("internal error: kernel vector fails the direct check")
    fmt = ctx.ring.format
    report = {
        "ring": ctx.ring.name,
        "n": args.n,
        "dim": ctx.dim,
        "kernel_rank": len(basis),
        "basis": [[[fmt(v) for v in row] for row in t.matrix] for t in basis],
    }
    summary = f"n={args.n}, kernel rank {len(basis)}"
    if violation:
        report["status"] = "THEOREM VIOLATION"
        report["violation"] = violation
        summary += (
            " — THEOREM VIOLATION (expected 0 for n=3; a kernel map moves "
            f"e{tuple(violation['basis_tuple'])})"
        )
    elif args.n >= 4:
        report["warning"] = "n >= 4 is an unverified regime; no theorem is asserted"
    return (EXIT_THEOREM_VIOLATION if violation else EXIT_OK), report, summary


def _parse_element(ctx, text):
    """Read [[[x, ...], "scalar"], ...] as `from_json` reads a table: string
    scalars only, and no basis tuple twice."""
    try:
        data = json.loads(text)
        coeffs = {}
        for term in data if isinstance(data, list) else [data]:
            if not (isinstance(term, list) and len(term) == 2 and isinstance(term[1], str)):
                raise ValueError(f"term {json.dumps(term)} is not [[x, ...], \"scalar\"]")
            idx = ctx.index_of(term[0])
            if idx in coeffs:
                raise ValueError(f"duplicate basis tuple {term[0]}")
            coeffs[idx] = ctx.ring.parse(term[1])
        return coeffs
    except (ValueError, TypeError, RecursionError) as exc:
        raise CliError(f"malformed element (expected [[[x,y,z],\"scalar\"],...]): {exc}")


def cmd_multiply(args):
    from .algebra import convolve

    ctx = _flag_context(args)
    f = _parse_element(ctx, args.lhs)
    g = _parse_element(ctx, args.rhs)
    prod = convolve(ctx, f, g)
    report = {
        "ring": ctx.ring.name,
        "n": args.n,
        "product": [
            [list(ctx.basis[i]), ctx.ring.format(v)] for i, v in sorted(prod.items())
        ],
    }
    return EXIT_OK, report, f"product has {len(prod)} nonzero coefficients"


def cmd_enumerate_posets(args):
    if not 1 <= args.size <= 6:
        raise CliError("size must be between 1 and 6")
    posets = enumerate_posets(args.size)
    report = {"size": args.size, "count": len(posets), "posets": [format_poset(p) for p in posets]}
    return EXIT_OK, report, f"{len(posets)} classes of size {args.size}"


def build_parser():
    parser = _Parser(
        prog="flagalg",
        description="Exact computations in partial flag incidence algebras of finite posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the theorem battery")
    p.add_argument("poset", nargs="?", help="poset file")
    p.add_argument("--all-up-to", type=int, metavar="M", help="run on every poset of size 1..M")
    p.add_argument("--ring", default="Q")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reconstruct", help="recover a poset from structure constants JSON")
    p.add_argument("table", help="StructureConstants JSON file")
    p.add_argument("--ring", default="Q")
    p.add_argument("--seed", type=int, default=0, help="ignored: reconstruction is deterministic")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("derivations", help="compute the derivation module")
    p.add_argument("poset", help="poset file")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--ring", default="Q")
    p.add_argument("--out")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("multiply", help="multiply two serialized elements")
    p.add_argument("poset", help="poset file")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--ring", default="Q")
    p.add_argument("--lhs", required=True, help='element JSON, e.g. [[[0,0,1],"1"]]')
    p.add_argument("--rhs", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("enumerate-posets", help="list non-isomorphic posets of a given size")
    p.add_argument("size", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate_posets)

    return parser


def main(argv=None) -> int:
    """Run one command, write its report under the common envelope, print
    `<command>: <summary>` and return the command's exit code."""
    try:
        args = build_parser().parse_args(argv)
        code, body, summary = args.func(args)
        _emit({"artifact_version": __version__, "command": args.command, **body}, args.out)
    except (CliError, CapabilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"{args.command}: {summary}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
