"""Self-test of the reference checker: right answers pass, corrupted ones fail.

Usage: python3 perfbench/selftest.py

run.py also calls ``run()`` before every benchmark run and refuses to
measure if a corrupted answer would not be counted as failed.
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import THEOREMS, judge  # noqa: E402

# a crown (2+2 with all four relations): its order complex is a circle, so
# b1 = 1 and Der(I(P)) has rank d - c + b1 = 8 - 1 + 1
CROWN = "elements: a b c d\ncovers:\na c\na d\nb c\nb d\n"
CROWN_COVERS = [[0, 2], [0, 3], [1, 2], [1, 3]]


def _cases(poset_path):
    """(job, exit code, report, should pass) for right and corrupted answers."""
    check = {"kind": "check", "poset": poset_path, "ring": "Q"}
    good_check = {
        "ring": "Q",
        "posets": [
            {
                "size": 4,
                "covers": CROWN_COVERS,
                "theorems": [{"theorem": t, "status": "pass"} for t in THEOREMS],
            }
        ],
    }
    failed_theorem = json.loads(json.dumps(good_check))
    failed_theorem["posets"][0]["theorems"][3]["status"] = "fail"
    wrong_poset = json.loads(json.dumps(good_check))
    wrong_poset["posets"][0]["covers"] = CROWN_COVERS[:3]

    recon = {"kind": "reconstruct", "poset": poset_path, "ring": "Q"}
    # the crown with a, b, c, d renamed 2, 3, 0, 1
    relabelled = {"ring": "Q", "status": "ok", "size": 4, "covers": [[3, 0], [3, 1], [2, 0], [2, 1]]}
    not_iso = dict(relabelled, covers=[[3, 0], [3, 1], [2, 0]])

    deriv = {"kind": "derivations", "poset": poset_path, "ring": "Q"}
    good_deriv = {"ring": "Q", "n": 2, "dim": 8, "kernel_rank": 8, "basis": [[]] * 8}
    rank_off = dict(good_deriv, kernel_rank=7, basis=[[]] * 7)

    enum = {"kind": "enumerate", "size": 6}
    good_enum = {"count": 318, "posets": ["p"] * 318}
    short_enum = {"count": 317, "posets": ["p"] * 317}

    return [
        (check, 0, good_check, True),
        (check, 0, failed_theorem, False),
        (check, 0, wrong_poset, False),
        (check, 1, good_check, False),
        (recon, 0, relabelled, True),
        (recon, 0, not_iso, False),
        (deriv, 0, good_deriv, True),
        (deriv, 0, rank_off, False),
        (enum, 0, good_enum, True),
        (enum, 0, short_enum, False),
    ]


def run(parent):
    """Return a list of problems; empty when the checker behaves.  A poset
    file is written to a temporary directory under `parent`."""
    problems = []
    os.makedirs(parent, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=parent) as tmp:
        path = os.path.join(tmp, "crown.poset")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CROWN)
        for job, code, report, should_pass in _cases(path):
            verdict = judge(job, code, json.dumps(report))
            if (verdict is None) != should_pass:
                what = "right answer rejected" if should_pass else "corrupted answer accepted"
                problems.append(f"{job['kind']}: {what} ({verdict})")
    return problems


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    found = run(os.path.join(root, ".perfbench"))
    for p in found:
        print("selftest:", p, file=sys.stderr)
    print("selftest:", "FAILED" if found else f"ok, {len(_cases(''))} cases")
    sys.exit(1 if found else 0)
