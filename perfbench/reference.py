"""Reference verdicts for benchmark jobs, computed without any flagalg code.

Every answer the program prints is judged here from the input file the job
received:

- ``check``: all nine theorems of the battery report ``pass`` and the
  report describes the poset in the file;
- ``reconstruct``: the recovered poset is isomorphic to the poset whose
  scrambled table the job read, by brute force over all relabellings;
- ``derivations --n 2``: the kernel rank equals d - c + b1(Delta(P)), where
  d is the number of comparable pairs (the dimension of the incidence
  algebra), c the number of connected components and b1 the first Betti
  number of the order complex, found by exact elimination over Q;
- ``enumerate-posets 6``: the report lists 318 classes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations

THEOREMS = [
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

POSETS_OF_SIZE = {1: 1, 2: 1, 3: 5, 4: 16, 5: 63, 6: 318}


class RefPoset:
    """A finite poset as a reflexive-transitive order matrix."""

    def __init__(self, size, relations):
        self.size = size
        leq = [[x == y for y in range(size)] for x in range(size)]
        for x, y in relations:
            leq[x][y] = True
        for z in range(size):
            for x in range(size):
                if leq[x][z]:
                    for y in range(size):
                        if leq[z][y]:
                            leq[x][y] = True
        for x in range(size):
            for y in range(size):
                if x != y and leq[x][y] and leq[y][x]:
                    raise ValueError("relation has a cycle")
        self.leq = leq

    def lt(self, x, y):
        return x != y and self.leq[x][y]

    def covers(self):
        m = self.size
        return {
            (x, y)
            for x in range(m)
            for y in range(m)
            if self.lt(x, y) and not any(self.lt(x, z) and self.lt(z, y) for z in range(m))
        }


def parse_poset_text(text):
    """Parse the ``elements:`` / ``covers:`` file format."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2 or not lines[0].startswith("elements:") or lines[1] != "covers:":
        raise ValueError("not a poset file")
    names = lines[0][len("elements:"):].split()
    index = {nm: i for i, nm in enumerate(names)}
    pairs = []
    for ln in lines[2:]:
        a, b = ln.split()
        pairs.append((index[a], index[b]))
    return RefPoset(len(names), pairs)


def isomorphic(p: RefPoset, q: RefPoset) -> bool:
    """Brute force over all bijections (at most 720 for six elements)."""
    if p.size != q.size:
        return False
    m = p.size
    for phi in permutations(range(m)):
        if all(p.leq[x][y] == q.leq[phi[x]][phi[y]] for x in range(m) for y in range(m)):
            return True
    return False


def _rank(rows):
    """Rank over Q of a list of dense integer rows."""
    rows = [[Fraction(v) for v in r] for r in rows if any(r)]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / pivot_row[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot_row)]
        rank += 1
    return rank


def _boundary_rank(faces, cells):
    """Rank of the simplicial boundary map from `cells` to `faces`."""
    if not faces or not cells:
        return 0
    pos = {f: i for i, f in enumerate(faces)}
    rows = []
    for cell in cells:
        row = [0] * len(faces)
        for k in range(len(cell)):
            row[pos[cell[:k] + cell[k + 1:]]] = (-1) ** k
        rows.append(row)
    return _rank(rows)


def expected_derivation_rank(p: RefPoset) -> tuple[int, int]:
    """(dim I(P), d - c + b1) for the incidence algebra I(P) = I^2(P)."""
    m = p.size
    d = sum(p.leq[x][y] for x in range(m) for y in range(m))
    # simplices are chains, each written in increasing order
    verts = [(x,) for x in range(m)]
    edges = [(x, y) for x in range(m) for y in range(m) if p.lt(x, y)]
    tris = [(x, y, z) for x, y in edges for z in range(m) if p.lt(y, z)]
    r1 = _boundary_rank(verts, edges)
    r2 = _boundary_rank(edges, tris)
    components = m - r1
    b1 = len(edges) - r1 - r2
    return d, d - components + b1


def judge(job: dict, exit_code: int, stdout: str):
    """None if the job's output is right, else a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report"
    if not isinstance(report, dict):
        return "report is not a JSON object"
    kind = job["kind"]
    if kind == "enumerate":
        size = job["size"]
        want = POSETS_OF_SIZE[size]
        if report.get("count") != want or len(report.get("posets", ())) != want:
            return f"enumerate-posets {size}: expected {want} classes"
        return None
    with open(job["poset"], encoding="utf-8") as fh:
        source = parse_poset_text(fh.read())
    if report.get("ring") != job["ring"]:
        return f"report ring {report.get('ring')!r}, expected {job['ring']!r}"
    if kind == "check":
        posets = report.get("posets") or [{}]
        entry = posets[0]
        theorems = entry.get("theorems", [])
        if [t.get("theorem") for t in theorems] != THEOREMS:
            return "check: theorem list differs from the nine-theorem battery"
        bad = [t["theorem"] for t in theorems if t.get("status") != "pass"]
        if bad:
            return "check: not pass: " + ",".join(bad)
        if entry.get("size") != source.size or {tuple(c) for c in entry.get("covers", ())} != source.covers():
            return "check: report does not describe the input poset"
        return None
    if kind == "reconstruct":
        if report.get("status") != "ok":
            return f"reconstruct: status {report.get('status')!r}"
        try:
            got = RefPoset(report["size"], [tuple(c) for c in report["covers"]])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"reconstruct: unreadable poset in report ({exc})"
        if not isomorphic(got, source):
            return "reconstruct: recovered poset is not isomorphic to the source"
        return None
    if kind == "derivations":
        dim, rank = expected_derivation_rank(source)
        if report.get("n") != 2 or report.get("dim") != dim:
            return f"derivations: expected n=2 and dim {dim}"
        if report.get("kernel_rank") != rank or len(report.get("basis", ())) != rank:
            return f"derivations: kernel rank {report.get('kernel_rank')}, expected {rank}"
        return None
    return f"unknown job kind {kind!r}"
