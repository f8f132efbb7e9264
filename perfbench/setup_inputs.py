"""Set-up for one benchmark run: enumerate posets, write poset files and
scrambled structure-constants tables, and write the job list.

Usage: python3 perfbench/setup_inputs.py WORKLOAD SEED OUT_DIR [TRACE_OUT]

Everything is derived from SEED: each poset class is written under a seeded
relabelling (element order and so the program's basis order change), jobs
get seeded ``--seed`` arguments, tables are scrambled with seeded maps and
the job order is shuffled.  Which poset classes a workload uses is fixed by
a rule on the classes themselves, not by the seed or by the order in which
flagalg enumerates them, so every seed runs the same amount of algebra.
With TRACE_OUT the set-up runs under the benchmark's tracer.
"""

import json
import os
import random
import sys
from itertools import permutations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

import flagalg.algebra  # noqa: E402
import flagalg.posets  # noqa: E402
import flagalg.reconstruction  # noqa: E402
import flagalg.rings  # noqa: E402

# every SWEEP_STEP-th class of sizes 1-5 in class order, from SWEEP_FIRST
# on: 8 of the 87 classes, sizes 4-5, dims 4-25
SWEEP_STEP = 10
SWEEP_FIRST = 8
# per dimension of I^3(P), the size-6 class first in class order
LARGE_DIMS = (20, 24)
FP = "Fp:262139"  # the largest prime below 2^18


def canonical(leq):
    """The class's own canonical order matrix: the relabelling whose
    row-major bit pattern is smallest (independent of flagalg)."""
    m = len(leq)
    best = None
    for perm in permutations(range(m)):
        bits = tuple(leq[perm[i]][perm[j]] for i in range(m) for j in range(m))
        if best is None or bits < best[0]:
            best = (bits, perm)
    perm = best[1]
    return tuple(tuple(leq[perm[i]][perm[j]] for j in range(m)) for i in range(m))


def class_key(p):
    """Cheap invariants: size, dimension of I^3(P), covers, length."""
    m = p.size
    dim = sum(
        p.leq[x][y] and p.leq[y][z] for x in range(m) for y in range(m) for z in range(m)
    )
    return (m, dim, len(p.covers), p.poset_length())


def write_poset(path, leq, rng):
    """Write the class under a seeded relabelling; return the file path."""
    m = len(leq)
    order = list(range(m))
    rng.shuffle(order)
    names = [f"p{i}" for i in range(m)]
    pos = {x: i for i, x in enumerate(order)}
    covers = [
        (pos[x], pos[y])
        for x in range(m)
        for y in range(m)
        if x != y and leq[x][y]
        and not any(z not in (x, y) and leq[x][z] and leq[z][y] for z in range(m))
    ]
    lines = ["elements: " + " ".join(names), "covers:"]
    lines += [f"{names[a]} {names[b]}" for a, b in sorted(covers)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def sweep_classes():
    classes = []
    for m in range(1, 6):
        for p in flagalg.posets.enumerate_posets(m):
            classes.append((class_key(p), canonical(p.leq)))
    classes.sort()
    return [leq for _key, leq in classes[SWEEP_FIRST::SWEEP_STEP]]


def large_classes():
    by_dim = {}
    for p in flagalg.posets.enumerate_posets(6):
        key = class_key(p)
        if key[1] in LARGE_DIMS:
            by_dim.setdefault(key[1], []).append((key, p))
    out = []
    for dim in LARGE_DIMS:
        cands = sorted(by_dim[dim], key=lambda kp: kp[0])
        first = cands[0][0]
        tied = [p for key, p in cands if key == first]
        out.append(min(canonical(p.leq) for p in tied))
    return out


def chain_leq(m):
    return tuple(tuple(x <= y for y in range(m)) for x in range(m))


def scrambled_table(path, poset_path, ring_spec, seed):
    with open(poset_path, encoding="utf-8") as fh:
        poset = flagalg.posets.parse_poset(fh.read())
    ring = flagalg.rings.ring_from_spec(ring_spec)
    ctx = flagalg.algebra.AlgebraContext(poset, 3, ring)
    table = flagalg.reconstruction.scramble(ctx, seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table.sc.to_json())
    return path


def build(workload, seed, out_dir):
    rng = random.Random(f"{workload}/{seed}")
    jobs = []

    def poset_file(tag, leq):
        return write_poset(os.path.join(out_dir, f"{tag}.poset"), leq, rng)

    def add(kind, argv, **info):
        jobs.append({"kind": kind, "argv": argv, **info})

    def check(path, ring):
        add("check", ["check", path, "--ring", ring, "--seed", str(rng.randrange(1000))],
            poset=path, ring=ring)

    def reconstruct(tag, path, ring):
        table = os.path.join(out_dir, f"{tag}-{ring.replace(':', '_')}.json")
        scrambled_table(table, path, ring, rng.randrange(10**6))
        add("reconstruct",
            ["reconstruct", table, "--ring", ring, "--seed", str(rng.randrange(1000))],
            poset=path, ring=ring)

    def derivations(path, ring):
        add("derivations", ["derivations", path, "--n", "2", "--ring", ring],
            poset=path, ring=ring)

    if workload == "sweep-Q":
        classes = sweep_classes()
        for i, leq in enumerate(classes):
            check(poset_file(f"c{i}", leq), "Q")
        mid = poset_file("mid", classes[len(classes) // 2])
        reconstruct("mid", mid, "Q")
        derivations(mid, "Q")
        add("enumerate", ["enumerate-posets", "6"], size=6)
    elif workload in ("large-Q", "large-Fp"):
        ring = "Q" if workload == "large-Q" else FP
        rings = ["Q", "Z"] if workload == "large-Q" else [FP]
        for i, leq in enumerate(large_classes()):
            path = poset_file(f"c{i}", leq)
            check(path, ring)
            reconstruct(f"c{i}", path, ring)
            for r in rings:
                derivations(path, r)
        chain6 = poset_file("chain6", chain_leq(6))
        for r in rings:
            derivations(chain6, r)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"j{i:02d}"
    with open(os.path.join(out_dir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh, indent=1)


def main():
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    trace_out = sys.argv[4] if len(sys.argv) > 4 else None
    tracer = None
    if trace_out:
        tracer = Tracer()
        tracer.install(count_ring_ops=False)
    os.makedirs(out_dir, exist_ok=True)
    build(workload, seed, out_dir)
    if tracer:
        tracer.dump(trace_out, "setup")


if __name__ == "__main__":
    main()
