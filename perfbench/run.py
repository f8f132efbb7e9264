"""flagalg benchmark: real CLI jobs, one at a time, checked against a reference.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (perfbench/setup_inputs.py, in fresh processes) writes the poset
files, scrambled tables and the job list for the workload and seed.  Then a
closed loop with one client runs the job list as passes: each job is a fresh
``python -m flagalg.cli`` process and the next starts when it has exited.
Every answer is judged by perfbench/reference.py, which uses no flagalg
code.

--trace 0 runs at least three passes, more while another fits in --seconds,
and prints the end-to-end metrics.  --trace 1 runs one pass (more while
they fit) in which each job runs three times: untraced, with spans, and with
spans and ring-operation counts (perfbench/traced_job.py).  It prints
per-layer self times from the span runs, exact counts from the counting
runs (the counts both traced runs take must agree), the tracing overhead
(span runs against untraced runs) and the source line counts.

Times are in reference seconds.  The speed of a shared machine drifts (on
the development VM by up to 1.6x within minutes), so a fixed calibration
workload is timed before every process the run starts, and all the run's
times are scaled by CAL_REF_S over the calibration's mean time in the run.
The raw figures are printed too.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Run details, spans included, go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "flagalg")
STATE = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)

import selftest  # noqa: E402
from reference import judge  # noqa: E402
from tracer import COUNTS, TRACED  # noqa: E402

WORKLOADS = ("sweep-Q", "large-Q", "large-Fp")
# set-up runs at least SETUP_MIN times, and more (up to SETUP_MAX) until
# SETUP_BUDGET_S have gone into it, so that short set-ups get more samples
SETUP_MIN = 3
SETUP_MAX = 7
SETUP_BUDGET_S = 2.0
MIN_PASSES = 3
IMPORT_REPEATS = 5
JOB_LIMIT_S = 60.0
TAIL_MIN_JOBS = 50
TAIL_BEYOND = 10
# the modules of src/flagalg, one layer each
MODULES = (
    "rings", "linalg", "algebra", "lattice", "reconstruction",
    "derivations", "posets", "suites", "cli", "__init__",
)
# the calibration workload's time on the reference machine (the 2-core
# development VM at its typical speed), so that reference seconds stay close
# to seconds there
CAL_REF_S = 0.005
CAL_REPEATS = 3


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _calibration_work():
    """Fraction, comparison and dict work like flagalg's inner loops."""
    zero = Fraction(0)
    row = {}
    for i in range(1, 1000):
        a = Fraction(i % 11 + 1, i % 13 + 1)
        b = a * Fraction(i % 7 + 1, i % 5 + 1) - a
        if b != zero:
            row[i % 61] = row.get(i % 61, 0) + (i * i) % 7
    return row


def calibrate():
    """The calibration workload's median time now."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_scale(records):
    """Reference seconds per second over the processes in `records`.  The
    machine switches between fast and slow within tens of milliseconds; the
    mean calibration time follows the share of time spent in each."""
    return CAL_REF_S / statistics.fmean(r["cal_s"] for r in records)


def spawn(cmd, out_path, err_path, limit=JOB_LIMIT_S):
    """Run cmd to completion: wall time from spawn to exit, rusage of the
    child, and the calibration time measured just before it started."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cal_s = calibrate()
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
    fd = os.pidfd_open(proc.pid)
    timed_out = False
    try:
        if not select.select([fd], [], [], limit)[0]:
            timed_out = True
            proc.kill()
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(fd)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "cal_s": cal_s,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "timed_out": timed_out,
    }


def run_setup(workload, seed, out_dir, trace_out=None):
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "setup_inputs.py"), workload, str(seed), out_dir]
    if trace_out:
        cmd.append(trace_out)
    err_path = os.path.join(out_dir, "setup.err")
    rec = spawn(cmd, os.path.join(out_dir, "setup.out"), err_path)
    if rec["code"] != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            raise BenchError(f"set-up failed with exit code {rec['code']}:\n{fh.read()[-2000:]}")
    with open(os.path.join(out_dir, "jobs.json"), encoding="utf-8") as fh:
        return rec, json.load(fh)


def run_job(job, out_dir, tag, trace_out=None, mode=None):
    if trace_out:
        cmd = [sys.executable, os.path.join(HERE, "traced_job.py"), trace_out, job["id"], mode]
    else:
        cmd = [sys.executable, "-m", "flagalg.cli"]
    stem = os.path.join(out_dir, f"{tag}-{job['id']}")
    rec = spawn(cmd + job["argv"], stem + ".out", stem + ".err")
    with open(stem + ".out", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    if rec["timed_out"]:
        verdict = f"over the {JOB_LIMIT_S:g} s per-job limit"
    else:
        verdict = judge(job, rec["code"], stdout)
    rec.update(job=job["id"], kind=job["kind"], argv=job["argv"], verdict=verdict)
    if trace_out and os.path.exists(trace_out):
        with open(trace_out, encoding="utf-8") as fh:
            rec["trace"] = json.load(fh)
    return rec


def run_passes(seconds, min_passes, one_pass):
    """Closed loop: at least min_passes passes, then more while the next one
    is expected to end within `seconds` of the start."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append((one_pass(len(passes)), time.perf_counter() - t0))
        elapsed = time.perf_counter() - start
        expected = statistics.median(w for _recs, w in passes)
        if len(passes) >= min_passes and elapsed + expected > seconds:
            return passes


def hd_median(values, steps=4000):
    """Harrell-Davis estimate of the median: the order statistics weighted by
    a Beta((n+1)/2, (n+1)/2) distribution.  Job latencies fall in clusters
    with gaps between them, across which the sample median jumps."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)
    cdf = [0.0]
    for k in range(steps):
        x = (k + 0.5) / steps
        cdf.append(cdf[-1] + math.exp((a - 1) * math.log(x * (1 - x)) - log_norm) / steps)

    def mass_below(t):
        return cdf[round(t * steps)] / cdf[-1]

    return sum(x * (mass_below(i / n) - mass_below((i - 1) / n)) for i, x in enumerate(xs, 1))


def tail(latencies):
    """(percentile, value) of the highest percentile with TAIL_BEYOND jobs
    beyond it, or None below TAIL_MIN_JOBS jobs."""
    n = len(latencies)
    if n < TAIL_MIN_JOBS:
        return None
    return 100 * (n - TAIL_BEYOND) // n, sorted(latencies)[n - TAIL_BEYOND - 1]


def plain_run(workload, seed, seconds, work):
    setups = []
    while len(setups) < SETUP_MIN or (
        len(setups) < SETUP_MAX and sum(r["wall_s"] for r in setups) < SETUP_BUDGET_S
    ):
        rec, jobs = run_setup(workload, seed, os.path.join(work, f"setup{len(setups)}"))
        setups.append(rec)
    out_dir = os.path.join(work, "jobs")
    os.makedirs(out_dir)
    passes = run_passes(
        seconds, MIN_PASSES, lambda k: [run_job(job, out_dir, f"p{k}") for job in jobs]
    )
    records = [rec for recs, _w in passes for rec in recs]
    scale = speed_scale(setups + records)

    def figures(factor):
        def job_list(key):
            # each job at its median over the passes, so that a slowdown of
            # the machine during one pass does not carry over
            return factor * sum(
                statistics.median(r[key] for r in records if r["job"] == job["id"])
                for job in jobs
            )

        return {
            "wall_s": job_list("wall_s"),
            "job_s.p50": factor * hd_median(r["wall_s"] for r in records),
            "cpu_s": job_list("cpu_s"),
            "setup_s": factor * statistics.median(r["wall_s"] for r in setups),
        }

    ref = figures(scale)
    metrics = {
        "wall_s": (ref["wall_s"], "s"),
        "job_s.p50": (ref["job_s.p50"], "s"),
        "cpu_s": (ref["cpu_s"], "s"),
        "peak_rss_mib": (max(r["rss_mib"] for r in records), "MiB"),
        "setup_s": (ref["setup_s"], "s"),
    }
    latencies = [r["wall_s"] * scale for r in records]
    t = tail(latencies)
    info = {
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "setups": len(setups),
        "pass_walls_s": [w for _recs, w in passes],
        "raw": figures(1.0),
        "speed_scale": scale,
        "job_s.tail": (
            {"percentile": t[0], "value_s": t[1], "jobs": len(latencies)}
            if t
            else f"omitted: {len(latencies)} jobs < {TAIL_MIN_JOBS}"
        ),
    }
    return metrics, records, info, [], []


def self_times(spans):
    """Self time per span name: duration minus the direct children's."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _parent), c in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - c
    return out


def add_counts(total, counts):
    for key, value in counts.items():
        if key == "reconstruction.table_max_bits":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def cli_imports(work):
    """IMPORT_REPEATS fresh interpreters, each timing `import flagalg.cli`."""
    code = "import time; t = time.perf_counter(); import flagalg.cli; print(time.perf_counter() - t)"
    recs = []
    for i in range(IMPORT_REPEATS):
        out = os.path.join(work, f"import{i}.out")
        rec = spawn([sys.executable, "-c", code], out, out + ".err")
        if rec["code"] != 0:
            raise BenchError("import flagalg.cli failed")
        with open(out, encoding="utf-8") as fh:
            rec["import_s"] = float(fh.read())
        recs.append(rec)
    return recs


def code_lines():
    lines = {}
    for name in os.listdir(PKG):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name), "rb") as fh:
                lines[name[:-3]] = fh.read().count(b"\n")
    out = {"code.lines": (sum(lines.values()), "lines")}
    for mod in MODULES:
        out[f"code.lines.{mod}"] = (lines.get(mod, 0), "lines")
    return out


def traced_run(workload, seed, seconds, work):
    trace_dir = os.path.join(work, "trace")
    out_dir = os.path.join(work, "jobs")
    os.makedirs(trace_dir)
    os.makedirs(out_dir)
    setup_trace = os.path.join(trace_dir, "setup.json")
    setup_rec, jobs = run_setup(workload, seed, os.path.join(work, "setup"), setup_trace)
    with open(setup_trace, encoding="utf-8") as fh:
        setup_spans = json.load(fh)["spans"]

    def one_pass(k):
        recs = []
        for job in jobs:
            recs.append(run_job(job, out_dir, f"p{k}u"))
            for mode in ("spans", "counts"):
                trace_out = os.path.join(trace_dir, f"p{k}{mode}-{job['id']}.json")
                rec = run_job(job, out_dir, f"p{k}{mode}", trace_out, mode)
                recs.append(dict(rec, mode=mode, pass_=k))
        return recs

    passes = run_passes(seconds, 1, one_pass)
    records = [rec for recs, _w in passes for rec in recs]
    problems = []
    span_log = [{"job": "setup", "spans": setup_spans}]
    samples = []  # per pass: (self time per span name, counts)
    first_counts = {}
    for recs, _w in passes:
        times, counts = {}, {}
        for rec in recs:
            if "mode" not in rec:
                continue
            trace = rec.get("trace")
            if trace is None:
                problems.append(f"{rec['job']}: traced job wrote no trace")
                continue
            job_counts = dict(trace["counts"])
            if rec["mode"] == "spans":
                span_log.append({"job": rec["job"], "pass": rec["pass_"], "spans": trace["spans"]})
                for name, t in self_times(trace["spans"]).items():
                    times[name] = times.get(name, 0.0) + t
                roots = sum(end - start for _n, start, end, parent in trace["spans"] if parent < 0)
                times["cli.self"] = times.get("cli.self", 0.0) + rec["wall_s"] - roots
                job_counts.pop("rings.ops")
            else:
                add_counts(counts, job_counts)
            # every traced run of a job must take the same counts
            for key, value in job_counts.items():
                if first_counts.setdefault((rec["job"], key), value) != value:
                    problems.append(f"{rec['job']}: {key} differs between traced runs")
        samples.append((times, counts))

    imports = cli_imports(work)
    scale = speed_scale([setup_rec] + records + imports)
    setup_self = self_times(setup_spans)
    metrics = {}
    for name in [n for _mod, _attr, n in TRACED] + ["cli.self"]:
        median = statistics.median(times.get(name, 0.0) for times, _c in samples)
        metrics[name + "_s"] = (scale * (setup_self.get(name, 0.0) + median), "s")
    metrics["cli.import_s"] = (scale * statistics.median(r["import_s"] for r in imports), "s")
    for key in COUNTS:
        metrics[key] = (samples[0][1].get(key, 0), "count")
    untraced = sum(r["wall_s"] for r in records if "mode" not in r)
    traced = sum(r["wall_s"] for r in records if r.get("mode") == "spans")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    metrics.update(code_lines())
    info = {
        "passes": len(passes),
        "jobs_per_pass": len(jobs),
        "pass_walls_s": [w for _recs, w in passes],
        "setup_self_s": setup_self,
        "speed_scale": scale,
    }
    return metrics, records, info, problems, span_log


def environment():
    def git_sha():
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    # the checkout under test need not be a git repository
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model
            )
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def write_results(stem, header, metrics, records, span_log):
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(
            dict(
                header,
                metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                jobs=[{k: v for k, v in r.items() if k != "trace"} for r in records],
            ),
            fh,
            indent=1,
        )
    if span_log:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for entry in span_log:
                for name, start, end, parent in entry["spans"]:
                    fh.write(json.dumps({
                        "job": entry["job"], "pass": entry.get("pass"),
                        "name": name, "start": start, "end": end, "parent": parent,
                    }) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PKG, "cli.py")):
        print(f"perfbench: no flagalg sources under {SRC}", file=sys.stderr)
        return 2
    problems = selftest.run(STATE)
    if problems:
        print("perfbench: reference self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1

    work = os.path.join(STATE, f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work)
    run = traced_run if args.trace else plain_run
    try:
        metrics, records, info, problems, span_log = run(
            args.workload, args.seed, args.seconds, work
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["verdict"]]
    for r in failed[:10]:
        print(f"perfbench: FAILED {r['job']} {' '.join(r['argv'])}: {r['verdict']}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    info["failed_frac"] = len(failed) / len(records)
    env = environment()
    results_dir = os.path.join(STATE, "results")
    os.makedirs(results_dir, exist_ok=True)
    write_results(
        os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"),
        {"workload": args.workload, "seed": args.seed, "env": env, "info": info},
        metrics, records, span_log,
    )

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    for key, (value, unit) in metrics.items():
        shown = f"{value:16.6f}" if isinstance(value, float) else f"{value:16d}"
        print(f"  {key:32s} {shown} {unit}")
    print(f"  {'failed_frac':32s} {info['failed_frac']:16.6f} ({len(failed)}/{len(records)} jobs)")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
