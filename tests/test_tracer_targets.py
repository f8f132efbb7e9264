"""Every function the benchmark's tracer wraps still exists in flagalg,
every command line the benchmark runs still parses, and traced jobs run
as the untraced ones do."""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from flagalg.cli import build_parser

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load("tracer").TRACED


@pytest.mark.parametrize("modname, attr, span", _traced(), ids=lambda x: str(x))
def test_traced_target_resolves(modname, attr, span):
    module = importlib.import_module("flagalg." + modname)
    if "." in attr:
        # the tracer wraps methods through the class __dict__
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    # setup_inputs puts perfbench/ and src/ on sys.path when imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    _load("setup_inputs").build("sweep-Q", 0, str(tmp_path))
    jobs = json.loads((tmp_path / "jobs.json").read_text())
    assert {job["kind"] for job in jobs} == {"check", "reconstruct", "derivations", "enumerate"}
    parser = build_parser()
    for job in jobs:
        args = parser.parse_args(job["argv"])
        assert args.command == job["argv"][0]


def test_traced_jobs_keep_exit_codes_and_record_counts(tmp_path):
    # Tracer.install rewrites flagalg's module globals, so every traced run
    # gets its own process; a renamed attribute the tracer observes
    # (algebra.sc, sub.rank, sc.table entries) fails here, not only under
    # `perfbench/run.py --trace 1`
    tracer = _load("tracer")
    inputs = tmp_path / "inputs"
    setup_trace = tmp_path / "setup.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_inputs.py"), "sweep-Q", "0", str(inputs), str(setup_trace)],
        check=True,
    )
    jobs = json.loads((inputs / "jobs.json").read_text())
    picked = [
        next(j["argv"] for j in jobs if j["argv"][:2] == ["check", str(inputs / "c0.poset")]),
        next(j["argv"] for j in jobs if j["argv"][:2] == ["reconstruct", str(inputs / "mid-Q.json")]),
    ]
    for k, argv in enumerate(picked):
        trace = tmp_path / f"job{k}.json"
        untraced = subprocess.run([sys.executable, "-m", "flagalg.cli", *argv], capture_output=True)
        traced = subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_job.py"), str(trace), "j0", "counts", *argv],
            capture_output=True,
        )
        assert traced.returncode == untraced.returncode, traced.stderr
        record = json.loads(trace.read_text())
        assert set(tracer.COUNTS) <= record["counts"].keys()
        assert record["spans"]
    setup = json.loads(setup_trace.read_text())
    assert set(tracer.COUNTS) <= setup["counts"].keys()
    assert setup["counts"]["reconstruction.table_max_bits"] > 0
