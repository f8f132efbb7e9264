"""Every function the benchmark's tracer wraps still exists in flagalg, and
every command line the benchmark runs still parses."""

import importlib
import importlib.util
import json
import pathlib
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
