"""The package loads only what a job needs: `flagalg.X` imports X's module
on first use, and each CLI command imports the pipeline it runs."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import flagalg

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def loaded_after(argv, tmp_path):
    """The flagalg modules loaded by a fresh interpreter that runs `argv`
    through cli.main, and the exit code."""
    code = (
        "import json, sys\n"
        "from flagalg import cli\n"
        f"status = cli.main({argv!r})\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('flagalg'))]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    status, modules = json.loads(proc.stdout.splitlines()[-1])
    return status, set(modules)


def test_derivations_loads_no_other_pipeline(tmp_path):
    poset = tmp_path / "c2.poset"
    poset.write_text("elements: a b\ncovers:\na b\n")
    out = tmp_path / "report.json"
    status, modules = loaded_after(["derivations", str(poset), "--n", "2", "--out", str(out)], tmp_path)
    assert status == 0 and json.loads(out.read_text())["command"] == "derivations"
    assert "flagalg.derivations" in modules
    unused = {"flagalg.suites", "flagalg.reconstruction", "flagalg.lattice", "flagalg.poly"}
    assert not modules & unused


def test_enumerate_posets_loads_no_algebra(tmp_path):
    out = tmp_path / "report.json"
    status, modules = loaded_after(["enumerate-posets", "3", "--out", str(out)], tmp_path)
    assert status == 0 and json.loads(out.read_text())["count"] == 5
    assert modules == {"flagalg", "flagalg.cli", "flagalg.posets", "flagalg.rings"}


@pytest.mark.parametrize("name", flagalg.__all__)
def test_every_public_name_resolves_to_its_defining_module(name):
    obj = getattr(flagalg, name)
    assert obj.__module__.startswith("flagalg.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_public_names_are_star_importable():
    namespace = {}
    exec("from flagalg import *", namespace)
    assert set(flagalg.__all__) <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        flagalg.__getattr__("nope")
    assert not hasattr(flagalg, "nope")
