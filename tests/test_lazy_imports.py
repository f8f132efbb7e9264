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


def loaded_after(argv, tmp_path, prefix="flagalg"):
    """The modules named `prefix...` loaded by a fresh interpreter that runs
    `argv` through cli.main, and the exit code."""
    code = (
        "import json, sys\n"
        "from flagalg import cli\n"
        f"status = cli.main({argv!r})\n"
        f"print(json.dumps([status, sorted(m for m in sys.modules if m.startswith({prefix!r}))]))\n"
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


@pytest.mark.parametrize("ring, loads", [("Fp:5", False), ("Q", True)])
def test_only_q_jobs_load_fractions(tmp_path, ring, loads):
    poset = tmp_path / "c2.poset"
    poset.write_text("elements: a b\ncovers:\na b\n")
    out = tmp_path / "report.json"
    argv = ["derivations", str(poset), "--n", "2", "--ring", ring, "--out", str(out)]
    status, modules = loaded_after(argv, tmp_path, prefix="fractions")
    assert status == 0 and json.loads(out.read_text())["ring"] == ring
    assert (modules == {"fractions"}) is loads


def test_fp_reconstruct_loads_no_fractions(tmp_path):
    # the splitting of the idempotents runs the F_p root search
    from flagalg.algebra import AlgebraContext
    from flagalg.posets import chain
    from flagalg.reconstruction import scramble
    from flagalg.rings import PrimeField

    table = tmp_path / "table.json"
    table.write_text(scramble(AlgebraContext(chain(3), 3, PrimeField(262139)), 1).sc.to_json())
    out = tmp_path / "report.json"
    argv = ["reconstruct", str(table), "--ring", "Fp:262139", "--out", str(out)]
    status, modules = loaded_after(argv, tmp_path, prefix="fractions")
    assert status == 0 and json.loads(out.read_text())["size"] == 3
    assert not modules


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
