"""Every function the benchmark's tracer wraps still exists in flagalg."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("modname, attr, span", _traced(), ids=lambda x: str(x))
def test_traced_target_resolves(modname, attr, span):
    module = importlib.import_module("flagalg." + modname)
    if "." in attr:
        # the tracer wraps methods through the class __dict__
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))
