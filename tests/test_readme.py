"""README's Python examples run as written, and the module attributes it
names exist."""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = {p.stem for p in (ROOT / "src" / "flagalg").glob("*.py")} - {"__init__"}


def test_python_examples_run(capsys):
    # the second block uses the first block's `ctx`, so both share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "((0, 1), (1, 2))\n"


def test_module_names_resolve():
    # an inline code span that starts `<module>.<name>`, such as `linalg.hnf`
    # or `lattice.quotient(sc, U, V)`, names an attribute of that flagalg
    # module; a file name such as `cli.py` names none
    prose = re.sub(r"^```.*?^```$", "", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    names = set()
    for code in re.findall(r"`([^`]+)`", prose):
        m = re.match(r"(\w+)\.(\w+)", code)
        if m and m[1] in MODULES and m[2] != "py":
            names.add((m[1], m[2]))
    assert ("lattice", "quotient") in names
    missing = [
        f"{mod}.{name}" for mod, name in sorted(names) if not hasattr(importlib.import_module(f"flagalg.{mod}"), name)
    ]
    assert not missing, f"README names attributes that do not exist: {missing}"
