"""Every function, class and method of the library is used somewhere.

A definition counts as used when its name appears as a whole word anywhere
in the library, the tests or the benchmark scripts that drive flagalg,
other than on its own `def` or `class` line.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagalg"
# reference.py and selftest.py are flagalg-free by design: a name they share
# with the library says nothing about the library's use of it
PERFBENCH = [
    p for p in sorted((ROOT / "perfbench").glob("*.py")) if p.name not in ("reference.py", "selftest.py")
]
WORD = re.compile(r"\w+")


def definitions(path):
    """(qualified name, name, line) of each top-level function and class and
    each non-dunder method."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def test_every_definition_is_named_elsewhere():
    sources = sorted(SRC.glob("*.py"))
    searched = sources + sorted((ROOT / "tests").glob("*.py")) + PERFBENCH
    assert sources and PERFBENCH
    words = collections.Counter()
    lines = {}
    for path in searched:
        text = path.read_text()
        lines[path] = text.splitlines()
        words.update(WORD.findall(text))
    unused = []
    for path in sources:
        for qualname, name, lineno in definitions(path):
            on_def_line = WORD.findall(lines[path][lineno - 1]).count(name)
            if words[name] <= on_def_line:
                unused.append(f"{path.name}:{lineno} {qualname}")
    assert not unused, f"defined but never named elsewhere: {unused}"
