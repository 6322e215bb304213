"""The package keeps its no-floats promise: every claim is checked by
integer or finite-field equality."""

import ast
from pathlib import Path

import maxcurves

SOURCES = sorted(Path(maxcurves.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"gf.py", "numsg.py", "curves.py",
                                         "verify.py", "cli.py"}


def test_no_float_literal_or_name():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno}: name float")
    assert not found, found
