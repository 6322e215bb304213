"""The package keeps its runtime promises: no floats (every claim is
checked by integer or finite-field equality) and only the standard
library."""

import ast
import sys
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


def test_runtime_imports_are_stdlib():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: import {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, found
