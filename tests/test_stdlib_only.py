"""The runtime has no third-party dependencies (``dependencies = []``)."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import fedmesh

MODULES = sorted(Path(fedmesh.__file__).parent.glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_runtime_import_is_stdlib():
    assert MODULES
    outside = {
        f"{path.name}: {name}"
        for path in MODULES
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside, sorted(outside)
