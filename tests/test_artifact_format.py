"""The artifact formats live in one module: only ``cli.py`` imports
``csv`` or ``io``, and only ``cli.py`` and ``model.py`` (the model wire
schema) import ``json``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pomdpkit"

ALLOWED = {"csv": {"cli"}, "io": {"cli"}, "json": {"cli", "model"}}


def _imported(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_format_module_imported_only_where_allowed(module):
    importers = {p.stem for p in sorted(SRC.glob("*.py"))
                 if module in _imported(ast.parse(p.read_text()))}
    assert importers <= ALLOWED[module], \
        f"{sorted(importers - ALLOWED[module])} import {module}"
