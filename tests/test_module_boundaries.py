"""Modules of the package share only public names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "tweetsent"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private_imports(source: str) -> list[str]:
    """``module.name`` for each underscore name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "tweetsent":
            continue
        found += [
            f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")
        ]
    return found


def test_modules_are_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    assert _private_imports(path.read_text(encoding="utf-8")) == []


def test_private_imports_are_detected():
    source = (
        "from .corpus_io import Lexicon, _rows\n"
        "from tweetsent.linear_model import _fault\n"
        "from . import _hidden\n"
        "from os import _exit\n"
        "from __future__ import annotations\n"
    )
    assert _private_imports(source) == [
        "corpus_io._rows", "tweetsent.linear_model._fault", "._hidden"
    ]
