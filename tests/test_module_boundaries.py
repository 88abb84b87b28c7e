"""Modules of the package share only public names, import each other at
the top of the module, and import nothing outside the standard library
but numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "tweetsent"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_package(node: ast.Import | ast.ImportFrom) -> bool:
    """Whether an import statement imports from the package itself."""
    if isinstance(node, ast.ImportFrom):
        if node.level > 0:
            return True
        names = [node.module or ""]
    else:
        names = [alias.name for alias in node.names]
    return any(name.split(".")[0] == "tweetsent" for name in names)


def _private_imports(source: str) -> list[str]:
    """``module.name`` for each underscore name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or not _is_package(node):
            continue
        found += [
            f"{node.module or ''}.{alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def _function_level_imports(source: str) -> list[int]:
    """Line numbers of the package imports inside a function body."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(
                inner.lineno
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
                and _is_package(inner)
            )
    return sorted(lines)


def _third_party_imports(source: str) -> list[str]:
    """Modules imported from outside the standard library, numpy and the
    package itself, anywhere in ``source``."""
    allowed = sys.stdlib_module_names | {"numpy"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or _is_package(node):
            continue
        if isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            names = [alias.name for alias in node.names]
        found += [name for name in names if name.split(".")[0] not in allowed]
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_the_package_inside_a_function(path):
    assert _function_level_imports(path.read_text(encoding="utf-8")) == []


def test_function_level_imports_are_detected():
    source = (
        "from . import corpus_io\n"
        "import os\n"
        "def f():\n"
        "    from . import pipeline\n"
        "    import json\n"
        "    def g():\n"
        "        import tweetsent.linear_model\n"
        "class K:\n"
        "    async def h(self):\n"
        "        from tweetsent.evaluation import report_kv\n"
    )
    assert _function_level_imports(source) == [4, 7, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_is_the_only_import_outside_the_standard_library(path):
    """numpy is the one dependency pyproject.toml declares; any other
    import would fail on a clean install."""
    assert _third_party_imports(path.read_text(encoding="utf-8")) == []


def test_third_party_imports_are_detected():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from numpy.linalg import norm\n"
        "from . import corpus_io\n"
        "import tweetsent.pipeline\n"
        "import scipy.sparse\n"
        "def f():\n"
        "    from sklearn.svm import LinearSVC\n"
        "try:\n"
        "    import regex\n"
        "except ImportError:\n"
        "    pass\n"
    )
    assert _third_party_imports(source) == ["scipy.sparse", "sklearn.svm", "regex"]
