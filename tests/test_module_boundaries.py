"""Modules of the package share only public names, import each other at
the top of the module, and import nothing outside the standard library
but numpy."""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

from tweetsent.cli import _INDUCTION_FLAGS, _SOLVER_FLAGS, build_parser

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


SOLVER = ("C", "tol", "max_epochs", "seed")


def test_no_pipeline_function_redeclares_a_solver_setting():
    """``linear_model.train`` alone holds the solver defaults; pipeline
    functions pass ``**solver`` on (``cross_validate`` keeps ``seed``,
    which also draws its folds)."""
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    declared = {
        (node.name, arg.arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for arg in node.args.args + node.args.kwonlyargs
        if arg.arg in ("C", "tol", "max_epochs")
    }
    assert declared == set()


@pytest.mark.parametrize(
    "command, flags, given",
    [
        (
            ["train", "--input", "in.tsv", "--model", "m.tsv"],
            SOLVER,
            ["--C", "1", "--tol", "1", "--max-epochs", "1", "--seed", "1"],
        ),
        (
            ["ablate", "--input", "in.tsv", "--test", "t.tsv", "--groups", "pos"],
            SOLVER,
            ["--C", "1", "--tol", "1", "--max-epochs", "1", "--seed", "1"],
        ),
        (
            ["build-lexicon", "--input", "in.tsv", "--labeling", "emoticon",
             "--out", "o.tsv"],
            ("min_count", "alpha", "per_message", "pair_window"),
            ["--min-count", "1", "--alpha", "1", "--per-message", "--pair-window", "1"],
        ),
    ],
)
def test_left_out_cli_flags_stay_out_of_the_parsed_arguments(command, flags, given):
    """The CLI declares no default of its own for a flag that a library
    function takes, so the function's default applies."""
    parser = build_parser()
    assert [f for f in flags if hasattr(parser.parse_args(command), f)] == []
    assert all(hasattr(parser.parse_args(command + given), f) for f in flags)


SCRIPTS = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))
SETTINGS = frozenset(_SOLVER_FLAGS + _INDUCTION_FLAGS)


def _script_setting_defaults(source: str) -> list[str]:
    """Solver and induction flags that ``source`` declares with a default
    other than ``argparse.SUPPRESS``.

    A flag whose value is read only as an argument of a
    ``tweetsent.synthetic`` corpus generator (a script's corpus ``--seed``)
    is no setting.
    """
    tree = ast.parse(source)
    generators = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tweetsent.synthetic"
        for alias in node.names
    }
    in_generator = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in generators
        for inner in ast.walk(node)
    }
    reads = [
        (node.attr, id(node) in in_generator)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    ]
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            continue
        dest = node.args[0].value.lstrip("-").replace("-", "_")
        default = {k.arg: k.value for k in node.keywords}.get("default")
        suppressed = isinstance(default, ast.Attribute) and default.attr == "SUPPRESS"
        dest_reads = [generated for attr, generated in reads if attr == dest]
        corpus_only = bool(dest_reads) and all(dest_reads)
        if dest in SETTINGS and not suppressed and not corpus_only:
            found.append(dest)
    return found


def test_scripts_are_found():
    assert len(SCRIPTS) >= 4


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_no_script_declares_a_solver_or_induction_default(path):
    """A script passes on only the settings given, like the CLI, so the
    library default applies to a left-out flag."""
    assert _script_setting_defaults(path.read_text(encoding="utf-8")) == []


def test_script_setting_defaults_are_detected():
    source = (
        "import argparse\n"
        "from tweetsent.synthetic import make_message_corpus as corpus\n"
        "parser = argparse.ArgumentParser()\n"
        "parser.add_argument('--min-count', type=int, default=5)\n"
        "parser.add_argument('--alpha', type=float, default=argparse.SUPPRESS)\n"
        "parser.add_argument('--per-message', action='store_true')\n"
        "parser.add_argument('--seed', type=int, default=7)\n"
        "parser.add_argument('--C', type=float, default=0.005)\n"
        "parser.add_argument('--messages', type=int, default=100)\n"
        "args = parser.parse_args()\n"
        "rows = corpus(n=args.messages, seed=args.seed)\n"
    )
    assert _script_setting_defaults(source) == ["min_count", "per_message", "C"]
    trained = source + "fit(rows, seed=args.seed)\n"
    assert _script_setting_defaults(trained) == [
        "min_count", "per_message", "seed", "C"
    ]


def _config_fields(source: str) -> list[str]:
    """Fields of the ``MessageFeatureConfig`` class defined in ``source``."""
    return [
        stmt.target.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == "MessageFeatureConfig"
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _config_keywords(source: str) -> set[str]:
    """Keywords given to ``MessageFeatureConfig``, to ``cls`` inside that
    class, or to ``replace``, anywhere in ``source``."""
    tree = ast.parse(source)
    in_class = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "MessageFeatureConfig"
        for inner in ast.walk(node)
    }
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in ("MessageFeatureConfig", "replace") or (
            name == "cls" and id(node) in in_class
        ):
            found.update(k.arg for k in node.keywords if k.arg is not None)
    return found


def _never_given_config_fields(sources: list[str]) -> list[str]:
    """``MessageFeatureConfig`` fields that no call in ``sources`` sets."""
    fields = [f for source in sources for f in _config_fields(source)]
    given = set().union(*map(_config_keywords, sources))
    return [f for f in fields if f not in given]


def test_every_message_config_field_is_set_by_a_caller():
    """A config field that no library or script call sets is a second
    way to leave out features that name-prefix removal already covers."""
    sources = [path.read_text(encoding="utf-8") for path in MODULES + SCRIPTS]
    assert any(map(_config_fields, sources))
    assert _never_given_config_fields(sources) == []


def test_never_given_config_fields_are_detected():
    config = (
        "from dataclasses import dataclass, replace\n"
        "@dataclass(frozen=True)\n"
        "class MessageFeatureConfig:\n"
        "    negation: bool = True\n"
        "    baseline: bool = False\n"
        "    ngram_max: int = 4\n"
        "    clusters: bool = True\n"
        "    @classmethod\n"
        "    def bare(cls):\n"
        "        return cls(baseline=True)\n"
        "class Other:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(ngram_max=1)\n"
    )
    caller = (
        "from tweetsent import features_message\n"
        "a = replace(DEFAULT, negation=False)\n"
        "b = features_message.MessageFeatureConfig(**{'clusters': False})\n"
        "c = 'x'.replace('x', 'y')\n"
    )
    assert _never_given_config_fields([config, caller]) == ["ngram_max", "clusters"]
    called = caller + "d = features_message.MessageFeatureConfig(clusters=False)\n"
    assert _never_given_config_fields([config, called]) == ["ngram_max"]


ROOT = Path(__file__).parents[1]
USERS = sorted(p for d in ("src", "bench", "scripts") for p in (ROOT / d).rglob("*.py"))


def _definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each module-level name of ``tree`` but dunder names, with the
    statement binding it."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [
                node.id
                for target in targets
                for node in ast.walk(target)
                if isinstance(node, ast.Name)
            ]
        else:
            continue
        found += [(name, stmt) for name in names if not name.endswith("__")]
    return found


def _references(node: ast.AST) -> Counter:
    """How often each identifier is read, taken as an attribute or imported
    by name inside ``node``."""
    counts = Counter()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and not isinstance(inner.ctx, ast.Store):
            counts[inner.id] += 1
        elif isinstance(inner, ast.Attribute):
            counts[inner.attr] += 1
        elif isinstance(inner, ast.ImportFrom):
            counts.update(alias.name for alias in inner.names)
    return counts


def _unreferenced_names(modules: dict[str, str], users: list[str]) -> list[str]:
    """``module.name`` for each module-level name of ``modules`` (module
    name to source) that nothing references outside the statement that
    defines it: no code in ``users``, which includes the modules' own
    sources, for a public name, and no code in its own module for a
    private one."""
    total = sum((_references(ast.parse(source)) for source in users), Counter())
    found = []
    for module, source in modules.items():
        tree = ast.parse(source)
        own = _references(tree)
        for name, stmt in _definitions(tree):
            seen = own if name.startswith("_") else total
            if seen[name] == _references(stmt)[name]:
                found.append(f"{module}.{name}")
    return found


def test_every_public_name_is_used_outside_the_tests():
    """A public helper that only tests call, or a private one that its own
    module no longer calls, is code to delete."""
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    users = [path.read_text(encoding="utf-8") for path in USERS]
    assert len(users) > len(modules)
    assert _unreferenced_names(modules, users) == []


def test_unreferenced_names_are_detected():
    module = (
        "LIMIT = 3\n"
        "UNUSED, USED = 1, 2\n"
        "_PRIVATE = 4\n"
        "__version__ = '1'\n"
        "TABLE: dict = {}\n"
        "def helper(n):\n"
        "    return helper(n - 1) if n else LIMIT\n"
        "def _left_behind(n):\n"
        "    return _left_behind(n - 1) if n else _PRIVATE\n"
        "def _square(n):\n"
        "    return n * n\n"
        "class Shape:\n"
        "    def area(self) -> 'Shape':\n"
        "        return Shape()\n"
        "def api():\n"
        "    return USED, _square(2)\n"
    )
    user = (
        "from tweetsent.shapes import api, _left_behind\n"
        "import tweetsent.shapes as shapes\n"
        "print(api(), shapes.TABLE, _left_behind(1))\n"
    )
    assert _unreferenced_names({"shapes": module}, [module, user]) == [
        "shapes.UNUSED", "shapes.helper", "shapes._left_behind", "shapes.Shape"
    ]


HARNESS = sorted(p for d in ("bench", "scripts") for p in (ROOT / d).glob("*.py"))


def _package_references(source: str) -> list[str]:
    """``module.name`` for each package name that ``source`` uses, and
    ``module`` for each package module it imports.

    A name is used when imported with ``from tweetsent.module import
    name``, read as ``module.name`` on a module imported from the
    package, or listed in a ``LAYERS`` table of ``(module, names)``
    pairs.
    """
    tree = ast.parse(source)
    found, modules = [], {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
            continue
        if node.module == "tweetsent":
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
                found.append(alias.name)
        elif node.module.startswith("tweetsent."):
            module = node.module.removeprefix("tweetsent.")
            found += [f"{module}.{alias.name}" for alias in node.names]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            layers = ast.literal_eval(node.value)
            found += [f"{m}.{name}" for m, names in layers.values() for name in names]
    return found


def _missing(references: list[str]) -> list[str]:
    """The references whose module or name the package lacks."""
    missing = []
    for reference in references:
        module, _, name = reference.partition(".")
        try:
            imported = importlib.import_module(f"tweetsent.{module}")
        except ImportError:
            missing.append(reference)
            continue
        if name and not hasattr(imported, name):
            missing.append(reference)
    return missing


def test_every_package_name_the_benchmark_and_scripts_use_exists():
    """A refactor that deletes or renames a name that ``bench/`` or
    ``scripts/`` calls fails here, not in a benchmark run."""
    references = sorted(
        {
            reference
            for path in HARNESS
            for reference in _package_references(path.read_text(encoding="utf-8"))
        }
    )
    assert len(references) > 40
    assert _missing(references) == []


def test_package_references_are_found_and_checked():
    source = (
        "from tweetsent import pipeline as pl, corpus_io\n"
        "from tweetsent.features_message import vectorize, gone\n"
        "from common import macro_f\n"
        "import tweetsent\n"
        "LAYERS = {'x': ('linear_model', ('train', 'fit_all'))}\n"
        "def job():\n"
        "    from tweetsent import lexicon_builder\n"
        "    rows = pl.featurize(corpus_io.load_raw_corpus('r.tsv'))\n"
        "    return lexicon_builder.build_lexicon(rows), tweetsent.__file__\n"
    )
    references = _package_references(source)
    assert sorted(references) == [
        "corpus_io", "corpus_io.load_raw_corpus", "features_message.gone",
        "features_message.vectorize", "lexicon_builder",
        "lexicon_builder.build_lexicon", "linear_model.fit_all",
        "linear_model.train", "pipeline", "pipeline.featurize",
    ]
    assert _missing(references + ["no_such_module"]) == [
        "features_message.gone", "linear_model.fit_all", "no_such_module"
    ]
