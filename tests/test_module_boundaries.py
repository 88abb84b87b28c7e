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


def _unbounded_caches(source: str) -> list[str]:
    """The function name for each unbounded ``functools`` cache that
    decorates a function in ``source``, and ``line N`` for any other use:
    ``lru_cache`` with ``maxsize`` None, or ``functools.cache``, whose
    import by name counts as a use."""
    tree = ast.parse(source)
    decorated = {
        id(decorator): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            unbounded = node.module == "functools" and any(
                alias.name == "cache" for alias in node.names
            )
        elif isinstance(node, ast.Attribute):
            unbounded = node.attr == "cache" and (
                isinstance(node.value, ast.Name) and node.value.id == "functools"
            )
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            unbounded = name == "lru_cache" and any(
                isinstance(size, ast.Constant) and size.value is None for size in sizes
            )
        else:
            continue
        if unbounded:
            found.append(decorated.get(id(node), f"line {node.lineno}"))
    return found


def test_only_the_bundled_word_lists_are_cached_without_bound():
    """A memo keyed by corpus text must have a bound, or a paper-scale
    corpus grows it without limit.  ``wordlists._bundled`` is keyed by the
    name of a file that ships with the package."""
    found = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _unbounded_caches(path.read_text(encoding="utf-8"))
    ]
    assert found == ["wordlists._bundled"]


def test_unbounded_caches_are_detected():
    source = (
        "import functools\n"
        "from functools import cache as memo, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(x): ...\n"
        "@functools.lru_cache(None, typed=True)\n"
        "def b(x): ...\n"
        "@memo\n"
        "def c(x): ...\n"
        "@functools.cache\n"
        "def d(x): ...\n"
        "@lru_cache(maxsize=4096)\n"
        "def e(x): ...\n"
        "@lru_cache\n"
        "def f(x): ...\n"
        "g = lru_cache(maxsize=None)(f)\n"
        "cache = {}\n"
    )
    assert _unbounded_caches(source) == ["line 2", "a", "b", "d", "line 15"]


# The emoticon mouth class and the URL pattern each serve more than one
# tokenizer rule (scanner, polarity, normalization).  Spelled once and
# spliced in, their uses cannot drift apart.
RESPELLABLE = ("dDpP", "https?://")


def _respelled_patterns(source: str) -> list[str]:
    """Each of ``RESPELLABLE`` that more than one string constant of
    ``source`` holds, with the lines those constants start on."""
    constants = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    found = []
    for part in RESPELLABLE:
        lines = sorted(node.lineno for node in constants if part in node.value)
        if len(lines) > 1:
            found.append(f"{part} on lines {lines}")
    return found


def test_each_tokenizer_pattern_is_spelled_once():
    source = (PACKAGE / "tokenizer.py").read_text(encoding="utf-8")
    assert _respelled_patterns(source) == []


def test_respelled_patterns_are_detected():
    source = (
        'EMOTICON = r"[:;][)dDpP]|[)dDpP][:;]"\n'
        'FORWARD = rf"{EYES}[)dDpP]"\n'
        'MOUTH = "[)dDpP]"\n'
        'SCANNER = re.compile(rf"{MOUTH}{MOUTH}|https?://\\S+")\n'
        'URL = re.compile(r"(?:https?://\\S+)")\n'
    )
    assert _respelled_patterns(source) == [
        "dDpP on lines [1, 2, 3]", "https?:// on lines [4, 5]",
    ]


# A negated context's features are named with ``NEG_SUFFIX``.  Only
# ``negation``, which suffixes surfaces, and ``features_message``, which
# names the negated lexicon blocks and refuses the lexicons whose affects
# those names would collide with, spell that rule.
NEG_SUFFIX_READERS = ("negation", "features_message")


def _neg_suffix_reads(source: str) -> list[int]:
    """Lines of ``source`` that import, name or look up ``NEG_SUFFIX``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "NEG_SUFFIX" for alias in node.names):
                lines.add(node.lineno)
        elif getattr(node, "id", getattr(node, "attr", None)) == "NEG_SUFFIX":
            lines.add(node.lineno)
    return sorted(lines)


def test_only_negation_and_message_features_read_the_negation_suffix():
    found = [
        f"{path.stem} line {line}"
        for path in MODULES
        if path.stem not in NEG_SUFFIX_READERS
        for line in _neg_suffix_reads(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_negation_suffix_reads_are_detected():
    source = (
        "from .negation import NEG_SUFFIX\n"
        "from . import negation\n"
        "name = affect + negation.NEG_SUFFIX\n"
        "label = 'NEG_SUFFIX'  # NEG_SUFFIX\n"
        "def f(suffix=NEG_SUFFIX):\n"
        "    return suffix\n"
        "from .negation import NEG_SUFFIX as SUFFIX\n"
    )
    assert _neg_suffix_reads(source) == [1, 3, 5, 7]


def _dataclass_fields(source: str) -> set[str]:
    """Field names of the ``@dataclass`` classes defined in ``source``."""
    fields = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or not any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", "") == "dataclass"
            for d in node.decorator_list
        ):
            continue
        fields.update(
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        )
    return fields


def _late_edits(source: str, fields: set[str]) -> list[str]:
    """``line N: field`` for each statement in ``source`` that sets or
    deletes an attribute named in ``fields``: by assignment, ``del``,
    ``setattr`` or ``__setattr__`` with a literal name.  A constructor
    (``__init__``, ``__post_init__``) may set its own ``self``'s fields."""
    tree = ast.parse(source)
    own = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name in ("__init__", "__post_init__")
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            target, name = node.value, node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", ""))
            in ("setattr", "delattr", "__setattr__", "__delattr__")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            target, name = node.args[0], node.args[1].value
        else:
            continue
        is_self = isinstance(target, ast.Name) and target.id == "self"
        if name in fields and not (is_self and id(node) in own):
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_no_package_code_edits_a_token_after_construction():
    """Tokens and token sequences are built whole, so a row's features
    follow from its text (or tags) alone; ``Token`` stays assignable only
    because a frozen class builds several times slower."""
    fields = _dataclass_fields((PACKAGE / "tokenizer.py").read_text(encoding="utf-8"))
    assert {"surface", "pos_tag", "tokens"} <= fields
    found = [
        f"{path.stem} {edit}"
        for path in MODULES
        for edit in _late_edits(path.read_text(encoding="utf-8"), fields)
    ]
    assert found == []


def test_late_token_edits_are_detected():
    tokenizer = (
        "from dataclasses import dataclass\n"
        "@dataclass(slots=True)\n"
        "class Token:\n"
        "    surface: str\n"
        "    pos_tag: str | None = None\n"
        "    LIMIT = 3\n"
        "@dataclass\n"
        "class TokenizedMessage:\n"
        "    tokens: tuple\n"
        "class Plain:\n"
        "    kind: str\n"
    )
    fields = _dataclass_fields(tokenizer)
    assert fields == {"surface", "pos_tag", "tokens"}
    source = (
        "token.pos_tag = tag\n"
        "for t in tokens:\n"
        "    t.surface = t.surface.lower()\n"
        "message.tokens += (extra,)\n"
        "setattr(token, 'pos_tag', 'N')\n"
        "object.__setattr__(message, 'tokens', ())\n"
        "del token.pos_tag\n"
        "class Row:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'tokens', ())\n"
        "        self.surface = ''\n"
        "        other.surface = ''\n"
        "    def relabel(self):\n"
        "        self.pos_tag = 'N'\n"
        "token.kind = 'word'\n"
        "index.tokens_seen = 3\n"
        "print(token.pos_tag, getattr(token, 'surface'))\n"
    )
    assert _late_edits(source, fields) == [
        "line 1: pos_tag", "line 3: surface", "line 4: tokens", "line 5: pos_tag",
        "line 6: tokens", "line 7: pos_tag", "line 12: surface", "line 14: pos_tag",
    ]


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


def _second_scoring_paths(source: str) -> list[str]:
    """Lines of ``source`` that import or read ``linear_model.predict``,
    or call ``run_experiment`` from a function but
    ``run_message_experiment``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.endswith("linear_model") and any(
                alias.name == "predict" for alias in node.names
            ):
                found.append((node.lineno, "imports predict"))
        elif isinstance(node, ast.Attribute) and node.attr == "predict":
            if getattr(node.value, "id", None) == "linear_model":
                found.append((node.lineno, "reads linear_model.predict"))
        elif isinstance(node, ast.FunctionDef) and node.name != "run_message_experiment":
            found += [
                (inner.lineno, f"{node.name} calls run_experiment")
                for inner in ast.walk(node)
                if isinstance(inner, ast.Call)
                and getattr(inner.func, "id", getattr(inner.func, "attr", None))
                == "run_experiment"
            ]
    return [f"line {lineno}: {what}" for lineno, what in sorted(found)]


def test_pipeline_scores_held_out_rows_one_way():
    """Every pipeline run indexes its held-out rows with its training rows
    and classifies them; none goes through ``predict`` or re-enters
    ``run_experiment``."""
    source = (PACKAGE / "pipeline.py").read_text(encoding="utf-8")
    assert _second_scoring_paths(source) == []


def test_second_scoring_paths_are_detected():
    source = (
        "from .linear_model import LinearModel, predict, train\n"
        "from tweetsent.linear_model import predict as guess\n"
        "from .evaluation import predict\n"
        "from . import linear_model\n"
        "def run_ablation():\n"
        "    return run_experiment('message', [], [])\n"
        "def run_message_experiment():\n"
        "    return run_experiment('message', [], [])\n"
        "def score(model, vector):\n"
        "    return linear_model.predict(model, vector)\n"
        "class Harness:\n"
        "    def fit(self):\n"
        "        return pipeline.run_experiment('term', [], [])\n"
    )
    assert _second_scoring_paths(source) == [
        "line 1: imports predict", "line 2: imports predict",
        "line 6: run_ablation calls run_experiment",
        "line 10: reads linear_model.predict", "line 13: fit calls run_experiment",
    ]


def test_no_induction_function_but_build_lexicon_declares_a_default():
    """``build_lexicon`` alone holds the ``min_count`` and ``alpha``
    defaults; the functions it passes them to require them."""
    tree = ast.parse((PACKAGE / "lexicon_builder.py").read_text(encoding="utf-8"))
    declared = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.name == "build_lexicon":
            continue
        positional = node.args.posonlyargs + node.args.args
        defaulted = positional[len(positional) - len(node.args.defaults) :]
        defaulted += [
            arg
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
            if default is not None
        ]
        declared |= {
            (node.name, arg.arg)
            for arg in defaulted
            if arg.arg in ("min_count", "alpha")
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
