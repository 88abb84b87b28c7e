"""End-to-end plumbing: corpus -> features -> model -> report.

This is the only module that knows the two tasks: ``message`` labels
whole messages, ``term`` labels token spans inside them.  They differ
only in how a corpus row becomes a feature vector, which :data:`TASKS`
records.  The rest is one recipe: :func:`index` the training and test
vectors together, train a one-vs-rest SVM on the training rows and
score its test-row predictions by the pos/neg macro-F.  The CLI,
cross-validation and the ablation harness (:func:`run_ablation`) all go
through this module, so a given corpus, configuration and seed always
produce the same model and the same report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus_io import (
    CLASS_ORDER,
    LabeledMessage,
    Lexicon,
    MissingClassError,
    TermInstance,
    load_message_corpus,
    load_raw_corpus,
    load_term_corpus,
)
from .evaluation import EvalReport, macro_f_pos_neg
from .features_message import (
    DEFAULT_MESSAGE_CONFIG,
    FeatureDictionary,
    FeatureVector,
    IndexedVector,
    MessageFeatureConfig,
    build_feature_dictionary,
    check_affect_names,
    extract_message_features,
    select_columns,
    vectorize,
)
from .features_term import build_split_vocabulary, extract_term_features
from .linear_model import LinearModel, classify, train


def prepare_messages(messages: Sequence[LabeledMessage]) -> list[LabeledMessage]:
    """The messages as a list; a message is tokenized when it is built.

    Kept for the benchmark harness, which calls it by name.
    """
    return list(messages)


def prepare_raw(rows: Sequence[tuple[str, str]]) -> list[LabeledMessage]:
    """(id, text) rows as messages whose placeholder label is never scored."""
    return [LabeledMessage(id=i, text=t, label="neutral") for i, t in rows]


def _check_lexicon_names(lexicons: Sequence[Lexicon]) -> None:
    """Raise ``ValueError`` unless each lexicon names its features apart.

    A lexicon's features are named ``lex|<name>|...`` (on terms,
    ``tgt|lex|<name>|...`` and ``ctx|lex|<name>|...``), so two lexicons
    with one name would overwrite each other's statistics, and a ``|``
    in a name would make one lexicon's names a prefix of another's.  A
    tab or line break could not be saved in a model file.
    """
    seen = set()
    for lexicon in lexicons:
        if not frozenset("|\t\n\r").isdisjoint(lexicon.name):
            raise ValueError(
                f"lexicon name {lexicon.name!r} holds '|', a tab or a line break"
            )
        if lexicon.name in seen:
            raise ValueError(
                f"two lexicons are named {lexicon.name!r} (a lexicon read "
                "from a file is named after the file's stem)"
            )
        seen.add(lexicon.name)


def extract_message_vectors(
    messages: Sequence[LabeledMessage],
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    config: MessageFeatureConfig = DEFAULT_MESSAGE_CONFIG,
) -> list[FeatureVector]:
    _check_lexicon_names(lexicons)
    check_affect_names(lexicons)
    return [
        extract_message_features(m.tokens, lexicons, clusters, config)
        for m in messages
    ]


def extract_term_vectors(
    instances: Sequence[TermInstance],
    lexicons: Sequence[Lexicon] = (),
    split_words: frozenset[str] | None = None,
) -> list[FeatureVector]:
    _check_lexicon_names(lexicons)
    if split_words is None:
        split_words = build_split_vocabulary(lexicons)
    return [extract_term_features(inst, lexicons, split_words) for inst in instances]


def _load_messages(path: str | Path, format: str, raw: bool) -> list[LabeledMessage]:
    if raw and format != "plain":
        raise ValueError(f"raw input has no '{format}' format (--format)")
    if raw:
        return prepare_raw(load_raw_corpus(path))
    return load_message_corpus(path, format=format)


def _load_terms(path: str | Path, format: str, raw: bool) -> list[TermInstance]:
    if raw:
        raise ValueError("the term task has no raw input (--raw)")
    if format != "plain":
        raise ValueError(f"the term task has no '{format}' format (--format)")
    return load_term_corpus(path)


def _term_vectors(rows, lexicons, clusters, config=None):
    if clusters is not None:
        raise ValueError("the term task uses no cluster map (--clusters)")
    if config is not None:
        raise ValueError("the term task has no feature config")
    return extract_term_vectors(rows, lexicons)


# The lexicon groups of both tasks, with the kind of lexicon each
# removes (None: every lexicon).
LEXICON_GROUPS = {"lexicons": None, "manual-lex": "manual", "auto-lex": "auto"}


@dataclass(frozen=True)
class Task:
    """What one task does its own way: reading rows and featurizing them.

    ``load(path, format, raw)`` reads a corpus file into rows, each
    tokenized once when it is built, and ``extract(rows, lexicons,
    clusters[, config])`` featurizes them.  Each feature name
    starts with exactly one of ``namespaces``.  A lexicon's features lie
    under ``lexicon_namespaces`` followed by ``<name>|``.  ``groups``
    maps each feature group an ablation can remove, besides
    :data:`LEXICON_GROUPS`, to the name prefixes of its features, or to
    the config its variant extracts with when it renames features
    instead.
    """

    load: Callable[[str | Path, str, bool], list]
    extract: Callable[..., list[FeatureVector]]
    namespaces: tuple[str, ...]
    lexicon_namespaces: tuple[str, ...]
    groups: Mapping[str, tuple[str, ...] | MessageFeatureConfig]

    @property
    def ablations(self) -> tuple[str, ...]:
        """Every removable group, in the order error messages list them."""
        return (*LEXICON_GROUPS, *self.groups)

    def removal(
        self, group: str, lexicons: Sequence[Lexicon]
    ) -> tuple[str, ...] | MessageFeatureConfig:
        """The name prefixes ``group`` removes, or its variant's config."""
        if group not in LEXICON_GROUPS:
            return self.groups[group]
        kind = LEXICON_GROUPS[group]
        return tuple(
            f"{namespace}{lexicon.name}|"
            for namespace in self.lexicon_namespaces
            for lexicon in lexicons
            if kind in (None, lexicon.kind)
        )


TASKS: dict[str, Task] = {
    "message": Task(
        load=_load_messages,
        extract=extract_message_vectors,
        namespaces=(
            "wng|", "cng|", "caps|", "pos|", "ht|", "lex|", "pnc|", "emo|",
            "elo|", "cls|", "neg|",
        ),
        lexicon_namespaces=("lex|",),
        groups={
            "ngrams": ("wng|", "cng|"),
            "word-ngrams": ("wng|",),
            "char-ngrams": ("cng|",),
            # Negation marking renames n-gram and lexicon features.
            "negation": replace(DEFAULT_MESSAGE_CONFIG, negation=False),
            "pos": ("pos|",),
            "clusters": ("cls|",),
            "encodings": ("caps|", "ht|", "pnc|", "emo|", "elo|"),
        },
    ),
    "term": Task(
        load=_load_terms,
        extract=_term_vectors,
        namespaces=("tgt|", "ctx|"),
        lexicon_namespaces=("tgt|lex|", "ctx|lex|"),
        groups={"target": ("tgt|",), "context": ("ctx|",)},
    ),
}


def get_task(name: str) -> Task:
    try:
        return TASKS[name]
    except KeyError:
        raise ValueError(f"unknown task '{name}'") from None


def ablation_groups(task: str, groups: Sequence[str]) -> list[str]:
    """``groups`` lowercased; ValueError unless each is a group of ``task``
    and none is given twice."""
    valid, lowered = get_task(task).ablations, []
    for g in groups:
        if g.lower() not in valid:
            raise ValueError(
                f"unknown feature group '{g}' for {task} task; "
                f"valid groups: {', '.join(valid)}"
            )
        if g.lower() in lowered:
            raise ValueError(f"feature group '{g.lower()}' is given twice")
        lowered.append(g.lower())
    return lowered


def load_corpus(
    task: str, path: str | Path, format: str = "plain", raw: bool = False
) -> list:
    """Read a corpus file of ``task``.

    Message corpora are plain or tagged; with ``raw`` they are unlabeled
    ``id<TAB>text`` rows, and a ``format`` other than plain raises
    ``ValueError``.  Term corpora are plain only: a tagged ``format`` or
    ``raw`` raises ``ValueError``.
    """
    return get_task(task).load(path, format, raw)


def featurize(
    task: str,
    rows: Sequence,
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    config: MessageFeatureConfig | None = None,
) -> tuple[list[str], list[str], list[FeatureVector]]:
    """Ids, labels and feature vectors of rows as loaded.

    ``config`` defaults to the message task's full feature set; the term
    task has none.  Raises ``ValueError`` when two lexicons share a name
    or a name holds ``|``, a tab or a line break; for the message task
    when a lexicon has affects ``A`` and ``A_NEG``; and for the term task
    when given ``clusters`` or ``config``.
    """
    given = {} if config is None else {"config": config}
    vectors = get_task(task).extract(rows, lexicons, clusters, **given)
    return [r.id for r in rows], [r.label for r in rows], vectors


def index(
    vectors: Sequence[FeatureVector], held: Sequence[FeatureVector] = ()
) -> tuple[FeatureDictionary, list[IndexedVector]]:
    """The feature dictionary of ``vectors``, and ``vectors`` then ``held``
    indexed against it.

    ``held`` rows add no names to the dictionary: their names that
    ``vectors`` lack are dropped.
    """
    dictionary = build_feature_dictionary(vectors)
    return dictionary, [vectorize(v, dictionary) for v in (*vectors, *held)]


def cross_validate(
    dictionary: FeatureDictionary,
    rows: Sequence[IndexedVector],
    labels: Sequence[str],
    k: int = 10,
    seed: int = 42,
    **solver: float,
) -> list[float]:
    """K-fold cross-validation; returns the per-fold pos/neg macro-F.

    ``dictionary`` and ``rows`` are a corpus as :func:`index` returns
    it.  Folds are stratified by label; when some class has fewer
    examples than ``k``, a warning is emitted and plain shuffled folds
    are used.  A fold whose training rows lack a class raises
    ``ValueError`` before any fold trains.  Each fold keeps the columns
    its training rows use.  ``seed`` draws the folds and, with ``C``,
    ``tol`` and ``max_epochs``, goes to :func:`linear_model.train`.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(rows) != len(labels):
        raise ValueError(f"{len(rows)} vectors but {len(labels)} labels")
    if k > len(labels):
        raise ValueError(f"k = {k} folds but only {len(labels)} rows")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    if all(len(ids) >= k for ids in by_label.values()):
        drawn = [rng.permutation(by_label[label]) for label in sorted(by_label)]
    else:
        small = sorted(l for l, ids in by_label.items() if len(ids) < k)
        warnings.warn(
            f"classes {small} have fewer than {k} examples; "
            "using non-stratified folds",
            stacklevel=2,
        )
        drawn = [rng.permutation(len(labels))]
    folds = [[int(i) for ids in drawn for i in ids[f::k]] for f in range(k)]
    training = [[i for g in range(k) if g != f for i in folds[g]] for f in range(k)]
    for f, used in enumerate(training):
        if absent := sorted(set(CLASS_ORDER).difference(labels[i] for i in used)):
            raise MissingClassError(
                f"fold {f}: class '{absent[0]}' absent from training rows"
            )
    scores = []
    for used, held in zip(training, folds):
        keep = np.zeros(dictionary.size, dtype=bool)
        for i in used:
            keep[rows[i].indices] = True
        kept, selected = select_columns(dictionary, rows, keep)
        model = train(
            [selected[i] for i in used], [labels[i] for i in used], kept,
            seed=seed, **solver,
        )
        predicted = [classify(model, selected[i]) for i in held]
        scores.append(macro_f_pos_neg([labels[i] for i in held], predicted).macro_f)
        del kept, selected, model
    return scores


@dataclass
class ExperimentResult:
    report: EvalReport
    model: LinearModel


def run_experiment(
    task: str,
    train_rows: Sequence,
    test_rows: Sequence,
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    config: MessageFeatureConfig | None = None,
    **solver: float,
) -> ExperimentResult:
    """Train on training rows and score on test rows, indexed with them.

    ``config`` is as in :func:`featurize`; ``C``, ``tol``,
    ``max_epochs`` and ``seed`` go to :func:`linear_model.train`.
    """
    n, data = len(train_rows), [*train_rows, *test_rows]
    _, labels, vectors = featurize(task, data, lexicons, clusters, config)
    dictionary, rows = index(vectors[:n], vectors[n:])
    del vectors
    model = train(rows[:n], labels[:n], dictionary, **solver)
    report = macro_f_pos_neg(labels[n:], [classify(model, r) for r in rows[n:]])
    return ExperimentResult(report=report, model=model)


@dataclass(frozen=True)
class AblationRow:
    """One ablation result; the "all" row is the full-feature baseline."""

    group: str
    macro_f: float
    delta: float


def run_ablation(
    groups: Sequence[str],
    train_data: Sequence,
    test_data: Sequence,
    task: str = "message",
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    **solver: float,
) -> list[AblationRow]:
    """Retrain once per removed feature group and report score deltas.

    Every run passes ``C``, ``tol``, ``max_epochs`` and ``seed`` to
    :func:`linear_model.train`; only the features change.  The first row
    is the all-features baseline, followed by one row per group in the
    requested order.  Both corpora are featurized and indexed together
    once, and a group's run keeps the columns whose names start with none
    of the group's prefixes, so its model never sees them.  A group given
    as a config (``negation``) featurizes and indexes both corpora again
    with it instead; every run then trains and scores the same way.

    A group that removes nothing trains the same model as ``all``,
    reports a delta of 0.00 and warns, naming the group and why: a
    prefix group whose prefixes match no training feature, such as
    ``pos`` on plain input, ``clusters`` without a cluster map or
    ``auto-lex`` without an auto lexicon, and ``negation`` when no
    training or test message has a negated context.
    """
    spec = get_task(task)
    groups = ablation_groups(task, groups)
    n, data = len(train_data), [*train_data, *test_data]
    _, labels, vectors = featurize(task, data, lexicons, clusters)
    negated = any("neg|count" in v.entries for v in vectors)
    dictionary, rows = index(vectors[:n], vectors[n:])
    del vectors
    scores = []
    for group in [None, *groups]:
        removal = () if group is None else spec.removal(group, lexicons)
        if isinstance(removal, MessageFeatureConfig):
            _, _, vectors = featurize(task, data, lexicons, clusters, removal)
            kept, selected = index(vectors[:n], vectors[n:])
            del vectors
            absent = not negated and "no training or test message has a negated context"
        else:
            keep = np.array([not f.startswith(removal) for f in dictionary.names], bool)
            kept, selected = select_columns(dictionary, rows, keep)
            absent = group is not None and keep.all() and (
                f"no training feature starts with {' or '.join(map(repr, removal))}"
                if removal
                else "no lexicon of its kind was given"
            )
        if absent:
            warnings.warn(
                f"ablation group '{group}' removes nothing: {absent}", stacklevel=2
            )
        model = train(selected[:n], labels[:n], kept, **solver)
        predicted = [classify(model, r) for r in selected[n:]]
        scores.append(macro_f_pos_neg(labels[n:], predicted).macro_f)
        del selected, kept, model
    return [
        AblationRow(group=group, macro_f=value, delta=value - scores[0])
        for group, value in zip(["all", *groups], scores)
    ]


def run_message_experiment(
    train_messages: Sequence[LabeledMessage],
    test_messages: Sequence[LabeledMessage],
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    config: MessageFeatureConfig | None = None,
    **solver: float,
) -> ExperimentResult:
    """Train on one message corpus and score on another.

    ``config`` is as in :func:`featurize`; ``C``, ``tol``, ``max_epochs``
    and ``seed`` go to :func:`linear_model.train`.
    """
    return run_experiment(
        "message", train_messages, test_messages, lexicons, clusters, config, **solver
    )

