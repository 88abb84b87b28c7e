"""End-to-end plumbing: corpus -> features -> model -> report.

This is the only module that knows the two tasks: ``message`` labels
whole messages, ``term`` labels token spans inside them.  They differ
only in how a corpus row becomes a feature vector, which :data:`TASKS`
records.  The rest is one recipe: :func:`fit` a one-vs-rest SVM on
training vectors and :func:`score` its predictions by the pos/neg
macro-F.  The CLI, cross-validation and the ablation harness
(:func:`run_ablation`) all go through this module, so a given corpus,
configuration and seed always produce the same model and the same
report.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus_io import (
    LabeledMessage,
    Lexicon,
    TermInstance,
    load_message_corpus,
    load_raw_corpus,
    load_term_corpus,
)
from .evaluation import EvalReport, macro_f_pos_neg
from .features_message import (
    DEFAULT_MESSAGE_CONFIG,
    FeatureVector,
    MessageFeatureConfig,
    build_feature_dictionary,
    extract_message_features,
    vectorize,
)
from .features_term import (
    DEFAULT_TERM_CONFIG,
    TermFeatureConfig,
    build_split_vocabulary,
    extract_term_features,
)
from .linear_model import LinearModel, predict, train
from .negation import NegationAnnotation, mark_negation
from .tokenizer import TokenizedMessage, normalize, tokenize, tokens_from_tagged


@dataclass(frozen=True)
class PreparedMessage:
    """A message tokenized and negation-annotated once, reused across runs."""

    id: str
    label: str | None
    tokens: TokenizedMessage
    annotation: NegationAnnotation


def prepare_messages(messages: Sequence[LabeledMessage]) -> list[PreparedMessage]:
    """Tokenize and annotate a corpus; tagged tokens are kept as given."""
    prepared = []
    for msg in messages:
        if msg.tagged is not None:
            tokens = tokens_from_tagged(msg.tagged)
        else:
            tokens = tokenize(normalize(msg.text))
        prepared.append(
            PreparedMessage(
                id=msg.id,
                label=msg.label,
                tokens=tokens,
                annotation=mark_negation(tokens),
            )
        )
    return prepared


def _unlabeled(rows: Sequence[tuple[str, str]]) -> list[LabeledMessage]:
    """(id, text) rows as messages whose placeholder label is never scored."""
    return [LabeledMessage(id=i, text=t, label="neutral") for i, t in rows]


def prepare_raw(rows: Sequence[tuple[str, str]]) -> list[PreparedMessage]:
    """Prepare unlabeled (id, text) rows for prediction."""
    return prepare_messages(_unlabeled(rows))


def extract_message_vectors(
    prepared: Sequence[PreparedMessage],
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    config: MessageFeatureConfig = DEFAULT_MESSAGE_CONFIG,
) -> list[FeatureVector]:
    return [
        extract_message_features(p.tokens, p.annotation, lexicons, clusters, config)
        for p in prepared
    ]


def extract_term_vectors(
    instances: Sequence[TermInstance],
    lexicons: Sequence[Lexicon] = (),
    split_words: frozenset[str] | None = None,
    config: TermFeatureConfig = DEFAULT_TERM_CONFIG,
) -> list[FeatureVector]:
    if split_words is None:
        split_words = build_split_vocabulary(lexicons)
    return [
        extract_term_features(inst, lexicons, split_words, config)
        for inst in instances
    ]


def _load_messages(path: str | Path, format: str, raw: bool) -> list[LabeledMessage]:
    if raw:
        return _unlabeled(load_raw_corpus(path))
    return load_message_corpus(path, format=format)


def _load_terms(path: str | Path, format: str, raw: bool) -> list[TermInstance]:
    if raw:
        raise ValueError("the term task has no raw input (--raw)")
    if format != "plain":
        raise ValueError(f"the term task has no '{format}' format (--format)")
    return load_term_corpus(path)


def _message_vectors(rows, active, lexicons, clusters, config):
    return extract_message_vectors(rows, active, clusters, config)


def _term_vectors(rows, active, lexicons, clusters, config):
    if clusters is not None:
        raise ValueError("the term task uses no cluster map (--clusters)")
    # Hashtags split with the words of every lexicon given, including
    # the ones an ablation variant leaves out.
    split_words = build_split_vocabulary(lexicons)
    return extract_term_vectors(rows, active, split_words=split_words, config=config)


# An ablation variant maps (feature config, lexicons) to the reduced pair.
Variant = Callable[[object, Sequence[Lexicon]], tuple[object, Sequence[Lexicon]]]


def _switch_off(*flags: str) -> Variant:
    return lambda config, lexicons: (
        replace(config, **dict.fromkeys(flags, False)),
        lexicons,
    )


def _drop_kind(kind: str) -> Variant:
    return lambda config, lexicons: (
        config,
        [lex for lex in lexicons if lex.kind != kind],
    )


# Both tasks remove lexicons the same way: from the list given.
_LEXICON_ABLATIONS: dict[str, Variant] = {
    "lexicons": lambda config, lexicons: (config, ()),
    "manual-lex": _drop_kind("manual"),
    "auto-lex": _drop_kind("auto"),
}


@dataclass(frozen=True)
class Task:
    """What one task does its own way: reading rows and featurizing them.

    ``load(path, format, raw)`` reads a corpus file and ``prepare`` turns
    its rows into what ``extract(rows, active, lexicons, clusters,
    config)`` featurizes; a run prepares each corpus once.
    ``ablations`` maps each feature group an ablation can remove to its
    variant, in the order error messages list them.
    """

    load: Callable[[str | Path, str, bool], list]
    prepare: Callable[[Sequence], list]
    extract: Callable[..., list[FeatureVector]]
    default_config: MessageFeatureConfig | TermFeatureConfig
    ablations: Mapping[str, Variant]


TASKS: dict[str, Task] = {
    "message": Task(
        load=_load_messages,
        prepare=prepare_messages,
        extract=_message_vectors,
        default_config=DEFAULT_MESSAGE_CONFIG,
        ablations={
            **_LEXICON_ABLATIONS,
            "ngrams": _switch_off("word_ngrams", "char_ngrams"),
            "word-ngrams": _switch_off("word_ngrams"),
            "char-ngrams": _switch_off("char_ngrams"),
            "negation": _switch_off("negation"),
            "pos": _switch_off("pos_counts"),
            "clusters": _switch_off("clusters"),
            "encodings": _switch_off("encodings"),
        },
    ),
    "term": Task(
        load=_load_terms,
        prepare=list,
        extract=_term_vectors,
        default_config=DEFAULT_TERM_CONFIG,
        ablations={
            **_LEXICON_ABLATIONS,
            "target": _switch_off("target"),
            "context": _switch_off("context"),
        },
    ),
}


def get_task(name: str) -> Task:
    try:
        return TASKS[name]
    except KeyError:
        raise ValueError(f"unknown task '{name}'") from None


def ablation_groups(task: str, groups: Sequence[str]) -> list[str]:
    """``groups`` lowercased; ValueError unless each is a group of ``task``."""
    valid = get_task(task).ablations
    for g in groups:
        if g.lower() not in valid:
            raise ValueError(
                f"unknown feature group '{g}' for {task} task; "
                f"valid groups: {', '.join(valid)}"
            )
    return [g.lower() for g in groups]


def load_corpus(
    task: str, path: str | Path, format: str = "plain", raw: bool = False
) -> list:
    """Read a corpus file of ``task``.

    Message corpora are plain or tagged; with ``raw`` they are unlabeled
    ``id<TAB>text`` rows.  Term corpora are plain only: a tagged
    ``format`` or ``raw`` raises ``ValueError``.
    """
    return get_task(task).load(path, format, raw)


def prepare(task: str, data: Sequence) -> list:
    """Rows ready to featurize: messages tokenized and negation-annotated."""
    return get_task(task).prepare(data)


def _check_lexicon_names(lexicons: Sequence[Lexicon]) -> None:
    """Raise ``ValueError`` unless each lexicon names its features apart.

    A lexicon's features are named ``lex|<name>|...``, so two lexicons
    with one name would overwrite each other's statistics, and a ``|``
    in a name would make one lexicon's names a prefix of another's.  A
    tab or line break could not be saved in a model file.
    """
    seen = set()
    for lexicon in lexicons:
        if any(c in lexicon.name for c in "|\t\n\r"):
            raise ValueError(
                f"lexicon name {lexicon.name!r} holds '|', a tab or a line break"
            )
        if lexicon.name in seen:
            raise ValueError(
                f"two lexicons are named {lexicon.name!r} (a lexicon read "
                "from a file is named after the file's stem)"
            )
        seen.add(lexicon.name)


def featurize(
    task: str,
    rows: Sequence,
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    config: MessageFeatureConfig | TermFeatureConfig | None = None,
    removed: str | None = None,
) -> tuple[list[str], list[str], list[FeatureVector]]:
    """Ids, labels and feature vectors of prepared rows.

    ``config`` defaults to the task's full feature set.  ``removed``
    names a feature group of the task's ablations to leave out.  Raises
    ``ValueError`` when two lexicons share a name or a name holds ``|``,
    a tab or a line break, and for the term task when given
    ``clusters``.
    """
    spec = get_task(task)
    _check_lexicon_names(lexicons)
    config = spec.default_config if config is None else config
    active = lexicons
    if removed is not None:
        (removed,) = ablation_groups(task, [removed])
        config, active = spec.ablations[removed](config, lexicons)
    vectors = spec.extract(rows, active, lexicons, clusters, config)
    return [r.id for r in rows], [r.label for r in rows], vectors


def fit(
    vectors: Sequence[FeatureVector],
    labels: Sequence[str],
    C: float = 0.005,
    tol: float = 0.1,
    max_epochs: int = 1000,
    seed: int = 42,
) -> LinearModel:
    """Build the feature dictionary from ``vectors``, index them and train."""
    dictionary = build_feature_dictionary(vectors)
    indexed = [vectorize(v, dictionary) for v in vectors]
    return train(
        indexed, labels, dictionary, C=C, tol=tol, max_epochs=max_epochs, seed=seed
    )


def score(
    model: LinearModel, vectors: Sequence[FeatureVector], labels: Sequence[str]
) -> EvalReport:
    """Predict every vector and score the predictions against ``labels``."""
    return macro_f_pos_neg(labels, [predict(model, v) for v in vectors])


def cross_validate(
    vectors: Sequence[FeatureVector],
    labels: Sequence[str],
    k: int = 10,
    seed: int = 42,
    C: float = 0.005,
    tol: float = 0.1,
    max_epochs: int = 1000,
) -> list[float]:
    """K-fold cross-validation; returns the per-fold pos/neg macro-F.

    Folds are stratified by label; when some class has fewer examples
    than ``k``, a warning is emitted and plain shuffled folds are used.
    Each fold is fit from scratch, feature dictionary included.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(vectors) != len(labels):
        raise ValueError(f"{len(vectors)} vectors but {len(labels)} labels")
    if k > len(labels):
        raise ValueError(f"k = {k} folds but only {len(labels)} rows")
    rng = np.random.default_rng(seed)
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    folds: list[list[int]] = [[] for _ in range(k)]
    if all(len(ids) >= k for ids in by_label.values()):
        for label in sorted(by_label):
            ids = np.array(by_label[label])
            for j, idx in enumerate(rng.permutation(ids)):
                folds[j % k].append(int(idx))
    else:
        small = sorted(l for l, ids in by_label.items() if len(ids) < k)
        warnings.warn(
            f"classes {small} have fewer than {k} examples; "
            "using non-stratified folds",
            stacklevel=2,
        )
        for j, idx in enumerate(rng.permutation(len(labels))):
            folds[j % k].append(int(idx))

    scores = []
    for f in range(k):
        used = [i for g in range(k) if g != f for i in folds[g]]
        model = fit(
            [vectors[i] for i in used], [labels[i] for i in used],
            C=C, tol=tol, max_epochs=max_epochs, seed=seed,
        )
        held = folds[f]
        report = score(model, [vectors[i] for i in held], [labels[i] for i in held])
        scores.append(report.macro_f)
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
    config: MessageFeatureConfig | TermFeatureConfig | None = None,
    removed: str | None = None,
    C: float = 0.005,
    tol: float = 0.1,
    max_epochs: int = 1000,
    seed: int = 42,
) -> ExperimentResult:
    """Fit on prepared training rows and score on prepared test rows.

    ``config`` and ``removed`` are as in :func:`featurize`.
    """
    features = (lexicons, clusters, config, removed)
    _, labels, vectors = featurize(task, train_rows, *features)
    model = fit(vectors, labels, C=C, tol=tol, max_epochs=max_epochs, seed=seed)
    _, gold, vectors = featurize(task, test_rows, *features)
    return ExperimentResult(report=score(model, vectors, gold), model=model)


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
    C: float = 0.005,
    tol: float = 0.1,
    max_epochs: int = 1000,
    seed: int = 42,
) -> list[AblationRow]:
    """Retrain once per removed feature group and report score deltas.

    Every run uses the same seed and hyperparameters; only the feature
    configuration changes.  The first row is the all-features baseline,
    followed by one row per group in the requested order.  Each corpus
    is prepared once for all the runs.
    """
    groups = ablation_groups(task, groups)
    train_rows = prepare(task, train_data)
    test_rows = prepare(task, test_data)
    scores = [
        run_experiment(
            task, train_rows, test_rows, lexicons, clusters, removed=group,
            C=C, tol=tol, max_epochs=max_epochs, seed=seed,
        ).report.macro_f
        for group in [None, *groups]
    ]
    baseline = scores[0]
    return [
        AblationRow(group=group, macro_f=value, delta=value - baseline)
        for group, value in zip(["all", *groups], scores)
    ]


def run_message_experiment(
    train_messages: Sequence[LabeledMessage],
    test_messages: Sequence[LabeledMessage],
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    config: MessageFeatureConfig = DEFAULT_MESSAGE_CONFIG,
    C: float = 0.005,
    tol: float = 0.1,
    max_epochs: int = 1000,
    seed: int = 42,
) -> ExperimentResult:
    """Train on one message corpus and score on another."""
    return run_experiment(
        "message", prepare_messages(train_messages), prepare_messages(test_messages),
        lexicons, clusters, config, C=C, tol=tol, max_epochs=max_epochs, seed=seed,
    )

