"""The jobs the workloads time: calls into tweetsent's public functions.

Every call goes through a module attribute (``pipeline.prepare_messages``,
not a name imported from it), so that the traced run can put a span around
it.  A job reads only the files ``prepare.py`` wrote and returns what the
output checks and the provenance record need.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

from tweetsent import (
    corpus_io,
    evaluation,
    features_message,
    features_term,
    lexicon_builder,
    linear_model,
    pipeline,
    wordlists,
)

clock = time.perf_counter

# Seed the models are trained with; the workload seed only shapes inputs.
TRAIN_SEED = 42


@dataclass
class Outcome:
    """Timings and outputs of one job."""

    job_s: float
    setup_s: float
    rows: int  # rows the job read: labeled, raw or streamed
    latencies: list[float]  # seconds per scored row
    predicted: list[str]
    model: dict  # provenance: dim, nnz_per_row, epochs, sha256


def _fresh_word_lists() -> None:
    # The bundled word lists are cached per process.  A command-line run
    # reads them once, so every job starts without the cache.
    clear = getattr(getattr(wordlists, "_bundled", None), "cache_clear", None)
    if clear is not None:
        clear()


def train_and_save(vectors, labels, path: Path):
    """Dictionary, vectorize, train and save: the command-line train step."""
    dictionary = features_message.build_feature_dictionary(vectors)
    indexed = [features_message.vectorize(v, dictionary) for v in vectors]
    model = linear_model.train(indexed, labels, dictionary, seed=TRAIN_SEED)
    linear_model.save_model(model, path)
    return model


def _score(items, predict_one):
    """Predict one row at a time; return labels and per-row latencies."""
    predicted, latencies = [], []
    for item in items:
        began = clock()
        predicted.append(predict_one(item))
        latencies.append(clock() - began)
    return predicted, latencies


def _write_report(gold, predicted, path: Path) -> None:
    report = evaluation.macro_f_pos_neg(gold, predicted)
    path.write_text(evaluation.format_report(report), encoding="utf-8")


def trained_info(model, vectors, path: Path) -> dict:
    """Provenance of a saved model."""
    return {
        "dim": model.dictionary.size,
        "nnz_per_row": sum(len(v) for v in vectors) / len(vectors),
        "epochs": list(model.epochs),
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


def message_job(work: Path, meta: dict, k: int) -> Outcome:
    """msg-planted and msg-induced: (induce,) train, save, score, report."""
    corpus = meta["corpora"][k]
    model_path = work / f"model_{k}.tsv"
    _fresh_word_lists()
    start = clock()
    rows = corpus["train_rows"] + corpus["test_rows"]
    if "raw_rows" in meta:
        raw = corpus_io.load_raw_corpus(work / "raw.tsv")
        induced = lexicon_builder.build_lexicon(raw, "emoticon", name="induced")
        corpus_io.write_lexicon(induced, work / "induced.tsv")
        rows += len(raw)
        resources = [("induced.tsv", "auto")]
    else:
        resources = [("planted.tsv", "manual")]
    setup_start = clock()
    lexicons = [corpus_io.load_lexicon(work / f, kind=kind) for f, kind in resources]
    wordlists.default_negation_words()
    setup_s = clock() - setup_start

    train = corpus_io.load_message_corpus(work / corpus["train"])
    prepared = pipeline.prepare_messages(train)
    vectors = pipeline.extract_message_vectors(prepared, lexicons)
    model = train_and_save(vectors, [p.label for p in prepared], model_path)

    def predict_one(message):
        one = pipeline.prepare_messages([message])
        return linear_model.predict(
            model, pipeline.extract_message_vectors(one, lexicons)[0]
        )

    test = corpus_io.load_message_corpus(work / corpus["test"])
    predicted, latencies = _score(test, predict_one)
    _write_report([m.label for m in test], predicted, work / f"report_{k}.txt")
    job_s = clock() - start
    return Outcome(
        job_s, setup_s, rows, latencies, predicted,
        trained_info(model, vectors, model_path),
    )


def term_job(work: Path, meta: dict, k: int) -> Outcome:
    """term-planted: train, save, score and report on labeled spans."""
    corpus = meta["corpora"][k]
    model_path = work / f"model_{k}.tsv"
    _fresh_word_lists()
    start = clock()
    lexicons = [corpus_io.load_lexicon(work / "planted.tsv")]
    wordlists.default_negation_words()
    wordlists.default_stopwords()
    split_words = features_term.build_split_vocabulary(lexicons)
    setup_s = clock() - start

    train = corpus_io.load_term_corpus(work / corpus["train"])
    vectors = pipeline.extract_term_vectors(train, lexicons, split_words=split_words)
    model = train_and_save(vectors, [t.label for t in train], model_path)

    def predict_one(instance):
        vector = pipeline.extract_term_vectors(
            [instance], lexicons, split_words=split_words
        )[0]
        return linear_model.predict(model, vector)

    test = corpus_io.load_term_corpus(work / corpus["test"])
    predicted, latencies = _score(test, predict_one)
    _write_report([t.label for t in test], predicted, work / f"report_{k}.txt")
    job_s = clock() - start
    return Outcome(
        job_s, setup_s, corpus["train_rows"] + corpus["test_rows"], latencies,
        predicted, trained_info(model, vectors, model_path),
    )


def stream_job(work: Path, meta: dict, k: int) -> Outcome:
    """predict-stream: load model and lexicon, then one message at a time."""
    model_path = work / "model.tsv"
    _fresh_word_lists()
    start = clock()
    model = linear_model.load_model(model_path)
    lexicons = [corpus_io.load_lexicon(work / "planted.tsv")]
    wordlists.default_negation_words()
    setup_s = clock() - start

    def predict_one(row):
        one = pipeline.prepare_raw([row])
        return linear_model.predict(
            model, pipeline.extract_message_vectors(one, lexicons)[0]
        )

    rows = corpus_io.load_raw_corpus(work / "stream.tsv")
    predicted, latencies = _score(rows, predict_one)
    job_s = clock() - start
    return Outcome(job_s, setup_s, len(rows), latencies, predicted, meta["model"])


JOBS = {
    "msg-planted": message_job,
    "msg-induced": message_job,
    "predict-stream": stream_job,
    "term-planted": term_job,
}
