"""Spans and counts around calls into tweetsent's public functions.

Used only by the traced run.  While ``installed`` is active, every function
listed in ``LAYERS`` is replaced, in each tweetsent module that binds it,
by a wrapper that records a span (layer, start, end, parent span, run id)
and, for some functions, counts read off the call's arguments and result.
The program's code is not changed; leaving the context restores it.

A layer's self time is the time its spans cover minus the time covered by
spans opened inside them, so nested calls (tokenizing inside term feature
extraction, vectorizing inside predict) are charged to the inner layer.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

# layer -> (tweetsent module, public functions whose calls it covers)
LAYERS = {
    "corpus_io.load": (
        "corpus_io",
        ("load_message_corpus", "load_raw_corpus", "load_term_corpus", "load_lexicon"),
    ),
    "corpus_io.write": (
        "corpus_io",
        ("write_lexicon", "write_message_corpus", "write_raw_corpus", "write_term_corpus"),
    ),
    "tokenizer": ("tokenizer", ("normalize", "tokenize")),
    "negation": ("negation", ("mark_negation",)),
    "features_message.extract": ("features_message", ("extract_message_features",)),
    "features_message.dictionary": ("features_message", ("build_feature_dictionary",)),
    "features_message.vectorize": ("features_message", ("vectorize",)),
    "features_term.extract": ("features_term", ("extract_term_features",)),
    "linear_model.train": ("linear_model", ("train",)),
    "linear_model.predict": ("linear_model", ("predict",)),
    "linear_model.save": ("linear_model", ("save_model",)),
    "linear_model.load": ("linear_model", ("load_model",)),
    "lexicon_builder.build": (
        "lexicon_builder",
        ("build_lexicon", "pseudo_label_by_emoticon"),
    ),
}

ROOT_LAYER = "job"


def _count_tokenize(counts, args, result, parent):
    counts["tokens"] += len(result.tokens)


def _count_mark_negation(counts, args, result, parent):
    counts["contexts"] += result.count


def _count_message_features(counts, args, result, parent):
    counts["message_rows"] += 1
    counts["message_nnz"] += len(result.entries)
    counts["message_lex_nnz"] += sum(1 for n in result.entries if n.startswith("lex|"))


def _count_term_features(counts, args, result, parent):
    counts["term_rows"] += 1
    counts["term_nnz"] += len(result.entries)


def _count_dictionary(counts, args, result, parent):
    counts["dim"] = result.size


def _count_vectorize(counts, args, result, parent):
    # Only lookups made for a prediction measure what the model cannot see.
    if parent == "linear_model.predict":
        seen = len(args[0].entries)
        counts["predict_occurrences"] += seen
        counts["predict_dropped"] += seen - len(result.indices)


def _count_train(counts, args, result, parent):
    epochs = sum(result.epochs or ())
    counts["epochs"] += epochs
    counts["coord_steps"] += epochs * len(args[0])
    for alpha in result.alphas or ():
        counts["support_vectors"] += int((alpha > 0).sum())
        counts["bound_svs"] += int((alpha >= result.C).sum())


def _count_save(counts, args, result, parent):
    counts["model_bytes"] = os.path.getsize(args[1])


def _count_load(counts, args, result, parent):
    counts["model_bytes"] = os.path.getsize(args[0])
    counts["dim"] = result.dictionary.size


def _count_build_lexicon(counts, args, result, parent):
    counts["entries"] += len(result.entries)
    counts["entries_pair"] += sum(1 for t in result.entries if t.startswith("pair:"))


def _count_pseudo_label(counts, args, result, parent):
    counts["label_attempts"] += 1
    counts["labeled"] += result is not None


COUNTERS = {
    "tokenize": _count_tokenize,
    "mark_negation": _count_mark_negation,
    "extract_message_features": _count_message_features,
    "extract_term_features": _count_term_features,
    "build_feature_dictionary": _count_dictionary,
    "vectorize": _count_vectorize,
    "train": _count_train,
    "save_model": _count_save,
    "load_model": _count_load,
    "build_lexicon": _count_build_lexicon,
    "pseudo_label_by_emoticon": _count_pseudo_label,
}


class Tracer:
    """Keeps spans in memory; one run id per traced job.

    Span fields live in parallel lists of plain numbers and strings, which
    the garbage collector does not track, so recording stays cheap.
    """

    def __init__(self) -> None:
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []  # index of the enclosing span, or -1
        self.run: list[int] = []
        self.counts: dict[int, defaultdict] = {}
        self.run_id = -1
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, counter):
        layers, starts, ends, parents, runs = (
            self.layer, self.start, self.end, self.parent, self.run
        )
        stack, clock = self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(starts)
            layers.append(layer)
            parents.append(parent)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                parent_layer = layers[parent] if parent >= 0 else None
                counter(self.counts[self.run_id], args, result, parent_layer)
            return result

        return traced

    def run_job(self, body):
        """Call ``body()`` under a root span with a fresh run id."""
        self.run_id += 1
        self.counts[self.run_id] = defaultdict(int)
        with installed(self):
            return self.wrap(ROOT_LAYER, body, None)()

    def self_times(self, run_id: int) -> dict[str, float]:
        """Seconds per layer not covered by a nested span, for one job."""
        out: dict[str, float] = defaultdict(float)
        for i, rid in enumerate(self.run):
            if rid != run_id:
                continue
            took = self.end[i] - self.start[i]
            out[self.layer[i]] += took
            if self.parent[i] >= 0:
                out[self.layer[self.parent[i]]] -= took
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = {
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run_id": self.run,
        }
        with path.open("w", encoding="utf-8") as fh:
            json.dump(columns, fh)


@contextmanager
def installed(tracer: Tracer):
    """Route calls to the ``LAYERS`` functions through ``tracer``."""
    wrappers = {}
    for layer, (module, names) in LAYERS.items():
        mod = importlib.import_module(f"tweetsent.{module}")
        for name in names:
            original = getattr(mod, name)
            wrappers[id(original)] = (
                original,
                tracer.wrap(layer, original, COUNTERS.get(name)),
            )
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "tweetsent" and not mod_name.startswith("tweetsent."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)
