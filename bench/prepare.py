"""Generate one run's input files; part of the harness, timed by nothing.

Usage: python3 bench/prepare.py WORKLOAD SEED SIZES_JSON OUT_DIR

Writes the corpora and lexicons a workload reads, the way a command-line
user would have them, plus ``meta.json`` with what the output checks need
(gold labels, majority-baseline scores and, for predict-stream, the score
of the in-memory model before it was saved).  It runs in its own process
so that its memory does not count towards the measured process's peak.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from common import import_program, macro_f

# Share of each labeled corpus held out for scoring.
HELD_OUT = 0.3

# Share of messages given a negation word.  The synthetic generator never
# writes one, which would leave negation scoping and the _NEG features of
# the message workloads without work.
NEGATED_SHARE = 0.25


def _split(items):
    cut = len(items) - int(len(items) * HELD_OUT)
    return items[:cut], items[cut:]


def _majority_macro_f(train_labels, gold):
    from tweetsent.evaluation import majority_baseline

    label = majority_baseline(train_labels)
    return macro_f(gold, [label] * len(gold))


def _with_negations(messages, seed):
    """Insert "not" before a random non-final token of some messages."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    out = []
    for m in messages:
        if rng.random() < NEGATED_SHARE:
            words = m.text.split(" ")
            words.insert(int(rng.integers(0, len(words) - 1)), "not")
            m = replace(m, text=" ".join(words))
        out.append(m)
    return out


def _emoticon_rows(messages):
    """Unlabeled rows whose polarity shows only as a final emoticon."""
    marks = {"positive": " :)", "negative": " :("}
    return [(m.id, m.text + marks.get(m.label, "")) for m in messages]


def _labeled_corpora(items, count, size, out, write):
    corpora = []
    for k in range(count):
        train, test = _split(items[k * size : (k + 1) * size])
        write(train, out / f"train_{k}.tsv")
        write(test, out / f"test_{k}.tsv")
        corpora.append(
            {
                "train": f"train_{k}.tsv",
                "test": f"test_{k}.tsv",
                "train_rows": len(train),
                "test_rows": len(test),
                "gold": [x.label for x in test],
                "majority_macro_f": _majority_macro_f(
                    [x.label for x in train], [x.label for x in test]
                ),
            }
        )
    return corpora


def _stream_model(messages, lexicon, out):
    """Train and save the predict-stream model; return its held-out score."""
    from tweetsent import linear_model, pipeline
    from tweetsent.corpus_io import write_raw_corpus

    from jobs import trained_info, train_and_save

    train, stream = messages
    prepared = pipeline.prepare_messages(train)
    vectors = pipeline.extract_message_vectors(prepared, [lexicon])
    model = train_and_save(vectors, [p.label for p in prepared], out / "model.tsv")
    rows = [(m.id, m.text) for m in stream]
    write_raw_corpus(rows, out / "stream.tsv")
    held = pipeline.extract_message_vectors(pipeline.prepare_raw(rows), [lexicon])
    gold = [m.label for m in stream]
    predicted = [linear_model.predict(model, v) for v in held]
    return {
        "gold": gold,
        "in_memory_macro_f": macro_f(gold, predicted),
        "majority_macro_f": _majority_macro_f([m.label for m in train], gold),
        "model": trained_info(model, vectors, out / "model.tsv"),
    }


def prepare(workload: str, seed: int, sizes: dict, out: Path) -> dict:
    from tweetsent.corpus_io import (
        write_lexicon,
        write_message_corpus,
        write_raw_corpus,
        write_term_corpus,
    )
    from tweetsent.synthetic import make_message_corpus, make_term_corpus

    started = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    meta = {"workload": workload, "seed": seed, "sizes": sizes}
    count = sizes.get("corpora", 1)
    labeled = sizes["labeled"]
    if workload == "term-planted":
        instances, lexicon = make_term_corpus(n=count * labeled, seed=seed)
        write_lexicon(lexicon, out / "planted.tsv")
        meta["corpora"] = _labeled_corpora(
            instances, count, labeled, out, write_term_corpus
        )
    elif workload == "predict-stream":
        messages, lexicon = make_message_corpus(
            n=labeled + sizes["stream"], seed=seed
        )
        messages = _with_negations(messages, seed)
        write_lexicon(lexicon, out / "planted.tsv")
        meta.update(
            _stream_model((messages[:labeled], messages[labeled:]), lexicon, out)
        )
    else:
        raw = sizes.get("raw", 0)
        # make_message_corpus draws its vocabulary first and then one message
        # at a time, so the extra raw rows share the labeled rows' words.
        messages, lexicon = make_message_corpus(n=count * labeled + raw, seed=seed)
        messages = _with_negations(messages, seed)
        meta["corpora"] = _labeled_corpora(
            messages, count, labeled, out, write_message_corpus
        )
        if raw:
            write_raw_corpus(_emoticon_rows(messages[count * labeled :]), out / "raw.tsv")
            meta["raw_rows"] = raw
        else:
            write_lexicon(lexicon, out / "planted.tsv")
    meta["prepare_s"] = time.perf_counter() - started
    (out / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return meta


def main(argv: list[str]) -> int:
    workload, seed, sizes, out = argv
    import_program()
    prepare(workload, int(seed), json.loads(sizes), Path(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
