"""Tiny-size smoke check of the benchmark.

Usage (from the root of a checkout): python3 bench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run emits exactly the metrics ``BENCHMARK.json`` names, each with its
unit, that end-to-end metrics are positive, that every layer a workload
uses reports a positive count or time, and that no operation failed.
Then it breaks the program's output on purpose and checks that the
benchmark's output checks count failed operations:

- every predicted label flipped between positive and negative, on a batch
  workload and on predict-stream;
- on predict-stream, the lexicon read back under another name, so that
  the saved model's lexicon feature names no longer match and those
  features are silently dropped.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import sys

from common import ROOT, WORKLOADS, import_program

TINY = {
    "msg-planted": {"corpora": 2, "labeled": 300},
    "msg-induced": {"corpora": 2, "labeled": 300, "raw": 600},
    "predict-stream": {"labeled": 300, "stream": 150},
    "term-planted": {"corpora": 2, "labeled": 300},
}

_TRAINED = [
    "features_message.dictionary.s", "features_message.dim",
    "linear_model.train.s", "linear_model.epochs", "linear_model.coord_steps",
    "linear_model.us_per_step", "linear_model.support_vectors",
    "linear_model.save.s", "linear_model.model_bytes",
]
_MESSAGES = [
    "negation.s", "negation.contexts", "features_message.extract.s",
    "features_message.nnz_per_row", "features_message.lex_nnz_per_row",
]
_EVERY = [
    "tokenizer.s", "tokenizer.tokens", "features_message.vectorize.s",
    "features_message.vectorize.dropped_share", "linear_model.predict.s",
    "corpus_io.load.s", "trace.job_s",
]

# Per-layer metrics that must be positive in each workload's traced run.
USED = {
    "msg-planted": _EVERY + _MESSAGES + _TRAINED,
    "msg-induced": _EVERY + _MESSAGES + _TRAINED + [
        "lexicon_builder.build.s", "lexicon_builder.labeled_share",
        "lexicon_builder.entries", "lexicon_builder.entries.pair",
        "corpus_io.write.s",
    ],
    "predict-stream": _EVERY + _MESSAGES + [
        "features_message.dim", "linear_model.load.s", "linear_model.model_bytes",
    ],
    "term-planted": _EVERY + _TRAINED + [
        "features_term.extract.s", "features_term.nnz_per_row",
    ],
}

FLIP = {"positive": "negative", "negative": "positive", "neutral": "neutral"}


def _run(run, workload, trace):
    return run.run_workload(workload, seed=3, seconds=0.1, trace=trace,
                            sizes=TINY[workload])


def check_metrics(run, spec, problems) -> None:
    for workload in WORKLOADS:
        for trace in (False, True):
            where = f"{workload} trace={int(trace)}"
            line = json.loads(json.dumps(_run(run, workload, trace)["line"]))
            named = spec["per_layer" if trace else "end_to_end"]
            if set(line["metrics"]) != {m["name"] for m in named}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
                continue
            for m in named:
                got = line["metrics"][m["name"]]
                value = got["value"]
                if got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got['unit']}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {m['name']} = {value!r}")
                elif value <= 0 and (not trace or m["name"] in USED[workload]):
                    problems.append(f"{where}: {m['name']} = {value}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{where}: {line['correct']=} {line['failed']=}")


def _expect_failures(run, workload, module, name, replacement, what, problems):
    original = getattr(module, name)
    setattr(module, name, replacement(original))
    try:
        line = _run(run, workload, False)["line"]
    finally:
        setattr(module, name, original)
    if line["correct"] or line["failed"] == 0:
        problems.append(f"{workload}: {what} was not caught")


def check_output_checks(run, problems) -> None:
    from tweetsent import corpus_io, linear_model

    def flipped(predict):
        return lambda model, vector: FLIP[predict(model, vector)]

    def renamed(load_lexicon):
        return lambda path, name=None, kind="manual": load_lexicon(
            path, name="lex", kind=kind
        )

    for workload in ("msg-planted", "predict-stream"):
        _expect_failures(run, workload, linear_model, "predict", flipped,
                         "flipped predictions", problems)
    _expect_failures(run, "predict-stream", corpus_io, "load_lexicon", renamed,
                     "a lexicon loaded under another name", problems)


def main() -> int:
    import_program()
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_metrics(run, spec, problems)
    check_output_checks(run, problems)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
