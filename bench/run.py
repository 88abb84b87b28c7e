"""tweetsent benchmark: run one workload for one seed and report its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload msg-planted --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

A run builds its inputs in a child process (``prepare.py``, untimed), then,
in this process and on one thread, repeats the workload's job from
``jobs.py`` for about ``--seconds`` seconds and checks every job's output.
With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``.  With ``--trace 1`` it alternates untraced and traced
jobs and reports the per-layer metrics: self time and counts per layer
from the spans of ``spans.py``, and the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload in its own process and prints each
metric by name with its unit; it exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as clock

from common import ROOT, SIZES, WORK, WORKLOADS, import_program, macro_f
from spans import ROOT_LAYER, Tracer
from speed import REFERENCE_S, SpeedProbe

BENCH = Path(__file__).resolve().parent
CLASSES = ("negative", "neutral", "positive")

# The model read back from its file must score within this many macro-F
# points of the model that was saved.
RELOAD_TOLERANCE = 0.01


@dataclass
class Attempt:
    corpus: int
    traced: bool
    run_id: int
    outcome: object  # jobs.Outcome, or None when the job raised
    factor: float = 1.0  # scales the job's times to the reference speed


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _prepare(workload: str, seed: int, sizes: dict, work: Path) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "prepare.py"), workload, str(seed),
         json.dumps(sizes), str(work)],
        check=True,
        timeout=150,
    )
    return json.loads((work / "meta.json").read_text(encoding="utf-8"))


def _attempt(job, work, meta, k, tracer) -> Attempt:
    try:
        if tracer is None:
            return Attempt(k, False, -1, job(work, meta, k))
        outcome = tracer.run_job(lambda: job(work, meta, k))
        return Attempt(k, True, tracer.run_id, outcome)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Attempt(k, tracer is not None, -1, None)


def _measure(job, work, meta, seconds, tracer) -> list[Attempt]:
    """Rounds of one job per corpus until the next job would overrun.

    At least two rounds run.  Untraced, every held-out row is then
    predicted at least twice; with a tracer, rounds alternate untraced and
    traced.  The speed probe runs before the first job and after each job.
    """
    count = len(meta.get("corpora", [None]))
    probe = SpeedProbe()
    attempts: list[Attempt] = []
    start, last = clock(), 0.0
    before = probe.seconds()
    while len(attempts) < 2 * count or clock() - start + last <= seconds:
        traced = tracer is not None and len(attempts) // count % 2 == 1
        began = clock()
        attempt = _attempt(
            job, work, meta, len(attempts) % count, tracer if traced else None
        )
        last = clock() - began
        after = probe.seconds()
        attempt.factor = REFERENCE_S / ((before + after) / 2)
        before = after
        attempts.append(attempt)
    return attempts


def _corpus(meta: dict, k: int) -> dict:
    """Gold labels and majority-baseline score of corpus ``k``."""
    return meta["corpora"][k] if "corpora" in meta else meta


def _check(meta: dict, attempts: list[Attempt]) -> tuple[int, int, list[str]]:
    """Count attempted and failed row predictions; list why checks failed.

    A job whose outputs fail a check fails all its rows: its held-out
    macro-F must beat the majority baseline, a saved model must be
    byte-identical to the first one trained on the same corpus, and a
    model read back from its file must score like the in-memory model.
    """
    attempted = failed = 0
    problems = []
    first_sha: dict[int, str] = {}
    for a in attempts:
        corpus = _corpus(meta, a.corpus)
        gold = corpus["gold"]
        attempted += len(gold)
        if a.outcome is None:
            failed += len(gold)
            problems.append(f"corpus {a.corpus}: job raised")
            continue
        predicted = a.outcome.predicted
        score = macro_f(gold, predicted)
        majority = corpus["majority_macro_f"]
        reasons = []
        if len(predicted) != len(gold):
            reasons.append(f"{len(predicted)} predictions for {len(gold)} rows")
        if score <= majority:
            reasons.append(f"macro-F {score:.2f} <= majority baseline {majority:.2f}")
        if "in_memory_macro_f" in meta:
            saved = meta["in_memory_macro_f"]
            if abs(score - saved) > RELOAD_TOLERANCE:
                reasons.append(f"loaded model macro-F {score:.2f} != saved {saved:.2f}")
        else:
            sha = first_sha.setdefault(a.corpus, a.outcome.model["sha256"])
            if a.outcome.model["sha256"] != sha:
                reasons.append("model file differs from the first on this corpus")
        if reasons:
            failed += len(gold)
            problems.append(f"corpus {a.corpus}: " + "; ".join(reasons))
        else:
            failed += sum(1 for p in predicted if p not in CLASSES)
    return attempted, failed, problems


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _row_latencies(done: list[Attempt]) -> list[float]:
    """Each held-out row's median latency over the jobs that predicted it.

    Every job predicts its corpus's rows again, so a burst of load on the
    host during one job moves no row's median; the percentiles then rank
    rows by their own cost.
    """
    by_row: dict[tuple[int, int], list[float]] = defaultdict(list)
    for a in done:
        for i, took in enumerate(a.outcome.latencies):
            by_row[a.corpus, i].append(took * a.factor)
    return [statistics.median(v) for v in by_row.values()]


def _end_to_end(meta: dict, done: list[Attempt]) -> dict[str, float]:
    """Times at the reference speed; medians over jobs, macro-F per corpus."""
    first: dict[int, Attempt] = {}
    for a in done:
        first.setdefault(a.corpus, a)
    latencies = _row_latencies(done)
    return {
        "job_rows_per_s": statistics.median(
            a.outcome.rows / (a.outcome.job_s * a.factor) for a in done
        ),
        "predict_rows_per_s": len(latencies) / sum(latencies),
        "predict_p50_ms": 1e3 * _quantile(latencies, 50),
        "predict_p99_ms": 1e3 * _quantile(latencies, 99),
        "setup_s": statistics.median(a.outcome.setup_s * a.factor for a in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "macro_f": statistics.fmean(
            macro_f(_corpus(meta, k)["gold"], a.outcome.predicted)
            for k, a in first.items()
        ),
    }


def _layers_of_job(self_s, c) -> dict[str, float]:
    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "tokenizer.s": self_s["tokenizer"],
        "tokenizer.tokens": c["tokens"],
        "negation.s": self_s["negation"],
        "negation.contexts": c["contexts"],
        "features_message.extract.s": self_s["features_message.extract"],
        "features_message.nnz_per_row": share(c["message_nnz"], c["message_rows"]),
        "features_message.lex_nnz_per_row": share(
            c["message_lex_nnz"], c["message_rows"]
        ),
        "features_message.dictionary.s": self_s["features_message.dictionary"],
        "features_message.dim": c["dim"],
        "features_message.vectorize.s": self_s["features_message.vectorize"],
        "features_message.vectorize.dropped_share": share(
            c["predict_dropped"], c["predict_occurrences"]
        ),
        "linear_model.train.s": self_s["linear_model.train"],
        "linear_model.epochs": c["epochs"],
        "linear_model.coord_steps": c["coord_steps"],
        "linear_model.us_per_step": 1e6 * share(
            self_s["linear_model.train"], c["coord_steps"]
        ),
        "linear_model.support_vectors": c["support_vectors"],
        "linear_model.bound_svs": c["bound_svs"],
        "linear_model.predict.s": self_s["linear_model.predict"],
        "linear_model.save.s": self_s["linear_model.save"],
        "linear_model.model_bytes": c["model_bytes"],
        "linear_model.load.s": self_s["linear_model.load"],
        "lexicon_builder.build.s": self_s["lexicon_builder.build"],
        "lexicon_builder.labeled_share": share(c["labeled"], c["label_attempts"]),
        "lexicon_builder.entries": c["entries"],
        "lexicon_builder.entries.pair": c["entries_pair"],
        "features_term.extract.s": self_s["features_term.extract"],
        "features_term.nnz_per_row": share(c["term_nnz"], c["term_rows"]),
        "corpus_io.load.s": self_s["corpus_io.load"],
        "corpus_io.write.s": self_s["corpus_io.write"],
        "trace.other_s": self_s[ROOT_LAYER],
    }


def _per_layer(tracer, attempts: list[Attempt]) -> dict[str, float]:
    """Medians over traced jobs, plus untraced job time and trace overhead.

    Times are at the reference speed, like the end-to-end metrics.
    """
    traced = [a for a in attempts if a.traced and a.outcome is not None]
    plain = [a for a in attempts if not a.traced and a.outcome is not None]
    jobs = []
    for a in traced:
        self_s = defaultdict(float)
        for layer, took in tracer.self_times(a.run_id).items():
            self_s[layer] = took * a.factor
        jobs.append(_layers_of_job(self_s, tracer.counts[a.run_id]))
    values = {name: statistics.median(j[name] for j in jobs) for name in jobs[0]}
    untraced_s = statistics.median(a.outcome.job_s * a.factor for a in plain)
    traced_s = statistics.median(a.outcome.job_s * a.factor for a in traced)
    values["trace.job_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return values


def _provenance(workload, seed, seconds, meta, attempts) -> dict:
    import numpy

    done = [a for a in attempts if a.outcome is not None]
    models = {}
    for a in done:
        models.setdefault(a.corpus, a.outcome.model)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sizes": meta["sizes"],
        "corpora": [
            {"train_rows": c["train_rows"], "test_rows": c["test_rows"]}
            for c in meta.get("corpora", [])
        ],
        "prepare_s": meta["prepare_s"],
        "jobs": len(attempts),
        "job_s": [a.outcome.job_s for a in done],
        "speed_factors": [a.factor for a in done],
        "predict_rows": sum(len(_corpus(meta, k)["gold"]) for k in models),
        "predictions": sum(len(a.outcome.latencies) for a in done if not a.traced),
        "models": [models[k] for k in sorted(models)],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> dict:
    """Run one workload; return the result line, provenance and problems."""
    import jobs

    spec = _spec()
    sizes = dict(SIZES[workload] if sizes is None else sizes)
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    try:
        meta = _prepare(workload, seed, sizes, work)
        tracer = Tracer() if trace else None
        attempts = _measure(jobs.JOBS[workload], work, meta, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems = _check(meta, attempts)
    done = [a for a in attempts if a.outcome is not None and not a.traced]
    if not done:
        raise SystemExit(f"benchmark: every {workload} job raised")
    if trace:
        values = _per_layer(tracer, attempts)
        names = spec["per_layer"]
        trace_file = WORK / "traces" / f"{workload}-seed{seed}.json"
        tracer.write(trace_file)
    else:
        values = _end_to_end(meta, done)
        names = spec["end_to_end"]
    provenance = _provenance(workload, seed, seconds, meta, attempts)
    if trace:
        provenance["trace_file"] = str(trace_file.relative_to(ROOT))
    return {
        "line": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in names
            },
        },
        "provenance": provenance,
        "problems": problems,
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; print each metric with its unit."""
    bad = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}")
            bad += 1
            continue
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print(
            f"{workload}: correct={line['correct']} attempted={line['attempted']} "
            f"failed={line['failed']}"
        )
        for name, metric in line["metrics"].items():
            print(f"  {name:<42} {metric['value']:>16.6g} {metric['unit']}")
        bad += not line["correct"] or line["failed"] > 0
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(result["provenance"]))
    for name, metric in result["line"]["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
