"""Paths, workload sizes and program import shared by the benchmark scripts.

The benchmark lives in ``bench/`` of a tweetsent checkout and measures the
package under ``src/tweetsent`` of that same checkout, never an installed
copy.  Scratch files go to ``.bench_work/`` at the checkout root.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Sizes per workload.  ``corpora`` labeled corpora are drawn per run and
# each job trains on one of them, so that one run averages over several
# solver problems (the solver's epoch count varies a lot between corpora
# of one size, see README.md).  ``raw`` unlabeled rows share the labeled
# corpora's vocabulary.  ``stream`` is the number of held-out messages
# predict-stream sends one at a time to a model trained on ``labeled``.
SIZES = {
    "msg-planted": {"corpora": 2, "labeled": 2000},
    "msg-induced": {"corpora": 3, "labeled": 1200, "raw": 3000},
    "predict-stream": {"labeled": 2000, "stream": 1000},
    "term-planted": {"corpora": 2, "labeled": 3000},
}

WORKLOADS = tuple(SIZES)


def import_program():
    """Import ``tweetsent`` from this checkout's ``src/`` or exit non-zero."""
    if not (SRC / "tweetsent" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no tweetsent package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tweetsent

    if Path(tweetsent.__file__).resolve().parent != SRC / "tweetsent":
        raise SystemExit(f"benchmark: imported tweetsent from {tweetsent.__file__}")
    return tweetsent


def macro_f(gold, predicted) -> float:
    """Pos/neg macro-F on a 0-100 scale, computed apart from the program."""
    scores = []
    for cls in ("positive", "negative"):
        hits = sum(1 for g, p in zip(gold, predicted) if g == p == cls)
        n_predicted = sum(1 for p in predicted if p == cls)
        n_gold = sum(1 for g in gold if g == cls)
        precision = hits / n_predicted if n_predicted else 0.0
        recall = hits / n_gold if n_gold else 0.0
        total = precision + recall
        scores.append(2 * precision * recall / total if total else 0.0)
    return 50.0 * (scores[0] + scores[1])
