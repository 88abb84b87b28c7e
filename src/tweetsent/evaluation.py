"""Scoring and report formatting.

The headline metric averages the F-scores of the positive and negative
classes only and reports it on a 0-100 scale; neutral predictions still
count in the confusion matrix and can steal precision or recall from
the other classes.  Precision, recall and F fall back to 0 whenever
their denominator is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus_io import CLASS_ORDER, NEGATIVE, POSITIVE


@dataclass(frozen=True)
class EvalReport:
    """Confusion matrix and derived scores for one evaluation run.

    ``confusion[i][j]`` counts gold class i predicted as class j, both
    in class order (negative, neutral, positive).  ``macro_f`` is the
    pos/neg macro-F on a 0-100 scale.
    """

    n: int
    confusion: tuple[tuple[int, ...], ...]
    precision: dict[str, float]
    recall: dict[str, float]
    f_score: dict[str, float]
    macro_f: float


def macro_f_pos_neg(gold: Sequence[str], predicted: Sequence[str]) -> EvalReport:
    """Score predictions against gold labels."""
    if len(gold) != len(predicted):
        raise ValueError(
            f"{len(gold)} gold labels but {len(predicted)} predictions"
        )
    index = {c: i for i, c in enumerate(CLASS_ORDER)}
    confusion = np.zeros((3, 3), dtype=int)
    for g, p in zip(gold, predicted):
        if g not in index:
            raise ValueError(f"unknown gold label '{g}'")
        if p not in index:
            raise ValueError(f"unknown predicted label '{p}'")
        confusion[index[g], index[p]] += 1
    precision, recall, f_score = {}, {}, {}
    for c, i in index.items():
        predicted_n = int(confusion[:, i].sum())
        gold_n = int(confusion[i, :].sum())
        hits = int(confusion[i, i])
        p = hits / predicted_n if predicted_n else 0.0
        r = hits / gold_n if gold_n else 0.0
        precision[c] = p
        recall[c] = r
        f_score[c] = 2 * p * r / (p + r) if p + r else 0.0
    macro = (f_score[POSITIVE] + f_score[NEGATIVE]) / 2 * 100
    return EvalReport(
        n=len(gold),
        confusion=tuple(tuple(int(x) for x in row) for row in confusion),
        precision=precision,
        recall=recall,
        f_score=f_score,
        macro_f=macro,
    )


def majority_baseline(train_labels: Sequence[str]) -> str:
    """The more frequent of positive and negative; ties go positive."""
    positive = sum(1 for l in train_labels if l == POSITIVE)
    negative = sum(1 for l in train_labels if l == NEGATIVE)
    return POSITIVE if positive >= negative else NEGATIVE


def format_report(report: EvalReport) -> str:
    """Aligned plain-text table for an EvalReport."""
    lines = [
        f"n        {report.n}",
        f"macro_f  {report.macro_f:.2f}",
        "",
        f"{'class':<10}{'precision':>10}{'recall':>10}{'f':>10}{'gold':>8}",
    ]
    for i, c in enumerate(CLASS_ORDER):
        gold_n = sum(report.confusion[i])
        lines.append(
            f"{c:<10}{report.precision[c]:>10.4f}{report.recall[c]:>10.4f}"
            f"{report.f_score[c]:>10.4f}{gold_n:>8}"
        )
    lines.append("")
    header = "confusion" + "".join(f"{c:>10}" for c in CLASS_ORDER)
    lines.append(header)
    for i, c in enumerate(CLASS_ORDER):
        lines.append(
            f"{c:<9}" + "".join(f"{n:>10}" for n in report.confusion[i])
        )
    return "\n".join(lines) + "\n"


def report_kv(report: EvalReport) -> str:
    """Key/value dump of an EvalReport, one ``key<TAB>value`` per line."""
    lines = [f"n\t{report.n}", f"macro_f\t{report.macro_f:.2f}"]
    for c in CLASS_ORDER:
        lines.append(f"precision_{c}\t{report.precision[c]:.4f}")
        lines.append(f"recall_{c}\t{report.recall[c]:.4f}")
        lines.append(f"f_{c}\t{report.f_score[c]:.4f}")
    for i, gold_c in enumerate(CLASS_ORDER):
        for j, pred_c in enumerate(CLASS_ORDER):
            lines.append(f"confusion_{gold_c}_{pred_c}\t{report.confusion[i][j]}")
    return "\n".join(lines) + "\n"


def format_ablation_table(rows: Sequence) -> str:
    """Aligned plain-text table of :class:`pipeline.AblationRow` rows."""
    width = max(len(r.group) for r in rows) + 2
    lines = [f"{'removed':<{width}}{'macro_f':>10}{'delta':>10}"]
    for r in rows:
        lines.append(f"{r.group:<{width}}{r.macro_f:>10.2f}{r.delta:>+10.2f}")
    return "\n".join(lines) + "\n"


def format_ablation_tsv(rows: Sequence) -> str:
    """Machine-readable ``group<TAB>macro_f<TAB>delta`` lines."""
    lines = [f"{r.group}\t{r.macro_f:.2f}\t{r.delta:.2f}" for r in rows]
    return "\n".join(lines) + "\n"
