"""Linear SVM trained from scratch by dual coordinate descent.

One binary L2-regularized L1-hinge SVM per class in one-vs-rest
fashion.  Each subproblem is solved in the dual:

    min_a  0.5 * a'Qa - e'a   with  0 <= a_i <= C,
    Q_ij = y_i y_j x_i'x_j

by exact coordinate minimization over a random permutation of the
examples each epoch.  The bias is a constant appended feature, so it is
regularized like any weight.  The primal weights w = sum_i a_i y_i x_i
are maintained incrementally; training stops when the largest projected
gradient entry seen in an epoch drops below ``tol``.  Shrinking is
deliberately left out to keep epochs reproducible.

Prediction is argmax over per-class decision values w_c'x + b_c; ties
resolve to the earliest class in the model's class order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus_io import CLASS_ORDER
from .features_message import (
    FeatureDictionary,
    FeatureVector,
    IndexedVector,
    vectorize,
)


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or inconsistent."""


@dataclass
class LinearModel:
    """Per-class weight rows over a feature dictionary.

    ``weights`` has shape (n_classes, dim + 1); the final column is the
    bias.  ``epochs`` and ``objective_history`` are training
    diagnostics and are not persisted.
    """

    class_order: tuple[str, ...]
    weights: np.ndarray
    dictionary: FeatureDictionary
    C: float
    tol: float
    epochs: tuple[int, ...] | None = None
    objective_history: tuple[tuple[float, ...], ...] | None = None
    alphas: tuple[np.ndarray, ...] | None = None


def _train_binary(
    rows: list[tuple[np.ndarray, np.ndarray]],
    targets: np.ndarray,
    dim: int,
    C: float,
    tol: float,
    max_epochs: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, list[float], np.ndarray]:
    """Solve one binary subproblem.

    Returns (weights, epochs run, per-epoch dual objectives, duals).
    """
    n = len(rows)
    w = np.zeros(dim + 1)
    alpha = np.zeros(n)
    q_diag = np.array([v @ v + 1.0 for _, v in rows])
    objectives: list[float] = []
    epochs_run = 0
    for _ in range(max_epochs):
        epochs_run += 1
        worst = 0.0
        for i in rng.permutation(n):
            ind, val = rows[i]
            y = targets[i]
            gradient = y * (w[ind] @ val + w[dim]) - 1.0
            if alpha[i] <= 0.0:
                projected = min(gradient, 0.0)
            elif alpha[i] >= C:
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            magnitude = abs(projected)
            if magnitude > worst:
                worst = magnitude
            if magnitude > 1e-12:
                updated = min(max(alpha[i] - gradient / q_diag[i], 0.0), C)
                step = (updated - alpha[i]) * y
                alpha[i] = updated
                w[ind] += step * val
                w[dim] += step
        objectives.append(float(alpha.sum() - 0.5 * (w @ w)))
        if worst < tol:
            break
    return w, epochs_run, objectives, alpha


def train(
    vectors: Sequence[IndexedVector],
    labels: Sequence[str],
    dictionary: FeatureDictionary,
    C: float = 0.005,
    tol: float = 0.1,
    max_epochs: int = 1000,
    seed: int = 42,
    classes: tuple[str, ...] = CLASS_ORDER,
) -> LinearModel:
    """Train a one-vs-rest linear SVM.

    Every class in ``classes`` must occur in ``labels``.  Each binary
    subproblem draws its epoch permutations from a generator derived
    from (seed, class position), so results do not depend on the order
    the subproblems run in.
    """
    if len(vectors) == 0:
        raise ValueError("empty training data")
    if len(vectors) != len(labels):
        raise ValueError(
            f"{len(vectors)} vectors but {len(labels)} labels"
        )
    present = set(labels)
    for label in present:
        if label not in classes:
            raise ValueError(f"label '{label}' not in classes {classes}")
    for cls in classes:
        if cls not in present:
            raise ValueError(f"class '{cls}' absent from training data")
    dim = dictionary.size
    rows = []
    for v in vectors:
        if len(v.indices) and v.indices[-1] >= dim:
            raise ValueError(
                f"feature index {int(v.indices[-1])} out of range for "
                f"dictionary of size {dim}"
            )
        rows.append((v.indices, v.values))

    weights = np.zeros((len(classes), dim + 1))
    epochs = []
    histories = []
    duals = []
    for position, cls in enumerate(classes):
        targets = np.where(np.array(labels) == cls, 1.0, -1.0)
        rng = np.random.default_rng([seed, position])
        w, epochs_run, objectives, alpha = _train_binary(
            rows, targets, dim, C, tol, max_epochs, rng
        )
        weights[position] = w
        epochs.append(epochs_run)
        histories.append(tuple(objectives))
        duals.append(alpha)
    return LinearModel(
        class_order=tuple(classes),
        weights=weights,
        dictionary=dictionary,
        C=C,
        tol=tol,
        epochs=tuple(epochs),
        objective_history=tuple(histories),
        alphas=tuple(duals),
    )


def decision_values(model: LinearModel, vector: IndexedVector) -> np.ndarray:
    """Per-class scores w_c'x + b_c in class order."""
    if len(vector.indices) and vector.indices[-1] >= model.dictionary.size:
        raise ValueError("vector indexed by a larger dictionary than the model's")
    return model.weights[:, vector.indices] @ vector.values + model.weights[:, -1]


def predict(model: LinearModel, vector: FeatureVector | IndexedVector) -> str:
    """Predicted class; ties go to the earliest class in class order."""
    if isinstance(vector, FeatureVector):
        vector = vectorize(vector, model.dictionary)
    scores = decision_values(model, vector)
    return model.class_order[int(np.argmax(scores))]


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
    The feature dictionary is rebuilt from each fold's training part.
    """
    from .evaluation import macro_f_pos_neg

    if k < 2:
        raise ValueError("k must be at least 2")
    if len(vectors) != len(labels):
        raise ValueError(f"{len(vectors)} vectors but {len(labels)} labels")
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
        held = folds[f]
        used = [i for g in range(k) if g != f for i in folds[g]]
        train_vectors = [vectors[i] for i in used]
        train_labels = [labels[i] for i in used]
        dictionary = build_dictionary_for(train_vectors)
        indexed = [vectorize(v, dictionary) for v in train_vectors]
        model = train(
            indexed, train_labels, dictionary, C=C, tol=tol,
            max_epochs=max_epochs, seed=seed,
        )
        gold = [labels[i] for i in held]
        predicted = [predict(model, vectors[i]) for i in held]
        scores.append(macro_f_pos_neg(gold, predicted).macro_f)
    return scores


def build_dictionary_for(vectors: Sequence[FeatureVector]) -> FeatureDictionary:
    from .features_message import build_feature_dictionary

    return build_feature_dictionary(vectors)


def save_model(model: LinearModel, path: str | Path) -> None:
    """Write the model as a TSV: header, feature names, weight rows.

    Weights use 9 significant digits; save/load/save is byte-stable.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("# linear model\n")
        fh.write("classes\t" + "\t".join(model.class_order) + "\n")
        fh.write(f"dim\t{model.dictionary.size}\n")
        fh.write(f"C\t{model.C:.9g}\n")
        fh.write(f"tol\t{model.tol:.9g}\n")
        for i, name in enumerate(model.dictionary.names):
            fh.write(f"feat\t{i}\t{name}\n")
        for i in range(model.dictionary.size + 1):
            row = "\t".join(f"{w:.9g}" for w in model.weights[:, i])
            fh.write(f"w\t{i}\t{row}\n")


def load_model(path: str | Path) -> LinearModel:
    """Read a model file written by :func:`save_model`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    class_order: tuple[str, ...] | None = None
    dim: int | None = None
    c_value: float | None = None
    tol_value: float | None = None
    names: dict[int, str] = {}
    weight_rows: dict[int, list[float]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            key = parts[0]
            try:
                if key == "classes":
                    class_order = tuple(parts[1:])
                elif key == "dim":
                    dim = int(parts[1])
                elif key == "C":
                    c_value = float(parts[1])
                elif key == "tol":
                    tol_value = float(parts[1])
                elif key == "feat":
                    names[int(parts[1])] = parts[2]
                elif key == "w":
                    weight_rows[int(parts[1])] = [float(x) for x in parts[2:]]
                else:
                    raise ModelFormatError(
                        f"unknown record '{key}' at line {lineno}"
                    )
            except (IndexError, ValueError) as err:
                if isinstance(err, ModelFormatError):
                    raise
                raise ModelFormatError(
                    f"malformed record at line {lineno}: {line!r}"
                ) from None
    if class_order is None or dim is None or c_value is None or tol_value is None:
        raise ModelFormatError("missing header record (classes, dim, C or tol)")
    if sorted(names) != list(range(dim)):
        raise ModelFormatError(
            f"feature records do not cover indices 0..{dim - 1} exactly"
        )
    ordered_names = tuple(names[i] for i in range(dim))
    if len(set(ordered_names)) != dim:
        raise ModelFormatError("duplicate feature names")
    weights = np.zeros((len(class_order), dim + 1))
    for i, row in weight_rows.items():
        if not 0 <= i <= dim:
            raise ModelFormatError(f"weight row index {i} out of range 0..{dim}")
        if len(row) != len(class_order):
            raise ModelFormatError(
                f"weight row {i} has {len(row)} values for "
                f"{len(class_order)} classes"
            )
        weights[:, i] = row
    if len(weight_rows) != dim + 1:
        raise ModelFormatError(
            f"expected {dim + 1} weight rows (0..{dim}), found {len(weight_rows)}"
        )
    dictionary = FeatureDictionary(
        names=ordered_names,
        index={n: i for i, n in enumerate(ordered_names)},
    )
    return LinearModel(
        class_order=class_order,
        weights=weights,
        dictionary=dictionary,
        C=c_value,
        tol=tol_value,
    )
