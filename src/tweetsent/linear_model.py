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

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus_io import CLASS_ORDER
from .features_message import (
    FeatureDictionary,
    FeatureVector,
    IndexedVector,
    build_feature_dictionary,
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
    # Per-example state and the bias live in Python floats: the same IEEE
    # operations as on numpy scalars, without their per-operation cost.
    # np.dot and the @ operator run the same dot kernel on 1-D float64
    # arrays; np.dot has less call overhead.
    dot = np.dot
    alpha = [0.0] * n
    q_diag = [float(v @ v) + 1.0 for _, v in rows]
    ys = targets.tolist()
    bias = 0.0
    objectives: list[float] = []
    epochs_run = 0
    for _ in range(max_epochs):
        epochs_run += 1
        worst = 0.0
        for i in rng.permutation(n).tolist():
            ind, val = rows[i]
            y = ys[i]
            a = alpha[i]
            gradient = y * (float(dot(w[ind], val)) + bias) - 1.0
            if a <= 0.0:
                projected = min(gradient, 0.0)
            elif a >= C:
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            magnitude = abs(projected)
            if magnitude > worst:
                worst = magnitude
            if magnitude > 1e-12:
                updated = min(max(a - gradient / q_diag[i], 0.0), C)
                step = (updated - a) * y
                alpha[i] = updated
                w[ind] += val * step
                bias += step
        w[dim] = bias
        objectives.append(float(np.array(alpha).sum() - 0.5 * (w @ w)))
        if worst < tol:
            break
    return w, epochs_run, objectives, np.array(alpha)


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
        dictionary = build_feature_dictionary(train_vectors)
        indexed = [vectorize(v, dictionary) for v in train_vectors]
        model = train(
            indexed, train_labels, dictionary, C=C, tol=tol,
            max_epochs=max_epochs, seed=seed,
        )
        gold = [labels[i] for i in held]
        predicted = [predict(model, vectors[i]) for i in held]
        scores.append(macro_f_pos_neg(gold, predicted).macro_f)
    return scores


# Rows per write when saving: 64 rows is within 25% of the speed of
# 4,096, and leaves the allocator holding no more memory than writing row
# by row did; training's peak memory comes right after the save.
_WRITE_ROWS = 64
# Characters per read when loading, a few thousand lines: the transient
# strings of a block stay near a megabyte.
_READ_CHARS = 1 << 18

_HEADER_KEYS = ("classes", "dim", "C", "tol")


def save_model(model: LinearModel, path: str | Path) -> None:
    """Write the model as a TSV: header, feature names, weight rows.

    Weights use 9 significant digits; save/load/save is byte-stable.
    :func:`load_model` describes the format.  Records are formatted a
    chunk of rows at a time, so memory beyond the model stays small.
    """
    path = Path(path)
    dim = model.dictionary.size
    weights = model.weights
    row_format = "w\t%d" + "\t%.9g" * weights.shape[0] + "\n"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("# linear model\n")
        fh.write("classes\t" + "\t".join(model.class_order) + "\n")
        fh.write(f"dim\t{dim}\n")
        fh.write(f"C\t{model.C:.9g}\n")
        fh.write(f"tol\t{model.tol:.9g}\n")
        for s in range(0, dim, _WRITE_ROWS):
            names = model.dictionary.names[s : s + _WRITE_ROWS]
            fields = chain.from_iterable(zip(range(s, dim), names))
            fh.write(("feat\t%d\t%s\n" * len(names)) % tuple(fields))
        for s in range(0, dim + 1, _WRITE_ROWS):
            rows = weights[:, s : s + _WRITE_ROWS].T
            fields = np.column_stack((np.arange(s, s + len(rows)), rows))
            fh.write((row_format * len(rows)) % tuple(fields.ravel().tolist()))


class _LineFault(Exception):
    """A record breaks a rule that one line can decide."""


def _index(text: str) -> int:
    """An index as the bulk path reads it: an int64."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(text)
    return value


def _check_line(line: str, headers: dict) -> None:
    """Apply the one-line rules to ``line``; store a header's value.

    Raises ``_LineFault``, or ``ValueError``/``IndexError`` for a record
    whose fields do not parse.
    """
    if not line.strip() or line.startswith("#"):
        return
    key, *fields = line.split("\t")
    if key == "feat":
        if len(fields) != 2:
            raise IndexError(line)
        _index(fields[0])
    elif key == "w":
        _index(fields[0])
        if not all(map(math.isfinite, map(float, fields[1:]))):
            raise _LineFault("non-finite weight")
    elif key not in _HEADER_KEYS:
        raise _LineFault(f"unknown record '{key}'")
    elif key in headers:
        raise _LineFault(f"repeated record '{key}'")
    elif key == "classes":
        if not fields:
            raise _LineFault("no class names")
        if len(set(fields)) != len(fields):
            raise _LineFault("duplicate class names")
        headers[key] = tuple(fields)
    elif key == "dim":
        (text,) = fields
        headers[key] = int(text)
        if headers[key] < 0:
            raise _LineFault("negative dim")
    else:
        (text,) = fields
        headers[key] = float(text)
        if not math.isfinite(headers[key]):
            raise _LineFault(f"non-finite {key}")


def _split_records(lines: list[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Split ``key<TAB>index<TAB>...`` records all at once.

    Returns each record's tab count and index, and the fields after the
    indices in record order.
    """
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, len(lines))
    fields = "\t".join(lines).split("\t")
    starts = np.cumsum(tabs + 1) - (tabs + 1)
    indices = map(fields.__getitem__, (starts + 1).tolist())
    indices = np.fromiter(map(int, indices), np.int64, len(lines))
    keep = np.ones(len(fields), dtype=bool)
    keep[starts] = False
    keep[starts + 1] = False
    return tabs, indices, list(compress(fields, keep.tolist()))


class _Records:
    """The records of one model file, gathered block by block."""

    def __init__(self) -> None:
        self.headers: dict = {}
        empty = np.empty(0, dtype=np.int64)
        self.feat_ids: list[np.ndarray] = [empty]
        self.names: list[str] = []
        self.row_ids: list[np.ndarray] = [empty]
        self.row_sizes: list[np.ndarray] = [empty]
        self.row_values: list[np.ndarray] = [np.empty(0)]

    def add(self, lines: list[str]) -> None:
        """Take one block of lines; raise on any fault in it."""
        # Sorting groups the records by key; each group is then one slice.
        lines = sorted(lines)
        f0 = bisect_left(lines, "feat\t")
        f1 = bisect_left(lines, "feat\n", f0)
        w0 = bisect_left(lines, "w\t", f1)
        w1 = bisect_left(lines, "w\n", w0)
        for line in chain(lines[:f0], lines[f1:w0], lines[w1:]):
            _check_line(line, self.headers)
        feat, rows = lines[f0:f1], lines[w0:w1]
        del lines
        if feat:
            tabs, ids, names = _split_records(feat)
            if (tabs != 2).any():
                raise IndexError("feat")
            self.feat_ids.append(ids)
            self.names += names
        if rows:
            tabs, ids, values = _split_records(rows)
            values = np.fromiter(map(float, values), np.float64, len(values))
            if not np.isfinite(values).all():
                raise _LineFault("non-finite weight")
            self.row_ids.append(ids)
            self.row_sizes.append(tabs - 1)
            self.row_values.append(values)


def _read_records(path: Path) -> _Records:
    """Read the file a block of whole lines at a time.

    A block that breaks a rule is searched line by line, so the error
    names the first faulty line; earlier blocks had none.
    """
    records = _Records()
    lineno = 1
    with path.open("r", encoding="utf-8") as fh:
        while block := fh.read(_READ_CHARS):
            if not block.endswith("\n"):
                block += fh.readline()
            lines = block.split("\n")
            del block
            if not lines[-1]:
                lines.pop()
            before = dict(records.headers)
            try:
                records.add(lines)
            except (_LineFault, ValueError, IndexError, OverflowError):
                _raise_first_fault(lines, lineno, before, path)
                raise  # the bulk and line rules disagree: a bug
            lineno += len(lines)
    return records


def _raise_first_fault(
    lines: list[str], lineno: int, headers: dict, path: Path
) -> None:
    """Raise the error of the first faulty line of a block, if any."""
    for n, line in enumerate(lines, start=lineno):
        try:
            _check_line(line, headers)
        except _LineFault as fault:
            raise ModelFormatError(f"{fault} at line {n} of {path}") from None
        except (ValueError, IndexError):
            raise ModelFormatError(
                f"malformed record at line {n} of {path}: {line!r}"
            ) from None


def load_model(path: str | Path) -> LinearModel:
    """Read a model file written by :func:`save_model`.

    The file is UTF-8 text with one tab-separated record per line.
    Records may come in any order; blank lines and lines starting with
    ``#`` are skipped.  The records are:

    - ``classes<TAB>c1<TAB>...<TAB>cn``: the class order
    - ``dim<TAB>d``: the number of features
    - ``C<TAB>c`` and ``tol<TAB>t``: the training settings
    - ``feat<TAB>i<TAB>name``: the name of feature ``i``, 0 <= i < d
    - ``w<TAB>i<TAB>v1<TAB>...<TAB>vn``: weight column ``i``, one value
      per class in class order; column ``d`` is the bias

    Numbers are written with 9 significant digits, so save, load and
    save again gives the same bytes.

    Raises ``ModelFormatError``, naming the file and, for a fault one
    line shows, the first such line, when:

    - a record is none of the above, or its fields do not parse:
      ``dim`` and the indices are integers that fit 64 bits, ``C``,
      ``tol`` and the weights are numbers, ``dim``, ``C`` and ``tol``
      hold exactly one value, ``feat`` exactly an index and a name
    - ``classes`` names no class, or a class twice
    - ``dim`` is negative
    - ``C``, ``tol`` or a weight is not finite
    - a header record (``classes``, ``dim``, ``C``, ``tol``) repeats
    - the file is not valid UTF-8
    - a header record is missing
    - a feature index repeats, or the indices are not exactly 0..d-1
      (checked before anything of size d is allocated)
    - two features share a name
    - a weight row index is outside 0..d, or a row has not one value
      per class
    - a weight row of 0..d is missing or repeats
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        records = _read_records(path)
    except UnicodeDecodeError:
        raise ModelFormatError(f"not valid UTF-8 text in {path}") from None
    headers = records.headers
    if len(headers) != len(_HEADER_KEYS):
        raise ModelFormatError(
            f"missing header record (classes, dim, C or tol) in {path}"
        )
    class_order, dim = headers["classes"], headers["dim"]

    feat_ids = np.concatenate(records.feat_ids)
    if len(feat_ids) < dim or ((feat_ids < 0) | (feat_ids >= dim)).any():
        raise ModelFormatError(
            f"feature records do not cover indices 0..{dim - 1} exactly in {path}"
        )
    repeats = np.bincount(feat_ids, minlength=dim) > 1
    if repeats.any():
        raise ModelFormatError(
            f"feature index {int(repeats.argmax())} repeated in {path}"
        )
    ordered = np.empty(dim, dtype=object)
    ordered[feat_ids] = records.names
    names = tuple(ordered.tolist())
    del ordered
    index = dict(zip(names, range(dim)))
    if len(index) != dim:
        raise ModelFormatError(f"duplicate feature names in {path}")

    n = len(class_order)
    row_ids = np.concatenate(records.row_ids)
    sizes = np.concatenate(records.row_sizes)
    bad = (row_ids < 0) | (row_ids > dim) | (sizes != n)
    if bad.any():
        first = int(bad.argmax())
        i = int(row_ids[first])
        if not 0 <= i <= dim:
            raise ModelFormatError(
                f"weight row index {i} out of range 0..{dim} in {path}"
            )
        raise ModelFormatError(
            f"weight row {i} has {sizes[first]} values for {n} classes in {path}"
        )
    rows_per_index = np.bincount(row_ids, minlength=dim + 1)
    found = np.count_nonzero(rows_per_index)
    if found != dim + 1:
        raise ModelFormatError(
            f"expected {dim + 1} weight rows (0..{dim}), found {found} in {path}"
        )
    if len(row_ids) != dim + 1:
        raise ModelFormatError(
            f"weight row index {int(rows_per_index.argmax())} repeated in {path}"
        )
    weights = np.empty((n, dim + 1))
    weights[:, row_ids] = np.concatenate(records.row_values).reshape(-1, n).T
    return LinearModel(
        class_order=class_order,
        weights=weights,
        dictionary=FeatureDictionary(names=names, index=index),
        C=headers["C"],
        tol=headers["tol"],
    )
