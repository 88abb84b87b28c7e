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
from dataclasses import dataclass
from itertools import chain, islice, repeat
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
    bias.  A trained model keeps every dictionary feature, weights of
    zero included; a loaded one holds only the features that
    :func:`save_model` wrote.  ``epochs``, ``objective_history`` and
    ``alphas`` are training diagnostics and are not persisted.
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
    q_diag: list[float],
    targets: np.ndarray,
    dim: int,
    C: float,
    tol: float,
    max_epochs: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, list[float], np.ndarray]:
    """Solve one binary subproblem.

    ``q_diag[i]`` is row i's squared norm plus 1 for the bias.  Returns
    (weights, epochs run, per-epoch dual objectives, duals).
    """
    n = len(rows)
    w = np.zeros(dim + 1)
    # Per-example state and the bias live in Python floats: the same IEEE
    # operations as on numpy scalars, without their per-operation cost.
    # np.dot and the @ operator run the same dot kernel on 1-D float64
    # arrays; np.dot has less call overhead.
    dot = np.dot
    alpha = [0.0] * n
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

    ``C`` and ``tol`` must be finite and positive, ``max_epochs`` at
    least 1, every class in ``classes`` must occur in ``labels``, and
    every row's squared norm must be finite.
    Each binary subproblem draws its epoch permutations from a generator
    derived from (seed, class position), so results do not depend on the
    order the subproblems run in.
    """
    for name, value in (("C", C), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be at least 1, got {max_epochs}")
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
    # Squared norms plus 1 for the bias, shared by every class.  A NaN in
    # the solver's gradient would leave a row's dual at 0 unnoticed.
    q_diag = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, v in enumerate(vectors):
            if len(v.indices) and v.indices[-1] >= dim:
                raise ValueError(
                    f"feature index {int(v.indices[-1])} out of range for "
                    f"dictionary of size {dim}"
                )
            q = float(v.values @ v.values) + 1.0
            if not math.isfinite(q):
                raise ValueError(f"training row {i} has a non-finite squared norm")
            rows.append((v.indices, v.values))
            q_diag.append(q)

    weights = np.zeros((len(classes), dim + 1))
    epochs = []
    histories = []
    duals = []
    for position, cls in enumerate(classes):
        targets = np.where(np.array(labels) == cls, 1.0, -1.0)
        rng = np.random.default_rng([seed, position])
        w, epochs_run, objectives, alpha = _train_binary(
            rows, q_diag, targets, dim, C, tol, max_epochs, rng
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


# Rows per write when saving: 64 rows is within 25% of the speed of
# 4,096, and leaves the allocator holding no more memory than writing row
# by row did; training's peak memory comes right after the save.
_WRITE_ROWS = 64
# Lines per chunk when loading: the transient strings of a chunk stay
# near a megabyte.
_READ_LINES = 4096


def _check_names(names: Sequence[str]) -> None:
    """Raise ``ValueError`` naming the first name a model file cannot hold.

    A tab or line break in a name would split its ``feat`` record.
    """
    for s in range(0, len(names), _READ_LINES):
        chunk = names[s : s + _READ_LINES]
        if any(map("".join(chunk).__contains__, "\t\n\r")):
            name = next(n for n in chunk if any(map(n.__contains__, "\t\n\r")))
            raise ValueError(
                f"feature name {name!r} holds a tab or line break; "
                "a model file cannot store it"
            )


def save_model(model: LinearModel, path: str | Path) -> int:
    """Write the model as a TSV: header, feature names, weight rows.

    Only features with a non-zero weight in some class are written, in
    dictionary order and numbered from 0; a feature whose weights are
    all zero cannot move a decision value.  The bias column comes last.
    Returns the number of features written.

    Weights use 9 significant digits; save/load/save is byte-stable.
    :func:`load_model` describes the format.  Records are formatted a
    chunk of rows at a time, so memory beyond the model stays small.
    Raises ``ValueError``, before the file is opened, when a feature
    name holds a tab or a line break.
    """
    path = Path(path)
    names = model.dictionary.names
    _check_names(names)
    weights = model.weights
    # A NaN weight counts as non-zero, so load_model still rejects it.
    columns = np.append(np.flatnonzero(weights[:, :-1].any(axis=0)), len(names))
    dim = len(columns) - 1
    row_format = "w\t%d" + "\t%.9g" * weights.shape[0] + "\n"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("# linear model\n")
        fh.write("classes\t" + "\t".join(model.class_order) + "\n")
        fh.write(f"dim\t{dim}\n")
        fh.write(f"C\t{model.C:.9g}\n")
        fh.write(f"tol\t{model.tol:.9g}\n")
        for s in range(0, dim, _WRITE_ROWS):
            chunk = columns[s : min(s + _WRITE_ROWS, dim)].tolist()
            fields = chain.from_iterable(
                zip(range(s, dim), map(names.__getitem__, chunk))
            )
            fh.write(("feat\t%d\t%s\n" * len(chunk)) % tuple(fields))
        for s in range(0, dim + 1, _WRITE_ROWS):
            rows = weights[:, columns[s : s + _WRITE_ROWS]].T
            fields = np.column_stack((np.arange(s, s + len(rows)), rows))
            fh.write((row_format * len(rows)) % tuple(fields.ravel().tolist()))
    return dim


def _fault(what: str, lineno: int, path: Path, line: str) -> ModelFormatError:
    return ModelFormatError(f"{what} at line {lineno} of {path}: {line!r}")


def _read_header(fh, path: Path) -> tuple[tuple[str, ...], int, float, float]:
    """Check the five header lines; return the class order, dim, C and tol."""

    def record(lineno: int, key: str) -> tuple[str, list[str]]:
        line = fh.readline().removesuffix("\n")
        found, *fields = line.split("\t")
        if found != key:
            raise _fault(f"expected record '{key}'", lineno, path, line)
        return line, fields

    line = fh.readline().removesuffix("\n")
    if line != "# linear model":
        raise _fault("expected '# linear model'", 1, path, line)
    line, classes = record(2, "classes")
    if not classes:
        raise _fault("no class names", 2, path, line)
    if len(set(classes)) != len(classes):
        raise _fault("duplicate class names", 2, path, line)
    line, fields = record(3, "dim")
    try:
        (dim,) = map(int, fields)
    except ValueError:
        raise _fault("malformed record", 3, path, line) from None
    if fields != [str(dim)]:
        raise _fault("malformed record", 3, path, line)
    if dim < 0:
        raise _fault("negative dim", 3, path, line)
    settings = []
    for lineno, key in ((4, "C"), (5, "tol")):
        line, fields = record(lineno, key)
        try:
            (value,) = map(float, fields)
        except ValueError:
            raise _fault("malformed record", lineno, path, line) from None
        if not math.isfinite(value):
            raise _fault(f"non-finite {key}", lineno, path, line)
        if fields != ["%.9g" % value]:
            raise _fault("malformed record", lineno, path, line)
        settings.append(value)
    return tuple(classes), dim, *settings


_NOUNS = {"feat": "feature", "w": "weight row"}
# The ASCII characters besides tab that float() takes in a number and
# "%.9g" never writes.  Any non-ASCII character is refused as well.
_NOT_WRITTEN = " _\x0b\x0c\x1c\x1d\x1e\x1f"


def _check_records(
    lines: list[str], key: str, first: int, tabs: int
) -> list[str] | np.ndarray:
    """The fields after the indices of records ``key<TAB>first``, ...

    Each line must hold ``tabs`` tabs, the key ``key`` and the next
    index from ``first``, written as :func:`save_model` writes it.  For
    ``w`` records the fields are returned as finite floats.  Raises
    ``ValueError`` naming the first rule that some line breaks.
    """
    n = len(lines)
    if list(map(str.count, lines, repeat("\t"))) != [tabs] * n:
        raise ValueError("malformed record")
    text = "\t".join(lines)
    fields = text.split("\t")
    if fields[:: tabs + 1] != [key] * n or fields[1 :: tabs + 1] != list(
        map(str, range(first, first + n))
    ):
        raise ValueError(f"expected {_NOUNS[key]} {first}")
    del fields[:: tabs + 1]
    del fields[::tabs]
    if key == "feat":
        return fields
    if not text.isascii() or any(map(text.__contains__, _NOT_WRITTEN)):
        raise ValueError("malformed record")
    try:
        values = np.fromiter(map(float, fields), np.float64, len(fields))
    except ValueError:
        raise ValueError("malformed record") from None
    if not np.isfinite(values).all():
        raise ValueError("non-finite weight")
    return values


def _read_records(
    fh, path: Path, lineno: int, key: str, count: int, tabs: int
) -> list[list[str] | np.ndarray]:
    """Read records ``key<TAB>0`` to ``key<TAB>count-1`` from line ``lineno``.

    Lines are checked a chunk at a time; a chunk that breaks a rule is
    checked again line by line, so the error names the first faulty
    line.  Returns each chunk's fields.
    """
    chunks = []
    found = 0
    while found < count and (
        text := "".join(islice(fh, min(_READ_LINES, count - found)))
    ):
        lines = text.removesuffix("\n").split("\n")
        try:
            chunks.append(_check_records(lines, key, found, tabs))
        except ValueError:
            for i, line in enumerate(lines):
                try:
                    _check_records([line], key, found + i, tabs)
                except ValueError as fault:
                    raise _fault(str(fault), lineno + found + i, path, line) from None
            raise  # a chunk fails only where one of its lines does
        found += len(lines)
    if found < count:
        raise ModelFormatError(
            f"expected {count} {_NOUNS[key]}s (0..{count - 1}), found {found} in {path}"
        )
    return chunks


def load_model(path: str | Path) -> LinearModel:
    """Read a model file written by :func:`save_model`.

    The file is UTF-8 text with one tab-separated record per line, in
    exactly the order :func:`save_model` writes them:

    - ``# linear model``
    - ``classes<TAB>c1<TAB>...<TAB>cn``: the class order
    - ``dim<TAB>d``: the number of features written, those with a
      non-zero weight in some class
    - ``C<TAB>c`` and ``tol<TAB>t``: the training settings
    - ``feat<TAB>i<TAB>name`` for i = 0..d-1: the name of feature ``i``
    - ``w<TAB>i<TAB>v1<TAB>...<TAB>vn`` for i = 0..d: weight column
      ``i``, one value per class in class order; column ``d`` is the bias

    Lines may end in LF, CRLF or CR, and the last line's end may be
    missing.  Numbers are written with 9 significant digits, so save,
    load and save again gives the same bytes.

    Raises ``ModelFormatError``, naming the file and, unless the file is
    not UTF-8 or ends among the ``feat`` or ``w`` records, the first
    faulty line, when:

    - the file is not valid UTF-8
    - a line is not the record the layout puts there: the first line is
      not ``# linear model``, a header line does not start with its key,
      or a ``feat`` or ``w`` line has another key, another index than
      the next one written in decimal, or another number of fields
    - a field is not written as ``save_model`` writes it: ``dim``,
      ``C`` and ``tol`` hold exactly one value, ``dim`` is an integer
      spelled as ``str(int)``, ``C`` and ``tol`` are numbers spelled as
      ``%.9g``, and the weights are numbers with no ``_``, whitespace or
      non-ASCII character
    - ``classes`` names no class, or a class twice
    - ``dim`` is negative
    - ``C``, ``tol`` or a weight is not finite
    - two features share a name
    - the file ends before the last weight row, or goes on after it
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            class_order, dim, C, tol = _read_header(fh, path)
            names = _read_records(fh, path, 6, "feat", dim, 2)
            names = tuple(chain.from_iterable(names))
            index = dict(zip(names, range(dim)))
            if len(index) != dim:
                seen = set()
                for i, name in enumerate(names):
                    if name in seen:
                        line = f"feat\t{i}\t{name}"
                        raise _fault("duplicate feature name", 6 + i, path, line)
                    seen.add(name)
            n = len(class_order)
            rows = _read_records(fh, path, 6 + dim, "w", dim + 1, n + 1)
            if line := fh.readline():
                line = line.removesuffix("\n")
                raise _fault("line after the last weight row", 7 + 2 * dim, path, line)
    except UnicodeDecodeError:
        raise ModelFormatError(f"not valid UTF-8 text in {path}") from None
    return LinearModel(
        class_order=class_order,
        weights=np.concatenate(rows).reshape(dim + 1, n).T.copy(),
        dictionary=FeatureDictionary(names=names, index=index),
        C=C,
        tol=tol,
    )
