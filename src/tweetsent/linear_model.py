"""Linear SVM trained from scratch by dual coordinate descent.

One binary L2-regularized L1-hinge SVM per class in one-vs-rest
fashion.  Each subproblem is solved in the dual:

    min_a  0.5 * a'Qa - e'a   with  0 <= a_i <= C,
    Q_ij = y_i y_j x_i'x_j

by exact coordinate minimization.  The bias is a constant appended
feature, so it is regularized like any weight.  The primal weights
w = sum_i a_i y_i x_i are maintained incrementally.

Each epoch sweeps the active set, kept in ascending row order, in a
seeded random permutation.  As in LIBLINEAR's shrinking (Hsieh et al.
2008, Algorithm 3), a row leaves the set, without an update, when its
dual sits at 0 with a gradient above the previous sweep's largest
projected gradient, or at C with a gradient below the smallest; a
bound that is not positive (largest) or not negative (smallest) is
taken as infinite.  When a sweep over a shrunk set sees no projected
gradient as large as ``tol``, or after 100 sweeps over shrunk sets in a
row, every row is restored and a full sweep follows.  Training stops
only when a sweep over every row sees no projected gradient as large as
``tol``, or after ``max_epochs`` sweeps.

Prediction is argmax over per-class decision values w_c'x + b_c; ties
resolve to the earliest class in the model's class order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus_io import CLASS_ORDER, MissingClassError
from .features_message import (
    FeatureDictionary,
    FeatureVector,
    IndexedVector,
    vectorize,
)


class ModelFormatError(ValueError):
    """Raised when a model file is malformed or inconsistent."""


class ConvergenceWarning(UserWarning):
    """Warned when a class stops at ``max_epochs`` before a full sweep
    sees no projected gradient as large as ``tol``."""


@dataclass
class LinearModel:
    """Per-class weight rows over a feature dictionary.

    ``weights`` has shape (n_classes, dim + 1); the final column is the
    bias.  A trained model keeps every dictionary feature, weights of
    zero included; a loaded one holds only the features that
    :func:`save_model` wrote.  ``epochs`` and ``alphas`` are training
    diagnostics and are not persisted.  ``epochs`` counts each class's
    sweeps, over a shrunk active set or over every row; class c's final
    dual objective is ``sum(alphas[c]) - 0.5 * ||weights[c]||^2``, bias
    column included.
    """

    class_order: tuple[str, ...]
    weights: np.ndarray
    dictionary: FeatureDictionary
    C: float
    tol: float
    epochs: tuple[int, ...] | None = None
    alphas: tuple[np.ndarray, ...] | None = None


# Sweeps over shrunk active sets in a row before every row is checked
# again, converged or not.  A wrong shrink can leave nearly parallel rows
# in the set whose sweeps never get below ``tol`` (hypothesis found
# 11-row problems stuck past 200,000 sweeps whose full problem converges
# in about 250).  Without this limit, 4 of the 27 msg-induced bench
# subproblems run 104-117 shrunk sweeps in a row.
_MAX_SHRUNK_SWEEPS = 100


def _train_binary(
    rows: list[tuple[np.ndarray, np.ndarray]],
    q_diag: list[float],
    targets: np.ndarray,
    dim: int,
    C: float,
    tol: float,
    max_epochs: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray, float, int]:
    """Solve one binary subproblem.

    ``q_diag[i]`` is row i's squared norm plus 1 for the bias.  Returns
    (weights, epochs run, duals, the last sweep's largest |projected
    gradient|, the number of rows that sweep visited or shrank).
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
    epochs_run = 0
    everything = np.arange(n)
    active = everything
    # The shrinking thresholds: the previous sweep's extreme projected
    # gradients, as the module docstring describes.
    upper, lower = math.inf, -math.inf
    shrunk_sweeps = 0
    violation = math.inf
    for _ in range(max_epochs):
        epochs_run += 1
        swept = len(active)
        high = low = 0.0
        shrunk = []
        for i in active[rng.permutation(len(active))].tolist():
            ind, val = rows[i]
            y = ys[i]
            a = alpha[i]
            # A row's indices are unique, so the gathered weights can be
            # updated and scattered back whole.
            wi = w[ind]
            gradient = y * (float(dot(wi, val)) + bias) - 1.0
            if a <= 0.0:
                if gradient > upper:
                    shrunk.append(i)
                    continue
                projected = min(gradient, 0.0)
            elif a >= C:
                if gradient < lower:
                    shrunk.append(i)
                    continue
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            if projected > high:
                high = projected
            elif projected < low:
                low = projected
            if abs(projected) > 1e-12:
                updated = min(max(a - gradient / q_diag[i], 0.0), C)
                step = (updated - a) * y
                alpha[i] = updated
                w[ind] = wi + val * step
                bias += step
        violation = max(high, -low)
        if len(active) < n:
            shrunk_sweeps += 1
            if violation < tol or shrunk_sweeps == _MAX_SHRUNK_SWEEPS:
                active, upper, lower = everything, math.inf, -math.inf
                shrunk_sweeps = 0
                continue
        elif violation < tol:
            break
        upper = high if high > 0.0 else math.inf
        lower = low if low < 0.0 else -math.inf
        if shrunk:
            active = np.setdiff1d(active, shrunk, assume_unique=True)
    w[dim] = bias
    return w, epochs_run, np.array(alpha), violation, swept


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
    least 1, ``seed`` non-negative, every class in ``classes`` must
    occur in ``labels``, and every row's squared norm must be finite.
    Each binary subproblem draws its epoch permutations from a generator
    derived from (seed, class position), so results do not depend on the
    order the subproblems run in.  A class that stops at ``max_epochs``
    gives a :class:`ConvergenceWarning` naming the class, its sweeps and
    its last sweep's largest projected gradient, unless that sweep went
    over every row and saw none as large as ``tol``.  When the last sweep
    went over a shrunk set, the warning says so: the full set was not
    checked again.  The class's weights are kept.
    """
    for name, value in (("C", C), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be at least 1, got {max_epochs}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
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
            raise MissingClassError(f"class '{cls}' absent from training data")
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
    duals = []
    for position, cls in enumerate(classes):
        targets = np.where(np.array(labels) == cls, 1.0, -1.0)
        rng = np.random.default_rng([seed, position])
        w, epochs_run, alpha, violation, swept = _train_binary(
            rows, q_diag, targets, dim, C, tol, max_epochs, rng
        )
        if swept < len(rows) or violation >= tol:
            detail = (
                f"over a shrunk set of {swept} of {len(rows)} rows; the full "
                "set was not checked against"
                if swept < len(rows)
                else "is not below"
            )
            warnings.warn(
                f"class '{cls}' did not converge in {epochs_run} sweeps "
                f"(max_epochs): max |projected gradient| {violation:.3g} "
                f"{detail} tol {tol:g}",
                ConvergenceWarning,
                stacklevel=2,
            )
        weights[position] = w
        epochs.append(epochs_run)
        duals.append(alpha)
    return LinearModel(
        class_order=tuple(classes),
        weights=weights,
        dictionary=dictionary,
        C=C,
        tol=tol,
        epochs=tuple(epochs),
        alphas=tuple(duals),
    )


def decision_values(model: LinearModel, vector: IndexedVector) -> np.ndarray:
    """Per-class scores w_c'x + b_c in class order."""
    if len(vector.indices) and vector.indices[-1] >= model.dictionary.size:
        raise ValueError("vector indexed by a larger dictionary than the model's")
    return model.weights[:, vector.indices] @ vector.values + model.weights[:, -1]


def classify(model: LinearModel, vector: IndexedVector) -> str:
    """Class with the largest decision value; ties go to the earliest class."""
    return model.class_order[int(np.argmax(decision_values(model, vector)))]


def predict(model: LinearModel, vector: FeatureVector) -> str:
    """:func:`classify` the vector; names unknown to the model drop."""
    return classify(model, vectorize(vector, model.dictionary))


# Rows per write when saving: 64 rows is within 25% of the speed of
# 4,096, and leaves the allocator holding no more memory than writing row
# by row did; training's peak memory comes right after the save.  Each
# distinct weight row is formatted once, before the first write, so the
# save also holds a copy of the kept weight columns and the text of each
# distinct row: at most the size of the ``w`` records, and about a tenth
# of it on the bench models, where most n-grams share their training rows.
_WRITE_ROWS = 64
# Lines per chunk when loading: the transient strings of a chunk stay
# near a megabyte.  Each distinct weight text is checked and parsed once,
# through a memo that lives for one load and keeps the text and its row:
# at most the ``w`` records' text, and about a tenth of it on the bench
# models.
_READ_LINES = 4096


def _interleave(line_format: str, first: int, texts: list[str]) -> str:
    """One ``line_format % (index, text)`` line per text, indices from ``first``."""
    fields = [None] * (2 * len(texts))
    fields[::2] = range(first, first + len(texts))
    fields[1::2] = texts
    return (line_format * len(texts)) % tuple(fields)


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
    :func:`load_model` describes the format.  Each distinct weight
    column is formatted once, and records are written a chunk of rows at
    a time, so memory beyond the model stays near one copy of the kept
    weights and the text of each distinct column.  Raises
    ``ValueError``, before the file is opened, when a feature name holds
    a tab or a line break.
    """
    path = Path(path)
    names = model.dictionary.names
    _check_names(names)
    weights = model.weights
    # A NaN weight counts as non-zero, so load_model still rejects it.
    columns = np.append(np.flatnonzero(weights[:, :-1].any(axis=0)), len(names))
    dim = len(columns) - 1
    kept = np.ascontiguousarray(weights.T[columns])
    # Columns are equal when their bytes are: float equality would write
    # -0.0 as 0 and never match a NaN.
    keys = kept.view(np.dtype((np.void, kept.itemsize * kept.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    row_format = "\t%.9g" * kept.shape[1] + "\n"
    rows = kept[first].ravel().tolist()
    texts = (row_format * len(first) % tuple(rows)).split("\n")
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("# linear model\n")
        fh.write("classes\t" + "\t".join(model.class_order) + "\n")
        fh.write(f"dim\t{dim}\n")
        fh.write(f"C\t{model.C:.9g}\n")
        fh.write(f"tol\t{model.tol:.9g}\n")
        for s in range(0, dim, _WRITE_ROWS):
            chunk = columns[s : min(s + _WRITE_ROWS, dim)].tolist()
            fh.write(_interleave("feat\t%d\t%s\n", s, [names[i] for i in chunk]))
        for s in range(0, dim + 1, _WRITE_ROWS):
            chunk = inverse[s : s + _WRITE_ROWS].tolist()
            fh.write(_interleave("w\t%d%s\n", s, [texts[i] for i in chunk]))
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


def _record_texts(lines: list[str], key: str, first: int, tabs: int) -> list[str]:
    """The text after ``key<TAB>i<TAB>`` in records ``key<TAB>first``, ...

    Each line ends in a line feed and must start with the key ``key``
    and the next index from ``first``, written as :func:`save_model`
    writes it.  Raises ``ValueError`` when some line does not: "malformed
    record" if some line also lacks ``tabs`` tabs, as a record with
    another number of fields is reported first.  The callers check the
    tabs in the texts.
    """
    stop = first + len(lines)
    texts: list[str] = []
    start = first
    while start < stop:  # the index's digits fix where the text starts
        digits = len(str(start))
        end = min(stop, 10**digits)
        cut = len(key) + digits + 2
        texts += [line[cut:-1] for line in lines[start - first : end - first]]
        start = end
    if "".join(lines) != _interleave(key + "\t%d\t%s\n", first, texts):
        if list(map(str.count, lines, repeat("\t"))) != [tabs] * len(lines):
            raise ValueError("malformed record")
        raise ValueError(f"expected {_NOUNS[key]} {first}")
    return texts


def _feature_names(lines: list[str], first: int) -> list[str]:
    """The names in records ``feat<TAB>first<TAB>name``, ...

    Raises ``ValueError`` as :func:`_record_texts` does, or when a name
    holds a tab.
    """
    names = _record_texts(lines, "feat", first, 2)
    if "\t" in "".join(names):
        raise ValueError("malformed record")
    return names


def _weight_rows(
    lines: list[str], first: int, n: int, memo: dict[str, int], rows: list
) -> np.ndarray:
    """The rows of records ``w<TAB>first<TAB>v1...<TAB>vn``, ...

    ``memo`` maps each weight text already read to its row.  A new text
    must hold ``n`` finite numbers written as :func:`save_model` writes
    them; it is parsed once, its values are appended to ``rows``, and
    ``memo`` gets its row.  Raises ``ValueError`` naming the first rule
    that some line breaks (see :func:`_record_texts`).
    """
    texts = _record_texts(lines, "w", first, n + 1)
    new = list(set(texts).difference(memo))
    if new:
        if list(map(str.count, new, repeat("\t"))) != [n - 1] * len(new):
            raise ValueError("malformed record")
        joined = "\t".join(new)
        if not joined.isascii() or any(map(joined.__contains__, _NOT_WRITTEN)):
            raise ValueError("malformed record")
        try:
            values = np.fromiter(
                map(float, joined.split("\t")), np.float64, n * len(new)
            )
        except ValueError:
            raise ValueError("malformed record") from None
        if not np.isfinite(values).all():
            raise ValueError("non-finite weight")
        memo.update(zip(new, range(len(memo), len(memo) + len(new))))
        rows.append(values.reshape(len(new), n))
    return np.fromiter(map(memo.__getitem__, texts), np.intp, len(texts))


def _read_records(
    fh, path: Path, lineno: int, key: str, count: int, check
) -> list:
    """Read records ``key<TAB>0`` to ``key<TAB>count-1`` from line ``lineno``.

    ``check(lines, first)`` checks the records numbered from ``first``
    and returns their fields.  Lines are checked a chunk at a time; a
    chunk that breaks a rule is checked again line by line, so the
    error names the first faulty line.  Returns each chunk's fields.
    """
    chunks = []
    found = 0
    while found < count and (
        lines := list(islice(fh, min(_READ_LINES, count - found)))
    ):
        if not lines[-1].endswith("\n"):
            lines[-1] += "\n"  # the file's last line may lack its end
        try:
            chunks.append(check(lines, found))
        except ValueError:
            for i, line in enumerate(lines):
                try:
                    check([line], found + i)
                except ValueError as fault:
                    raise _fault(
                        str(fault), lineno + found + i, path, line[:-1]
                    ) from None
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
    load and save again gives the same bytes.  Lines are read a chunk at
    a time, and each distinct weight text is checked and parsed once, so
    memory beyond the model stays within one chunk of lines and the text
    of the distinct weight rows.

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
            chunks = _read_records(fh, path, 6, "feat", dim, _feature_names)
            dictionary = FeatureDictionary(tuple(chain.from_iterable(chunks)))
            if len(dictionary.index) != dim:
                seen = set()
                for i, name in enumerate(dictionary.names):
                    if name in seen:
                        line = f"feat\t{i}\t{name}"
                        raise _fault("duplicate feature name", 6 + i, path, line)
                    seen.add(name)
            n = len(class_order)
            rows: list[np.ndarray] = []
            check = partial(_weight_rows, n=n, memo={}, rows=rows)
            ids = _read_records(fh, path, 6 + dim, "w", dim + 1, check)
            if line := fh.readline():
                line = line.removesuffix("\n")
                raise _fault("line after the last weight row", 7 + 2 * dim, path, line)
    except UnicodeDecodeError:
        raise ModelFormatError(f"not valid UTF-8 text in {path}") from None
    return LinearModel(
        class_order=class_order,
        weights=np.concatenate(rows)[np.concatenate(ids)].T.copy(),
        dictionary=dictionary,
        C=C,
        tol=tol,
    )
