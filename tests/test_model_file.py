"""The bulk model-file writer and reader against the per-record oracles."""

import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import oracle_load_model, oracle_save_model
from tweetsent import linear_model
from tweetsent.features_message import FeatureDictionary
from tweetsent.linear_model import (
    LinearModel,
    ModelFormatError,
    load_model,
    save_model,
)

CHUNK = linear_model._WRITE_ROWS

# Names may hold any character but the field and line separators.
_NAME = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\t\n\r"), max_size=8
)
_LINE_CHARS = st.characters(codec="utf-8", exclude_characters="\n\r")
_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 1e-7, 0.1]


@st.composite
def models(draw, dims=st.integers(0, 12), finite=True):
    classes = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    dim = draw(dims)
    names = draw(st.lists(_NAME, max_size=min(dim, 6), unique=True))
    names += [f"name {i}" for i in range(len(names), dim)]
    assume(len(set(names)) == dim)
    pool = draw(
        st.lists(st.floats(allow_nan=not finite, allow_infinity=not finite),
                 max_size=6)
    ) + _SPECIAL
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.array(pool)[rng.integers(0, len(pool), (len(classes), dim + 1))]
    if draw(st.booleans()):
        # Every column one of at most three: a drawn column, the same with
        # the sign of its zeros flipped and, unless finite, with a NaN.
        column = weights[:, 0]
        twins = [column, np.where(column == 0, -column, column)]
        if not finite:
            twins.append(np.where(np.arange(len(column)) == 0, np.nan, column))
        picks = rng.integers(0, draw(st.integers(1, len(twins))), dim + 1)
        weights = np.stack(twins, axis=1)[:, picks]
    setting = st.floats(allow_nan=False, allow_infinity=False)
    return LinearModel(
        class_order=tuple(classes),
        weights=weights,
        dictionary=FeatureDictionary(tuple(names)),
        C=draw(setting),
        tol=draw(setting),
    )


def _outcome(load, path):
    try:
        return load(path), None
    except Exception as err:  # the oracle's errors are part of its outcome
        return None, err


def _line(err):
    found = re.search(r"at line (\d+)", str(err))
    return found and int(found.group(1))


def _assert_same_model(got, want):
    assert got.class_order == want.class_order
    assert got.dictionary == want.dictionary
    assert got.C == want.C
    assert got.tol == want.tol
    assert np.array_equal(got.weights, want.weights)


def _oracle_lines(model, tmp_path):
    path = tmp_path / "oracle.tsv"
    oracle_save_model(model, path)
    return path.read_text(encoding="utf-8").split("\n")[:-1]


def _pruned(model):
    """``model`` without the features whose weights are zero in every class.

    NaN compares unequal to 0, so a NaN column is kept.
    """
    dim = model.dictionary.size
    keep = [i for i in range(dim) if any(w != 0 for w in model.weights[:, i])]
    names = tuple(model.dictionary.names[i] for i in keep)
    return LinearModel(
        class_order=model.class_order,
        weights=model.weights[:, keep + [dim]],
        dictionary=FeatureDictionary(names),
        C=model.C,
        tol=model.tol,
    )


@settings(max_examples=150)
@given(
    models(
        dims=st.one_of(
            st.integers(0, 20),
            st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
        ),
        finite=False,
    )
)
def test_writer_bytes_match_oracle(tmp_path_factory, model):
    """The writer saves what the oracle saves of the pruned model."""
    tmp_path = tmp_path_factory.mktemp("writer")
    pruned = _pruned(model)
    assert save_model(model, tmp_path / "new.tsv") == pruned.dictionary.size
    oracle_save_model(pruned, tmp_path / "oracle.tsv")
    assert (tmp_path / "new.tsv").read_bytes() == (
        tmp_path / "oracle.tsv"
    ).read_bytes()


def _model(names, weights):
    return LinearModel(
        class_order=("negative", "positive"),
        weights=np.array(weights, dtype=float),
        dictionary=FeatureDictionary(tuple(names)),
        C=1.0,
        tol=0.1,
    )


def test_only_features_with_a_non_zero_or_nan_weight_are_saved(tmp_path):
    nan = float("nan")
    model = _model(
        ["zero", "nan", "negzero", "a", "b"],
        [[0.0, nan, -0.0, 1.5, 0.0, 0.25], [0.0, 0.0, 0.0, 0.0, -2.0, -0.25]],
    )
    path = tmp_path / "m.tsv"
    assert save_model(model, path) == 3
    assert path.read_text() == (
        "# linear model\nclasses\tnegative\tpositive\ndim\t3\nC\t1\ntol\t0.1\n"
        "feat\t0\tnan\nfeat\t1\ta\nfeat\t2\tb\n"
        "w\t0\tnan\t0\nw\t1\t1.5\t0\nw\t2\t0\t-2\nw\t3\t0.25\t-0.25\n"
    )
    # The NaN is written, so loading still refuses it.
    with pytest.raises(ModelFormatError, match="non-finite weight at line 9 "):
        load_model(path)


def test_all_zero_model_saves_with_dim_0(tmp_path):
    model = _model(["a", "b"], [[0.0, -0.0, 0.5], [0.0, 0.0, -0.5]])
    path = tmp_path / "m.tsv"
    assert save_model(model, path) == 0
    assert path.read_text().split("\n")[2:] == [
        "dim\t0", "C\t1", "tol\t0.1", "w\t0\t0.5\t-0.5", ""
    ]
    loaded = load_model(path)
    assert loaded.dictionary.size == 0
    np.testing.assert_array_equal(loaded.weights, [[0.5], [-0.5]])


@settings(max_examples=100)
@given(models())
def test_pruned_save_load_save_is_byte_identical(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("cycle") / "m.tsv"
    written = save_model(model, path)
    first = path.read_bytes()
    loaded = load_model(path)
    assert loaded.dictionary == _pruned(model).dictionary
    # 9 digits never round a non-zero weight to 0, so nothing more is pruned.
    assert save_model(loaded, path) == written
    assert path.read_bytes() == first


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb", "\r"])
def test_names_a_model_file_cannot_hold_are_refused(tmp_path, name):
    # The name is refused even where its weights are zero.
    model = _model(["ok", name], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    path = tmp_path / "m.tsv"
    with pytest.raises(ValueError, match=re.escape(f"feature name {name!r} holds")):
        save_model(model, path)
    assert not path.exists()


# Lines per chunk: one line per chunk, chunks that end inside the
# feature or weight rows, and the default.
_READ_SIZES = st.sampled_from([1, 7, 64, linear_model._READ_LINES])
_BLANK = st.sampled_from(["", " ", "\t", " \t ", "\x0b"])
_COMMENT = _NAME.map(lambda text: "#" + text)


def _write(path, lines, newline, ending):
    path.write_bytes((newline.join(lines) + ending).encode("utf-8"))


@settings(max_examples=200)
@given(
    model=models(
        dims=st.one_of(
            st.integers(0, 12),
            st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1]),
        )
    ),
    data=st.data(),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    read_lines=_READ_SIZES,
)
def test_valid_files_load_like_oracle(
    tmp_path_factory, model, data, newline, read_lines
):
    tmp_path = tmp_path_factory.mktemp("valid")
    path = tmp_path / "model.tsv"
    ending = data.draw(st.sampled_from(["", newline]))
    _write(path, _oracle_lines(model, tmp_path), newline, ending)
    with mock.patch.object(linear_model, "_READ_LINES", read_lines):
        got = load_model(path)
    _assert_same_model(got, oracle_load_model(path))


@settings(max_examples=100)
@given(model=models(), data=st.data(), read_lines=_READ_SIZES)
def test_reordered_or_padded_files_name_a_line(
    tmp_path_factory, model, data, read_lines
):
    tmp_path = tmp_path_factory.mktemp("reordered")
    lines = _oracle_lines(model, tmp_path)
    if data.draw(st.booleans()):
        changed = data.draw(st.permutations(lines))
        assume(changed != lines)
    else:
        changed = list(lines)
        extra = data.draw(st.one_of(_BLANK, _COMMENT))
        changed.insert(data.draw(st.integers(0, len(lines))), extra)
    path = tmp_path / "model.tsv"
    _write(path, changed, "\n", "\n")
    with mock.patch.object(linear_model, "_READ_LINES", read_lines):
        with pytest.raises(ModelFormatError) as err:
            load_model(path)
    assert _line(err.value) is not None
    assert str(path) in str(err.value)


_GARBLE_CHARS = st.sampled_from(
    ["\t", "x", "0", "9", "-", "+", ".", "e", " ", "_", "#", "nan", "\x0b", "\u0661"]
)


@st.composite
def mutated(draw, tmp_path):
    """A valid model file with lines dropped, repeated, swapped or garbled,
    or arbitrary bytes; returns (bytes, whether one line was garbled)."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=200)), False
    lines = _oracle_lines(draw(models(dims=st.integers(0, 5))), tmp_path)
    kinds = ["drop", "repeat", "swap", "garble", "edit", "copy"]
    kind = draw(st.sampled_from(kinds))
    at = draw(st.integers(0, len(lines) - 1))
    weight_lines = [i for i, line in enumerate(lines) if line.startswith("w\t")]
    if kind == "copy" and len(weight_lines) > 1:
        # A weight line replaced by an earlier one, whose values the
        # reader has already parsed.
        at = draw(st.sampled_from(weight_lines[1:]))
        earlier = weight_lines[: weight_lines.index(at)]
        lines[at] = lines[draw(st.sampled_from(earlier))]
    elif kind == "drop":
        del lines[at]
    elif kind == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
    elif kind == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "garble":
        lines[at] = draw(st.text(alphabet=_LINE_CHARS, max_size=20))
    else:
        line = lines[at]
        start = draw(st.integers(0, len(line)))
        end = draw(st.integers(start, min(len(line), start + 3)))
        lines[at] = line[:start] + draw(_GARBLE_CHARS) + line[end:]
    one_line = kind in ("garble", "edit", "copy")
    return ("\n".join(lines) + "\n").encode("utf-8"), one_line


@settings(max_examples=400)
@given(data=st.data(), read_lines=_READ_SIZES)
def test_mutated_files_fail_like_oracle(tmp_path_factory, data, read_lines):
    tmp_path = tmp_path_factory.mktemp("mutated")
    raw, one_line = data.draw(mutated(tmp_path))
    path = tmp_path / "mutated.tsv"
    path.write_bytes(raw)
    want, oracle_error = _outcome(oracle_load_model, path)
    with mock.patch.object(linear_model, "_READ_LINES", read_lines):
        try:
            got, error = load_model(path), None
        except ModelFormatError as err:
            got, error = None, err
    if oracle_error is None:
        assert error is None
    else:
        assert error is not None
        if one_line and _line(oracle_error):
            assert _line(error) == _line(oracle_error)
    if error is None:
        _assert_same_model(got, want)
    else:
        assert str(path) in str(error)


def test_first_faulty_line_is_reported_across_blocks(tmp_path):
    names = [f"f{i}" for i in range(40)]
    model = LinearModel(
        class_order=("negative", "positive"),
        weights=np.arange(82.0).reshape(2, 41),
        dictionary=FeatureDictionary(tuple(names)),
        C=1.0,
        tol=0.1,
    )
    path = tmp_path / "m.tsv"
    save_model(model, path)
    lines = path.read_text().split("\n")
    lines[70] = "w\t25\tx\t1"
    lines[30] = "feat\t25\tf25\textra"
    lines[60] = "C\t2"
    path.write_text("\n".join(lines))
    for read_lines in (1, 64, linear_model._READ_LINES):
        with mock.patch.object(linear_model, "_READ_LINES", read_lines):
            with pytest.raises(ModelFormatError, match="malformed record at line 31 "):
                load_model(path)


def test_each_distinct_weight_text_is_parsed_once(tmp_path):
    """300 weight columns over 3 classes, each one of 4 distinct columns:
    12 weights are converted, plus C and tol, however the lines chunk."""
    rng = np.random.default_rng(0)
    distinct = rng.normal(size=(3, 4))
    picks = np.append(np.arange(4), rng.integers(0, 4, 296))
    model = LinearModel(
        class_order=("negative", "neutral", "positive"),
        weights=distinct[:, picks],
        dictionary=FeatureDictionary(tuple(f"f{i}" for i in range(299))),
        C=1.0,
        tol=0.1,
    )
    path = tmp_path / "m.tsv"
    save_model(model, path)
    for read_lines in (7, linear_model._READ_LINES):
        converted = []

        def counting_float(text):
            converted.append(text)
            return float(text)

        with mock.patch.object(linear_model, "float", counting_float, create=True):
            with mock.patch.object(linear_model, "_READ_LINES", read_lines):
                loaded = load_model(path)
        _assert_same_model(loaded, oracle_load_model(path))
        assert len(converted) == 2 + 4 * 3


def _small_model_lines(tmp_path):
    """Lines of a saved 2-class, 2-feature model: C 0.5, tol 0.1."""
    model = LinearModel(
        class_order=("negative", "positive"),
        weights=np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]]),
        dictionary=FeatureDictionary(("a", "b")),
        C=0.5,
        tol=0.1,
    )
    path = tmp_path / "small.tsv"
    save_model(model, path)
    return path.read_text(encoding="utf-8").split("\n")


@pytest.mark.parametrize(
    "lineno,line",
    [
        (3, "dim\t+2"),
        (3, "dim\t02"),
        (3, "dim\t 2"),
        (3, "dim\t2 "),
        (3, "dim\t\u0662"),
        (4, "C\t 0.5"),
        (4, "C\t0.50"),
        (4, "C\t.5"),
        (4, "C\t5e-1"),
        (5, "tol\t0.1\x0b"),
        (5, "tol\t1_0"),
        (8, "w\t0\t1_0\t0.25"),
        (8, "w\t0\t 1\t0.25"),
        (9, "w\t1\t-2\t3\x1c"),
        (10, "w\t2\t0.5\t-1\u2003"),
        (10, "w\t2\t\u0660.5\t-1"),
    ],
)
def test_numbers_save_model_never_writes_are_malformed(tmp_path, lineno, line):
    lines = _small_model_lines(tmp_path)
    lines[lineno - 1] = line
    path = tmp_path / "m.tsv"
    path.write_text("\n".join(lines), encoding="utf-8")
    message = f"malformed record at line {lineno} of {path}: {line!r}"
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert str(err.value) == message
    with pytest.raises(ModelFormatError, match=f"malformed record at line {lineno}"):
        oracle_load_model(path)


def test_non_finite_settings_are_reported_before_their_spelling(tmp_path):
    lines = _small_model_lines(tmp_path)
    lines[3] = "C\tNaN"
    path = tmp_path / "m.tsv"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="non-finite C at line 4 "):
        load_model(path)


def _fault_items(text):
    """The bullet items after ``when:``, without backticks or line wraps."""
    block = text.split("when:\n\n", 1)[1].split("\n\n", 1)[0]
    items = re.split(r"^\s*- ", block, flags=re.M)[1:]
    return [" ".join(item.replace("`", "").split()) for item in items]


def test_readme_and_docstring_list_the_same_faults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Model file\n", 1)[1].split("\n## ", 1)[0]
    documented = _fault_items(section)
    assert len(documented) > 1
    assert documented == _fault_items(load_model.__doc__)
