"""The bulk model-file writer and reader against the per-record oracles."""

import re
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
    setting = st.floats(allow_nan=False, allow_infinity=False)
    return LinearModel(
        class_order=tuple(classes),
        weights=weights,
        dictionary=FeatureDictionary(
            names=tuple(names), index={n: i for i, n in enumerate(names)}
        ),
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
    tmp_path = tmp_path_factory.mktemp("writer")
    save_model(model, tmp_path / "new.tsv")
    oracle_save_model(model, tmp_path / "oracle.tsv")
    assert (tmp_path / "new.tsv").read_bytes() == (
        tmp_path / "oracle.tsv"
    ).read_bytes()


# Characters per read: one line per block, blocks that end mid-record and
# mid-newline, and the default.
_READ_SIZES = st.sampled_from([1, 7, 64, linear_model._READ_CHARS])
_BLANK = st.sampled_from(["", " ", "\t", " \t ", "\x0b"])
_COMMENT = _NAME.map(lambda text: "#" + text)


@settings(max_examples=200)
@given(
    model=models(),
    data=st.data(),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    read_chars=_READ_SIZES,
)
def test_valid_files_load_like_oracle(
    tmp_path_factory, model, data, newline, read_chars
):
    tmp_path = tmp_path_factory.mktemp("valid")
    lines = data.draw(st.permutations(_oracle_lines(model, tmp_path)))
    for extra in data.draw(st.lists(st.one_of(_BLANK, _COMMENT), max_size=4)):
        lines.insert(data.draw(st.integers(0, len(lines))), extra)
    path = tmp_path / "shuffled.tsv"
    ending = data.draw(st.sampled_from(["", newline]))
    path.write_bytes((newline.join(lines) + ending).encode("utf-8"))
    with mock.patch.object(linear_model, "_READ_CHARS", read_chars):
        got = load_model(path)
    _assert_same_model(got, oracle_load_model(path))


_GARBLE_CHARS = st.sampled_from(
    ["\t", "x", "0", "9", "-", ".", "e", " ", "#", "nan", "\x0b"]
)


@st.composite
def mutated(draw, tmp_path):
    """A valid model file with lines dropped, repeated, swapped or garbled,
    or arbitrary bytes; returns (bytes, whether one line was garbled)."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=200)), False
    lines = _oracle_lines(draw(models(dims=st.integers(0, 5))), tmp_path)
    kind = draw(st.sampled_from(["drop", "repeat", "swap", "garble", "edit"]))
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
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
    return ("\n".join(lines) + "\n").encode("utf-8"), kind in ("garble", "edit")


def _huge_dim(raw):
    """True when some dim record would make the oracle build a huge list."""
    text = raw.decode("utf-8", errors="replace")
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        if line.startswith("dim\t"):
            try:
                if int(line.split("\t")[1]) > 10**6:
                    return True
            except (ValueError, IndexError):
                pass
    return False


@settings(max_examples=400)
@given(data=st.data(), read_chars=_READ_SIZES)
def test_mutated_files_fail_like_oracle(tmp_path_factory, data, read_chars):
    tmp_path = tmp_path_factory.mktemp("mutated")
    raw, one_line = data.draw(mutated(tmp_path))
    assume(not _huge_dim(raw))
    path = tmp_path / "mutated.tsv"
    path.write_bytes(raw)
    want, oracle_error = _outcome(oracle_load_model, path)
    with mock.patch.object(linear_model, "_READ_CHARS", read_chars):
        try:
            got, error = load_model(path), None
        except ModelFormatError as err:
            got, error = None, err
    if oracle_error is not None:
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
        dictionary=FeatureDictionary(
            names=tuple(names), index={n: i for i, n in enumerate(names)}
        ),
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
    for read_chars in (1, 64, linear_model._READ_CHARS):
        with mock.patch.object(linear_model, "_READ_CHARS", read_chars):
            with pytest.raises(ModelFormatError, match="malformed record at line 31 "):
                load_model(path)
