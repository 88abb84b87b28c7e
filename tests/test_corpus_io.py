import math
import re
import warnings
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    oracle_load_cluster_map,
    oracle_load_lexicon,
    oracle_load_message_corpus,
    oracle_load_raw_corpus,
    oracle_load_seed_set,
    oracle_load_term_corpus,
    oracle_unescape_text,
)

from tweetsent.corpus_io import (
    CLASS_ORDER,
    CorpusFormatError,
    LabeledMessage,
    Lexicon,
    TermInstance,
    _unescape_text,
    load_cluster_map,
    load_lexicon,
    load_message_corpus,
    load_raw_corpus,
    load_seed_set,
    load_term_corpus,
    write_lexicon,
    write_message_corpus,
    write_raw_corpus,
    write_term_corpus,
)
from tweetsent.tokenizer import normalize, tokenize


def test_class_order_fixed():
    assert CLASS_ORDER == ("negative", "neutral", "positive")


def test_message_corpus_round_trip(tmp_path):
    messages = [
        LabeledMessage(id="a1", text="hello world", label="positive"),
        LabeledMessage(id="a2", text="with\ttab and \\ backslash", label="neutral"),
        LabeledMessage(id="a3", text="bad day", label="negative"),
    ]
    path = tmp_path / "corpus.tsv"
    write_message_corpus(messages, path)
    assert load_message_corpus(path) == messages


def test_message_corpus_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# header\n\nm1\tpositive\thi\n  \nm2\tnegative\tbye\n")
    loaded = load_message_corpus(path)
    assert [m.id for m in loaded] == ["m1", "m2"]


def test_message_corpus_bad_label(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("m1\tpos\thi\n")
    with pytest.raises(CorpusFormatError, match="unknown label 'pos' at line 1") as err:
        load_message_corpus(path)
    assert str(path) in str(err.value)


def test_message_corpus_bad_column_count(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("m1\tpositive\n")
    with pytest.raises(CorpusFormatError, match="expected 3 tab-separated") as err:
        load_message_corpus(path)
    assert str(path) in str(err.value)


def test_message_corpus_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_message_corpus(tmp_path / "nope.tsv")


def test_tagged_corpus(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("m1\tpositive\tGood day !\tGood/A day/N !/,\n")
    msg = load_message_corpus(path, format="tagged")[0]
    assert msg.tagged == (("Good", "A"), ("day", "N"), ("!", ","))


def test_loaded_rows_hold_token_tuples(tmp_path):
    plain, tagged, terms = (tmp_path / f"{name}.tsv" for name in ("p", "t", "terms"))
    plain.write_text("m1\tpositive\tGood day !\n")
    tagged.write_text("m1\tpositive\tGood day !\tGood/A day/N !/,\n")
    terms.write_text("t1\t0\t1\tpositive\tGood day !\n")
    rows = [
        *load_message_corpus(plain),
        *load_message_corpus(tagged, format="tagged"),
        *load_term_corpus(terms),
    ]
    assert [type(row.tokens.tokens) for row in rows] == [tuple] * 3


def test_message_is_tokenized_on_construction():
    message = LabeledMessage(id="a", text="I don't like it , ok", label="negative")
    assert message.tokens == tokenize(normalize(message.text))
    assert [t.surface for t in message.tokens.tokens][:3] == ["I", "do", "n't"]
    assert "tokens" not in repr(message)


def test_tagged_message_keeps_given_tokens():
    message = LabeledMessage(
        id="a",
        text="ignored",
        label="positive",
        tagged=(("Good", "A"), ("day", "N")),
    )
    assert [t.surface for t in message.tokens.tokens] == ["Good", "day"]
    assert [t.pos_tag for t in message.tokens.tokens] == ["A", "N"]


def test_replacing_a_message_text_tokenizes_the_new_text():
    message = LabeledMessage(id="a", text="good day", label="positive")
    negated = replace(message, text="not good")
    assert negated.tokens == tokenize("not good")
    assert message.tokens == tokenize("good day")


def test_tagged_corpus_malformed_pair(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("m1\tpositive\thi\tGoodA\n")
    with pytest.raises(CorpusFormatError, match="malformed surface/TAG") as err:
        load_message_corpus(path, format="tagged")
    assert str(path) in str(err.value)


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown corpus format"):
        load_message_corpus("whatever.tsv", format="xml")


def test_raw_corpus_round_trip(tmp_path):
    rows = [("r1", "some text"), ("r2", "tab\there")]
    path = tmp_path / "raw.tsv"
    write_raw_corpus(rows, path)
    assert load_raw_corpus(path) == rows


def test_term_corpus_round_trip(tmp_path):
    instances = [
        TermInstance(id="t1", text="not good at all", label="negative", start=1, end=1),
        TermInstance(id="t2", text="a fine day", label="positive", start=0, end=2),
    ]
    path = tmp_path / "terms.tsv"
    write_term_corpus(instances, path)
    assert load_term_corpus(path) == instances


@pytest.mark.parametrize("label", ["positive", "bogus"])
def test_term_corpus_span_out_of_range(tmp_path, label):
    # A bad span is reported before a bad label on the same line.
    path = tmp_path / "terms.tsv"
    path.write_text(f"t1\t0\t5\t{label}\tonly three tokens\n")
    with pytest.raises(CorpusFormatError) as err:
        load_term_corpus(path)
    assert str(err.value) == (
        f"span [0, 5] of instance 't1' out of range for 3 tokens (line 1 of {path})"
    )


def test_term_corpus_non_integer_span(tmp_path):
    path = tmp_path / "terms.tsv"
    path.write_text("t1\tx\t1\tpositive\thi there\n")
    with pytest.raises(CorpusFormatError, match="non-integer span") as err:
        load_term_corpus(path)
    assert str(path) in str(err.value)


def test_lexicon_round_trip(tmp_path):
    lexicon = Lexicon(
        name="toy",
        affects=("positive", "negative"),
        entries={
            "good": {"positive": 1.25},
            "bad": {"negative": -0.5},
            "bi:so good": {"positive": 2.0},
        },
    )
    path = tmp_path / "toy.lex"
    write_lexicon(lexicon, path)
    loaded = load_lexicon(path)
    assert loaded.name == "toy"
    for term, by in lexicon.entries.items():
        for affect, score in by.items():
            assert loaded.entries[term][affect] == pytest.approx(score, abs=1e-6)


def test_lexicon_name_defaults_to_stem(tmp_path):
    path = tmp_path / "mylex.lex"
    path.write_text("good\tpositive\t1.0\n")
    assert load_lexicon(path).name == "mylex"
    assert load_lexicon(path, name="other").name == "other"


def test_lexicon_duplicate_warns_last_wins(tmp_path):
    path = tmp_path / "d.lex"
    path.write_text("good\tpositive\t1.0\ngood\tpositive\t3.0\n")
    warning = f"duplicate lexicon entry ('good', 'positive') at line 2 of {path};"
    with pytest.warns(UserWarning, match=re.escape(warning)):
        lexicon = load_lexicon(path)
    assert lexicon.entries["good"]["positive"] == 3.0


def test_lexicon_bad_score(tmp_path):
    path = tmp_path / "d.lex"
    path.write_text("good\tpositive\tNaN?\n")
    with pytest.raises(CorpusFormatError, match="non-numeric score") as err:
        load_lexicon(path)
    assert str(path) in str(err.value)


def test_empty_lexicon_round_trip(tmp_path):
    path = tmp_path / "e.lex"
    write_lexicon(Lexicon(name="e", affects=()), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_lexicon(path)
    assert loaded.entries == {}


def test_from_word_lists_encoding():
    lexicon = Lexicon.from_word_lists("wl", ["Good"], ["bad"])
    assert lexicon.entries["good"]["positive"] == 1.0
    assert lexicon.entries["bad"]["negative"] == -1.0
    assert lexicon.kind == "manual"


def test_lexicon_score_and_namespaces():
    lexicon = Lexicon(
        name="n",
        affects=("positive",),
        entries={"good": {"positive": 1.0}, "pair:a---b": {"positive": 0.5}},
    )
    assert lexicon.entries["good"]["positive"] == 1.0
    assert "negative" not in lexicon.entries["good"]
    assert "missing" not in lexicon.entries
    assert lexicon.namespaces() == frozenset({"uni", "pair"})


def test_loading_a_lexicon_builds_no_pair_table(tmp_path):
    """The pair table is built on the first pair lookup, not in
    ``load_lexicon``, whose time is a setup cost."""
    path = tmp_path / "lex.tsv"
    path.write_text("pair:a---b\tpositive\t0.5\npair:a---c d\tpositive\t1\n")
    lexicon = load_lexicon(path)
    assert "pair_table" not in vars(lexicon)
    assert "pair_tails" not in vars(lexicon)
    assert lexicon.pair_table == {"a": {"b": (0.5,), "c d": (1.0,)}}
    assert "pair_table" in vars(lexicon)


def test_cluster_map(tmp_path):
    path = tmp_path / "clusters.tsv"
    path.write_text("good\t17\nbad\t999\n")
    clusters = load_cluster_map(path)
    assert clusters.get("good") == 17
    assert clusters.get("unknown") is None


def test_cluster_map_range(tmp_path):
    path = tmp_path / "clusters.tsv"
    path.write_text("good\t1000\n")
    with pytest.raises(CorpusFormatError, match=r"out of range \[0, 999\]") as err:
        load_cluster_map(path)
    assert str(path) in str(err.value)


_LOADERS = {
    "message": load_message_corpus,
    "raw": load_raw_corpus,
    "term": load_term_corpus,
    "lexicon": load_lexicon,
    "cluster": load_cluster_map,
    "seed": load_seed_set,
}


@pytest.mark.parametrize(
    "loader,text,message",
    [
        ("message", "m1\tpositive\thi\nm2\tpositive\n", "expected 3 tab-separated"),
        ("message", "m1\tbogus\thi\n", "unknown label 'bogus'"),
        ("raw", "# c\nno-tab\n", "expected 2 tab-separated"),
        ("term", "t1\t0\t0\tpositive\n", "expected 5 tab-separated"),
        ("term", "t1\t0\t0\tbogus\thi\n", "unknown label 'bogus'"),
        ("lexicon", "good\tpositive\n", "expected 3 tab-separated"),
        ("lexicon", "good\tpositive\tnan\n", "non-finite score 'nan'"),
        ("lexicon", "a\tpositive\t1\ngood\tpositive\tinf\n", "non-finite score 'inf'"),
        ("lexicon", "good\tpositive\t-1e400\n", "non-finite score '-1e400'"),
        ("cluster", "good\tx\n", "non-integer cluster id 'x'"),
        (
            "seed",
            "happy\tpositive\njoy\tpositive\nHappy\tnegative\n",
            "seed 'Happy' is listed as both positive and negative",
        ),
    ],
)
def test_loader_errors_name_the_file(tmp_path, loader, text, message):
    path = tmp_path / f"{loader}.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        _LOADERS[loader](path)
    line = text.count("\n")
    assert str(err.value).startswith(message)
    assert f" at line {line} of {path}" in str(err.value)


def test_tagged_loader_error_names_the_file(tmp_path):
    path = tmp_path / "tagged.tsv"
    path.write_text("m1\tpositive\thi\t \n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_message_corpus(path, format="tagged")
    assert str(err.value) == f"empty tagged-token column at line 1 of {path}"


def test_tagged_corpus_tab_in_tagged_column(tmp_path):
    # Split at most three times, the tab would end up inside a surface.
    path = tmp_path / "tagged.tsv"
    path.write_text("a\tpositive\tgood day\tgood/A\tday/N\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_message_corpus(path, format="tagged")
    assert str(err.value) == (
        f"expected 4 tab-separated fields at line 1 of {path}, got 5"
    )


@pytest.mark.parametrize("loader", sorted(_LOADERS))
def test_non_utf8_file_names_the_file(tmp_path, loader):
    path = tmp_path / f"{loader}.tsv"
    path.write_bytes("m1\tpositive\tcaf\u00e9\n".encode("latin-1"))
    with pytest.raises(CorpusFormatError) as err:
        _LOADERS[loader](path)
    assert str(err.value) == f"not valid UTF-8 text in {path}"


@given(st.text(alphabet=["\\", "t", "\t", "a", "b"], max_size=24))
def test_unescape_matches_character_loop(text):
    assert _unescape_text(text) == oracle_unescape_text(text)


def _outcome(load, path):
    """What ``load(path)`` returns or raises, with the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loaded, error = load(path), None
        except CorpusFormatError as err:
            loaded, error = None, (type(err), str(err))
    return loaded, error, [(w.category, str(w.message)) for w in caught]


# Each fuzzed loader with its oracle and the column count of its rows.
_FUZZ_LOADERS = {
    "message": (load_message_corpus, oracle_load_message_corpus, 3),
    "tagged": (
        partial(load_message_corpus, format="tagged"),
        partial(oracle_load_message_corpus, format="tagged"),
        4,
    ),
    "raw": (load_raw_corpus, oracle_load_raw_corpus, 2),
    "term": (load_term_corpus, oracle_load_term_corpus, 5),
    "lexicon": (load_lexicon, oracle_load_lexicon, 3),
    "cluster": (load_cluster_map, oracle_load_cluster_map, 2),
    "seed": (load_seed_set, oracle_load_seed_set, 2),
}
# Pieces of TSV-shaped text: separators, line ends, comment marks,
# labels, numbers, non-finite spellings, tagged pairs and non-ASCII
# letters and whitespace.  A field is one well-formed value or a run of
# pieces, and a row has about the loader's column count, so that some
# files parse and reach the checks on success.
_FUZZ_PIECES = [
    "\t", "\n", "\r", "\r\n", "#", " ", "/", "\\", "\\t", "0", "7", "-", ".", "e",
    "positive", "neutral", "nan", "inf", "good", "a/N", "\u00e9", "\u4e2d",
    "\u0661", "\u00a0", "\x0c", "\x0b", "\x85", "\u2028",
]
_FUZZ_FIELD = st.one_of(
    st.sampled_from(["positive", "negative", "neutral"]),
    st.sampled_from(
        ["0", "1", "-2", "999", "1000", "0.5", "1e308", "1e400", "-1e400",
         "nan", "NaN", "inf", "-inf", "Infinity"]
    ),
    st.sampled_from(
        ["good", "#good", "bi:a b", "pair:a---b", "good/A day/N", "a/N\x0cb/V",
         "\u4e2d\u6587/N", "a/N\u00a0b/N"]
    ),
    st.lists(st.sampled_from(_FUZZ_PIECES), max_size=4).map("".join),
)


def _fuzz_text(width: int) -> st.SearchStrategy[bytes]:
    row = st.integers(max(1, width - 1), width + 1).flatmap(
        lambda n: st.lists(_FUZZ_FIELD, min_size=n, max_size=n).map("\t".join)
    )
    return st.lists(row, max_size=3).map(lambda rows: "\n".join(rows).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("loader", sorted(_FUZZ_LOADERS))
def test_loaders_accept_or_raise_corpus_format_error(tmp_path_factory, loader, data):
    load, oracle, width = _FUZZ_LOADERS[loader]
    path = tmp_path_factory.getbasetemp() / f"fuzz_{loader}.tsv"
    path.write_bytes(data.draw(st.binary(max_size=120) | _fuzz_text(width)))
    loaded, error, warned = _outcome(load, path)
    assert (loaded, error, warned) == _outcome(oracle, path)
    if error is not None:
        return
    if loader == "lexicon":
        for by_affect in loaded.entries.values():
            assert all(math.isfinite(score) for score in by_affect.values())
    if loader == "tagged":
        for message in loaded:
            for surface, _ in message.tagged:
                assert surface and not any(c.isspace() for c in surface)
    if loader == "seed":
        for seed in loaded.positive | loaded.negative:
            assert [(t.kind, t.surface) for t in tokenize(seed).tokens] == [
                ("hashtag", seed)
            ]


# Two valid rows per loader.
_SAMPLE_ROWS = {
    "message": ["m1\tpositive\tgood\tday", "m2\tnegative\tbad \\t day"],
    "tagged": ["m1\tpositive\tgood day\tgood/A day/N", "m2\tneutral\tok\tok/R"],
    "raw": ["r1\tgood\tday :)", "r2\t# not a comment"],
    "term": ["t1\t0\t0\tpositive\tgood day", "t2\t1\t1\tnegative\tso\tbad"],
    "lexicon": ["good\tpositive\t1.5", "bad\tnegative\t-2"],
    "cluster": ["good\t17", "bad\t999"],
    "seed": ["happy\tpositive", "sad\tnegative"],
}
# Comment and blank lines placed around the rows: a comment is a line
# whose first non-blank character is "#".
_LAYOUT = ["# header", "{0}", "", "   # indented", "\t# tab-indented", " \t ", "{1}"]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("loader", sorted(_FUZZ_LOADERS))
def test_loaders_accept_every_line_end_and_indented_comments(tmp_path, loader, newline):
    load, oracle, _ = _FUZZ_LOADERS[loader]
    rows = _SAMPLE_ROWS[loader]
    (tmp_path / "lf").mkdir()
    plain = tmp_path / "lf" / "rows.tsv"
    plain.write_bytes("\n".join(rows).encode("utf-8"))
    path = tmp_path / "rows.tsv"
    layout = newline.join(_LAYOUT).format(*rows) + newline
    path.write_bytes(layout.encode("utf-8"))
    assert load(path) == load(plain) == oracle(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("loader", sorted(_FUZZ_LOADERS))
def test_loader_errors_count_every_line_end(tmp_path, loader, newline):
    load, oracle, width = _FUZZ_LOADERS[loader]
    lines = [line.format(*_SAMPLE_ROWS[loader]) for line in _LAYOUT] + ["  bad"]
    path = tmp_path / "rows.tsv"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    message = f"expected {width} tab-separated fields at line 8 of {path}, got 1"
    want = (None, (CorpusFormatError, message), [])
    assert _outcome(load, path) == _outcome(oracle, path) == want
