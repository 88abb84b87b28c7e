import re
import warnings

import pytest
from hypothesis import given, strategies as st

from oracles import oracle_unescape_text

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
    load_term_corpus,
    write_lexicon,
    write_message_corpus,
    write_raw_corpus,
    write_term_corpus,
)


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
    assert lexicon.score("good", "positive") == 1.0
    assert lexicon.score("good", "negative") is None
    assert lexicon.score("missing", "positive") is None
    assert lexicon.namespaces() == frozenset({"uni", "pair"})


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
        ("cluster", "good\tx\n", "non-integer cluster id 'x'"),
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
