from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import oracle_term_lookup
from tweetsent import features_term
from tweetsent.corpus_io import Lexicon, TermInstance
from tweetsent.features_message import FeatureVector
from tweetsent.features_term import (
    build_split_vocabulary,
    extract_term_features,
    term_context,
)
from tweetsent.pipeline import TASKS
from tweetsent.tokenizer import normalize, tokenize


def lex(entries, name="L", affects=("positive",)):
    return Lexicon(name=name, affects=affects, entries=entries, kind="manual")


GOOD_LEX = lex({"good": {"positive": 2.0}})


def extract(text, start, end, lexicons=()):
    inst = TermInstance(id="t", text=text, label="positive", start=start, end=end)
    return extract_term_features(inst, lexicons, build_split_vocabulary(lexicons))


def test_flipped_target_lexicon_golden():
    fv = extract("not good at all", 1, 1, [GOOD_LEX])
    assert fv.get("tgt|neg") == 1.0
    assert fv.get("tgt|lex|L|positive|sum") == -2.0
    assert fv.get("tgt|lex|L|positive|max") == -2.0
    assert fv.get("tgt|lex|L|positive|last") == -2.0
    # Nothing scores above zero after the flip.
    assert "tgt|lex|L|positive|cnt" not in fv.entries
    assert fv.get("tgt|pos|middle") == 1.0
    assert fv.get("tgt|wng|good") == 1.0
    assert fv.get("tgt|full|good") == 1.0
    assert fv.get("tgt|pre|go") == 1.0
    assert fv.get("tgt|suf|od") == 1.0
    assert fv.get("tgt|len|words") == 1.0
    assert fv.get("tgt|len|avgchars") == 4.0
    assert fv.get("ctx|wng|not") == 1.0
    assert fv.get("ctx|wng|at all") == 1.0


def test_unflipped_target_lexicon():
    fv = extract("very good day", 1, 1, [GOOD_LEX])
    assert "tgt|neg" not in fv.entries
    assert fv.get("tgt|lex|L|positive|sum") == 2.0
    assert fv.get("tgt|lex|L|positive|cnt") == 1.0


def test_negation_inside_target_flips_after_it():
    fv = extract("it was not good here", 1, 3, [GOOD_LEX])
    assert fv.get("tgt|neg") == 1.0
    assert fv.get("tgt|lex|L|positive|sum") == -2.0


def test_context_lexicon_never_flips():
    lexicon = lex({"good": {"positive": 2.0}, "day": {"positive": 1.5}})
    fv = extract("not good day", 1, 1, [lexicon])
    assert fv.get("tgt|lex|L|positive|sum") == -2.0
    assert fv.get("ctx|lex|L|positive|sum") == 1.5
    assert fv.get("ctx|lex|L|positive|cnt") == 1.0


def test_last_skips_zero_scores():
    lexicon = lex({"good": {"positive": 2.0}, "zero": {"positive": 0.0},
                   "bad": {"positive": -3.0}})
    fv = extract("good zero", 0, 1, [lexicon])
    assert fv.get("tgt|lex|L|positive|last") == 2.0
    fv = extract("good bad", 0, 1, [lexicon])
    assert fv.get("tgt|lex|L|positive|last") == -3.0
    assert fv.get("tgt|lex|L|positive|max") == 2.0
    assert fv.get("tgt|lex|L|positive|sum") == -1.0
    assert fv.get("tgt|lex|L|positive|cnt") == 1.0


def test_stopword_composition():
    fv = extract("THE OF win now", 0, 1)
    assert fv.get("tgt|stop|only") == 1.0
    assert fv.get("tgt|stop|n2") == 1.0
    assert fv.get("tgt|caps|all") == 1.0
    assert fv.get("tgt|pos|begin") == 1.0
    assert "tgt|pos|middle" not in fv.entries
    # A non-stopword in the span clears the group.
    assert "tgt|stop|only" not in extract("the win", 0, 1).entries


def test_position_flags_whole_message_span():
    fv = extract("good", 0, 0)
    assert fv.get("tgt|pos|begin") == 1.0
    assert fv.get("tgt|pos|end") == 1.0
    assert "tgt|pos|middle" not in fv.entries


@given(st.integers(min_value=1, max_value=6), st.data())
def test_position_flags_follow_span_edges(n, data):
    text = " ".join(f"w{i}" for i in range(n))
    start = data.draw(st.integers(min_value=0, max_value=n - 1))
    end = data.draw(st.integers(min_value=start, max_value=n - 1))
    fv = extract(text, start, end)
    assert ("tgt|pos|begin" in fv.entries) == (start == 0)
    assert ("tgt|pos|end" in fv.entries) == (end == n - 1)
    middle = start != 0 and end != n - 1
    assert ("tgt|pos|middle" in fv.entries) == middle
    assert fv.get("tgt|len|words") == end - start + 1


def test_context_window_limit():
    fv = extract("aa bb cc dd ee ff gg", 6, 6)
    assert "ctx|wng|aa" not in fv.entries
    assert "ctx|wng|bb" not in fv.entries
    assert fv.get("ctx|wng|cc") == 1.0
    assert fv.get("ctx|wng|ff") == 1.0


def test_hashtag_target_is_split():
    fv = extract("i like #goodday here", 2, 2, [GOOD_LEX])
    assert fv.get("tgt|wng|good") == 1.0
    assert fv.get("tgt|wng|day") == 1.0
    assert fv.get("tgt|wng|good day") == 1.0
    assert fv.get("tgt|full|good day") == 1.0
    assert fv.get("tgt|lead1|good") == 1.0
    assert fv.get("tgt|end1|day") == 1.0
    assert fv.get("tgt|len|words") == 2.0
    assert fv.get("tgt|lex|L|positive|sum") == 2.0


def test_split_vocabulary_from_lexicons():
    lexicon = lex({"uni:nice": {"positive": 1.0}, "bi:a b": {"positive": 1.0},
                   "pair:x---y": {"positive": 1.0}, "GOOD": {"positive": 1.0}})
    vocab = build_split_vocabulary([lexicon])
    assert "nice" in vocab
    assert "good" in vocab
    assert "a b" not in vocab
    assert "x---y" not in vocab
    # Bundled splitting words stay available.
    assert "day" in vocab


def test_surface_shape_features():
    fv = extract("that was soooo wonderful :) !!", 2, 5)
    assert fv.get("tgt|elo") == 1.0
    assert fv.get("tgt|emo|count") == 1.0
    assert fv.get("tgt|emo|positive") == 1.0
    assert fv.get("tgt|pnc|!!") == 1.0
    assert fv.get("tgt|len|long") == 1.0


def test_initial_caps_pattern():
    fv = extract("saw Good Day there", 1, 2)
    assert fv.get("tgt|caps|init_all") == 1.0
    assert "tgt|caps|all" not in fv.entries


def test_mention_and_url_presence():
    fv = extract("@bob posted http://x.com today", 0, 2)
    assert fv.get("tgt|has_user") == 1.0
    assert fv.get("tgt|has_url") == 1.0
    assert "tgt|has_user" not in extract("plain words here", 0, 1).entries


def test_ngram_edges():
    fv = extract("one two three four", 0, 2)
    assert fv.get("tgt|lead2|one two") == 1.0
    assert fv.get("tgt|end2|two three") == 1.0
    assert fv.get("tgt|wng|one two") == 1.0
    assert "tgt|wng|three four" not in fv.entries


def test_target_and_context_groups(check_select_columns):
    full = [extract("not good at all", 1, 1, [GOOD_LEX])]
    for group, kept in (("target", "ctx|"), ("context", "tgt|")):
        fresh = [
            FeatureVector({n: x for n, x in v.entries.items() if n.startswith(kept)})
            for v in full
        ]
        prefixes = TASKS["term"].removal(group, [GOOD_LEX])
        dictionary = check_select_columns(
            full, lambda name: not name.startswith(prefixes), fresh
        )
        assert dictionary.names
        assert all(name.startswith(kept) for name in dictionary.names)


def test_term_context_window_and_edges():
    text = "aa bb cc dd ee ff gg hh ii jj kk"
    inst = TermInstance(id="t", text=text, label="neutral", start=5, end=6)
    ctx = term_context(inst)
    assert [t.surface for t in ctx.target] == ["ff", "gg"]
    assert [t.surface for t in ctx.left] == ["bb", "cc", "dd", "ee"]
    assert [t.surface for t in ctx.right] == ["hh", "ii", "jj", "kk"]
    assert not ctx.at_begin and not ctx.at_end


@pytest.mark.parametrize("start,end", [(0, 2), (-1, 0), (1, 0)])
def test_term_instance_span_out_of_range(start, end):
    with pytest.raises(
        ValueError,
        match=rf"^span \[{start}, {end}\] of instance 't' out of range for 2 tokens$",
    ):
        TermInstance(id="t", text="aa bb", label="neutral", start=start, end=end)


def test_term_instance_carries_its_tokens():
    inst = TermInstance(id="t", text="@bob is GREAT", label="positive", start=2, end=2)
    assert inst.tokens == tokenize(normalize(inst.text))
    assert [t.surface for t in inst.tokens.tokens] == ["@someuser", "is", "GREAT"]


_TERM_WORDS = ["good", "bad", "meh", "not", "day", "#goodday", "@u", ":)", "Fine"]
_TERM_KEYS = ["good", "uni:good", "bad", "uni:bad", "uni:meh", "fine", "uni:day",
              "bi:good day", "not", "uni:not", ":)"]
_AFFECTS = ("positive", "negative", "anger")


def _oracle_lexicon_features(fv, prefix, lexicon, words, flip_pos=None):
    """Reference for ``features_term._lexicon_features``: statistics of
    per-word oracle lookups, with scores after ``flip_pos`` negated."""
    for affect in lexicon.affects:
        scores, matched = oracle_term_lookup(lexicon, words, affect)
        if flip_pos is not None:
            scores = [-s if i > flip_pos else s for i, s in enumerate(scores)]
        hit = [s for s, m in zip(scores, matched) if m]
        if not hit:
            continue
        fv.set(f"{prefix}|{affect}|cnt", sum(1 for s in hit if s > 0))
        fv.set(f"{prefix}|{affect}|sum", sum(hit))
        fv.set(f"{prefix}|{affect}|max", max(hit))
        last = 0.0
        for s in hit:
            if s != 0:
                last = s
        fv.set(f"{prefix}|{affect}|last", last)


@st.composite
def term_lexicons(draw):
    affects = tuple(draw(st.permutations(_AFFECTS))[: draw(st.integers(1, 3))])
    keys = draw(st.lists(st.sampled_from(_TERM_KEYS), unique=True, max_size=8))
    entries = {
        key: draw(
            st.dictionaries(
                st.sampled_from(affects),
                st.sampled_from([-2.0, -0.5, 0.0, 1.0, 3.25]),
                max_size=len(affects),
            )
        )
        for key in keys
    }
    return lex(entries, name=draw(st.sampled_from(["A", "B"])), affects=affects)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(term_lexicons(), max_size=2),
    st.lists(st.sampled_from(_TERM_WORDS), min_size=1, max_size=9),
    st.data(),
)
def test_term_lexicon_features_match_score_route(lexicons, words, data):
    text = " ".join(words)
    n = len(tokenize(normalize(text)).tokens)
    start = data.draw(st.integers(0, n - 1))
    end = data.draw(st.integers(start, n - 1))
    got = extract(text, start, end, lexicons)
    with mock.patch.object(
        features_term, "_lexicon_features", _oracle_lexicon_features
    ):
        want = extract(text, start, end, lexicons)
    assert list(got.entries.items()) == list(want.entries.items())
