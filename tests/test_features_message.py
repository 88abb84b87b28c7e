from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import (
    oracle_apply_negation_suffix,
    oracle_char_ngram_features,
    oracle_count_features,
    oracle_lexicon_features,
    oracle_scope_masks,
    oracle_vectorize,
    oracle_word_ngram_features,
)

from tweetsent import features_message
from tweetsent.corpus_io import PAIR_SEPARATOR, LabeledMessage, Lexicon
from tweetsent.features_message import (
    DEFAULT_MESSAGE_CONFIG,
    FeatureDictionary,
    FeatureVector,
    MessageFeatureConfig,
    build_feature_dictionary,
    extract_message_features,
    format_feature_dump,
    select_columns,
    vectorize,
)
from tweetsent.lexicon_builder import build_lexicon, count_cooccurrences
from tweetsent.linear_model import LinearModel, decision_values
from tweetsent.negation import NegationAnnotation, mark_negation
from tweetsent.pipeline import TASKS, extract_message_vectors, featurize
from tweetsent.synthetic import make_message_corpus
from tweetsent.tokenizer import tokenize, tokens_from_tagged


def lex(entries, name="L", affects=("positive",), kind="manual"):
    return Lexicon(name=name, affects=affects, entries=entries, kind=kind)


def extract(text, lexicons=(), clusters=None, config=DEFAULT_MESSAGE_CONFIG):
    return extract_message_features(tokenize(text), lexicons, clusters, config)


def test_golden_positive_message():
    fv = extract("Good :)", [lex({"good": {"positive": 2.0}})])
    assert fv.entries == {
        "wng|good": 1.0,
        "wng|:)": 1.0,
        "wng|good :)": 1.0,
        "cng|goo": 1.0,
        "cng|ood": 1.0,
        "cng|good": 1.0,
        "lex|L|uni|cnt|positive": 1.0,
        "lex|L|uni|sum|positive": 2.0,
        "lex|L|uni|max|positive": 2.0,
        "lex|L|uni|last|positive": 2.0,
        "emo|positive": 1.0,
        "emo|last_positive": 1.0,
    }


def test_golden_bare_word():
    assert extract("hi").entries == {"wng|hi": 1.0}


def test_golden_empty_message():
    assert extract("").entries == {}


def test_negated_context_suffixes_ngrams():
    fv = extract("no fun .")
    assert "wng|fun_NEG" in fv.entries
    assert "wng|fun" not in fv.entries
    assert "wng|no fun_NEG" in fv.entries
    assert fv.get("neg|count") == 1.0
    # Interior wildcard over the 3-gram.
    assert "wng|no * ." in fv.entries


def test_negated_lexicon_block():
    fv = extract("not good .", [lex({"good": {"positive": 2.0}})])
    assert fv.get("lex|L|uni|sum|positive_NEG") == 2.0
    assert fv.get("lex|L|uni|cnt|positive_NEG") == 1.0
    assert fv.get("lex|L|uni|last|positive_NEG") == 2.0
    assert "lex|L|uni|sum|positive" not in fv.entries


@pytest.mark.parametrize(
    "config", [DEFAULT_MESSAGE_CONFIG, MessageFeatureConfig.unigrams_only()]
)
def test_affect_named_like_a_negated_one_is_refused(config):
    # Negated "positive" scores would be written as "positive_NEG"'s, so
    # a direct caller is refused as the pipeline's callers are, under
    # every config.
    lexicon = lex(
        {"good": {"positive": 1.0, "positive_NEG": 2.0}},
        name="lex",
        affects=("positive", "positive_NEG"),
    )
    with pytest.raises(
        ValueError,
        match="lexicon 'lex' has affects 'positive' and 'positive_NEG'",
    ):
        extract("good day , not good", [lexicon], config=config)


def test_bigram_and_pair_lexicons():
    bigram_lex = lex({"bi:good day": {"positive": 1.5}})
    fv = extract("good day", [bigram_lex])
    assert fv.get("lex|L|bi|sum|positive") == 1.5
    pair_lex = lex({"pair:good---day": {"positive": 1.0}})
    fv = extract("good x day", [pair_lex])
    assert fv.get("lex|L|pair|sum|positive") == 1.0
    # Two tokens leave no room for a gapped pair.
    assert "lex|L|pair|sum|positive" not in extract("good day", [pair_lex]).entries


def test_pair_key_is_found_at_every_separator():
    pair_lex = lex({"pair:x ------y": {"positive": 0.5}})
    splits = {"x ": "---y", "x -": "--y", "x --": "-y", "x ---": "y"}
    assert pair_lex.pair_table == {h: {t: (0.5,)} for h, t in splits.items()}
    assert pair_lex.pair_tails == {"---y", "--y", "-y", "y"}
    # No part ends in a space, so the head "x " is never probed; the other
    # three splits each match one message.
    for head, tail in (("-", "--y"), ("--", "-y"), ("---", "y")):
        tagged = (("x", "N"), (head, ","), ("z", "N"), (tail, ","))
        message = tokens_from_tagged(tagged)
        fv = extract_message_features(message, [pair_lex])
        assert fv.get("lex|L|pair|sum|positive") == 0.5


def test_pair_lexicons_sharing_a_head_count_only_their_own_pairs():
    day = lex({"pair:good---day": {"positive": 1.0}}, name="D")
    night = lex(
        {"pair:good---night": {"positive": 2.0}, "pair:bad---day": {"positive": 4.0}},
        name="N",
    )
    fv = extract("good x day night", [day, night])
    assert fv.get("lex|D|pair|cnt|positive") == 1
    assert fv.get("lex|D|pair|sum|positive") == 1.0
    assert fv.get("lex|N|pair|cnt|positive") == 1
    assert fv.get("lex|N|pair|sum|positive") == 2.0


def test_pair_last_follows_message_order_at_one_tail():
    # All three pairs end at "d": "a b---d" comes first (its head starts
    # first and is longer), then "a---d", then "b---d".  Probing heads in
    # part order (unigrams, then bigrams) would find "a b---d" last.
    pair_lex = lex({
        "pair:a b---d": {"positive": 1.0},
        "pair:b---d": {"positive": 2.0},
        "pair:a---d": {"positive": 3.0},
    })
    fv = extract("a b c d", [pair_lex])
    assert fv.get("lex|L|pair|last|positive") == 2.0
    assert fv.get("lex|L|pair|max|positive") == 3.0
    assert fv.get("lex|L|pair|cnt|positive") == 3


class _KeyRecorder(dict):
    """A dict that appends the key of every ``get`` to ``seen``."""

    def __init__(self, items, seen):
        super().__init__(items)
        self.seen = seen

    def get(self, key, default=None):
        self.seen.append(key)
        return super().get(key, default)


def test_pair_features_build_no_pair_string(monkeypatch):
    pair_lex = lex({"pair:good---day": {"positive": 1.0}})
    seen = []
    table = {
        head: _KeyRecorder(by_tail, seen)
        for head, by_tail in pair_lex.pair_table.items()
    }
    object.__setattr__(pair_lex, "pair_table", _KeyRecorder(table, seen))
    unit_scores = Lexicon.unit_scores

    def no_pair_units(self, namespace):
        assert namespace != "pair", "pair scores looked up by pair text"
        return unit_scores(self, namespace)

    monkeypatch.setattr(Lexicon, "unit_scores", no_pair_units)
    messages = [LabeledMessage("1", "good x day", "positive")]
    (fv,) = extract_message_vectors(messages, [pair_lex])
    assert fv.get("lex|L|pair|sum|positive") == 1.0
    assert "good" in seen and "day" in seen
    assert [key for key in seen if PAIR_SEPARATOR in key] == []


def test_lexicon_scopes_on_tagged_input():
    message = tokens_from_tagged((("GOOD", "A"), ("day", "N"), ("#win", "#")))
    lexicon = lex({"good": {"positive": 2.0}, "day": {"positive": -1.0},
                   "#win": {"positive": 1.0}})
    fv = extract_message_features(message, [lexicon])
    assert fv.get("lex|L|uni|sum|positive") == 2.0
    assert fv.get("lex|L|uni|pos:A|sum|positive") == 2.0
    assert fv.get("lex|L|uni|caps|sum|positive") == 2.0
    assert fv.get("lex|L|uni|hashtag|sum|positive") == 1.0
    assert fv.get("lex|L|uni|pos:N|sum|positive") == -1.0
    # No token scored above zero in this scope: cnt/max/last all drop.
    assert "lex|L|uni|pos:N|max|positive" not in fv.entries
    assert "lex|L|uni|pos:N|cnt|positive" not in fv.entries
    assert fv.get("pos|A") == 1.0
    assert fv.get("pos|N") == 1.0
    assert fv.get("caps|count") == 1.0
    assert fv.get("ht|count") == 1.0


def test_uncased_message_has_no_caps_count():
    fv = extract("\u4e2d\u6587 \u597d \u0645\u0631\u062d\u0628\u0627")
    assert "caps|count" not in fv.entries


def test_punctuation_features():
    fv = extract("what ?! stop !! now ?")
    assert fv.get("pnc|exclaim|count") == 1.0
    assert fv.get("pnc|question|count") == 1.0
    assert fv.get("pnc|mixed|count") == 1.0
    assert fv.get("pnc|last") == 1.0
    assert "pnc|last" not in extract("fine .").entries


def test_emoticon_features():
    fv = extract(":( but now :)")
    assert fv.get("emo|negative") == 1.0
    assert fv.get("emo|positive") == 1.0
    assert fv.get("emo|last_positive") == 1.0
    assert "emo|last_negative" not in fv.entries


def test_elongated_counts_words_only():
    fv = extract("soooo good !!!!")
    assert fv.get("elo|count") == 1.0


def test_cluster_features_from_map():
    clusters = {"good": 7}
    fv = extract("Good day", clusters=clusters)
    assert fv.get("cls|7") == 1.0
    assert not any(name.startswith("cls|") for name in extract("Good day").entries)


def test_unigrams_only_config():
    config = MessageFeatureConfig.unigrams_only()
    fv = extract("no fun :)", config=config)
    # Unigram names only: negation off, every other group off.
    assert fv.entries == {"wng|no": 1.0, "wng|fun": 1.0, "wng|:)": 1.0}


def test_unigrams_only_ignores_tags_lexicons_and_clusters():
    message = tokens_from_tagged(
        (("GOOD", "A"), ("not", "R"), ("day", "N"), ("#win", "#"), (":)", "E"))
    )
    lexicon = lex({"good": {"positive": 2.0}, "bi:good not": {"positive": 1.0}})
    fv = extract_message_features(
        message,
        [lexicon],
        {"good": 7, "day": 3},
        MessageFeatureConfig.unigrams_only(),
    )
    assert fv.entries == dict.fromkeys(
        ["wng|good", "wng|not", "wng|day", "wng|#win", "wng|:)"], 1.0
    )


def test_baseline_with_negation_marks_unigrams_and_counts_contexts():
    fv = extract("no fun here", config=MessageFeatureConfig(baseline=True))
    assert fv.entries == {
        "wng|no": 1.0,
        "wng|fun_NEG": 1.0,
        "wng|here_NEG": 1.0,
        "neg|count": 1.0,
    }


def test_manual_and_auto_lexicon_toggles(check_select_columns):
    manual = lex({"good": {"positive": 1.0}}, name="m", kind="manual")
    auto = lex({"good": {"positive": 1.0}}, name="a", kind="auto")
    rows = [LabeledMessage("1", "good", "positive")]

    _, _, full = featurize("message", rows, [manual, auto])

    def lexicon_names(group, kept):
        prefixes = TASKS["message"].removal(group, [manual, auto]) if group else ()
        _, _, fresh = featurize("message", rows, kept)
        dictionary = check_select_columns(
            full, lambda name: not name.startswith(prefixes), fresh
        )
        return {name for name in dictionary.names if name.startswith("lex|")}

    def block(name):
        return {f"lex|{name}|uni|{stat}|positive" for stat in ("cnt", "sum", "max", "last")}

    assert lexicon_names(None, [manual, auto]) == block("m") | block("a")
    assert lexicon_names("manual-lex", [auto]) == block("a")
    assert lexicon_names("auto-lex", [manual]) == block("m")
    assert lexicon_names("lexicons", []) == set()


@given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), max_size=6))
def test_wildcards_exactly_mirror_contiguous_ngrams(tokens):
    fv = extract(" ".join(tokens))
    expected = set()
    for i in range(len(tokens) - 2):
        a, b, c = tokens[i : i + 3]
        expected.add(f"wng|{a} * {c}")
    for i in range(len(tokens) - 3):
        a, b, c, d = tokens[i : i + 4]
        expected.add(f"wng|{a} * {c} {d}")
        expected.add(f"wng|{a} {b} * {d}")
    got = {name for name in fv.entries if name.startswith("wng|") and "*" in name}
    assert got == expected


@given(st.lists(st.sampled_from(["good", "bad", "meh", "not", ".", ","]), max_size=7))
def test_lexicon_sum_and_count_partition(tokens):
    lexicon = lex({"good": {"positive": 2.0}, "bad": {"positive": -1.0},
                   "meh": {"positive": 0.0}})
    message = tokenize(" ".join(tokens))
    fv = extract_message_features(message, [lexicon])
    scores = [
        lexicon.entries[t.surface]["positive"]
        for t in message.tokens
        if t.surface in lexicon.entries
    ]
    total = fv.get("lex|L|uni|sum|positive") + fv.get("lex|L|uni|sum|positive_NEG")
    assert total == pytest.approx(sum(scores))
    count = fv.get("lex|L|uni|cnt|positive") + fv.get("lex|L|uni|cnt|positive_NEG")
    assert count == sum(1 for s in scores if s > 0)


def test_feature_vector_drops_zero_on_insert():
    fv = FeatureVector()
    fv.set("x", 0)
    fv.set("y", 2)
    assert fv.entries == {"y": 2.0}
    assert fv.get("x") == 0.0
    assert len(fv) == 1


def test_dictionary_sorted_and_order_independent():
    a = FeatureVector(entries={"b": 1.0, "a": 2.0})
    b = FeatureVector(entries={"c": 1.0, "a": 1.0})
    forward = build_feature_dictionary([a, b])
    backward = build_feature_dictionary([b, a])
    assert forward == backward
    assert forward.names == ("a", "b", "c")
    assert forward.index == {"a": 0, "b": 1, "c": 2}
    assert forward.size == 3
    assert build_feature_dictionary([]).size == 0


def test_selected_columns_leave_out_prefixes():
    entries = {"lex|a": 1.0, "w|b": 2.0, "lex|c": 3.0, "x": 4.0, "y": 5.0}
    full = build_feature_dictionary([FeatureVector(entries)])
    row = vectorize(FeatureVector(entries), full)
    keep = np.array([not n.startswith(("lex|", "x")) for n in full.names])
    dictionary, (selected,) = select_columns(full, [row], keep)
    assert dictionary.names == ("w|b", "y")
    assert dictionary.index == {"w|b": 0, "y": 1}
    assert selected.indices.tolist() == [0, 1]
    assert selected.values.tolist() == [2.0, 5.0]


def test_vectorize_drops_unknown_names():
    dictionary = build_feature_dictionary(
        [FeatureVector(entries={"a": 1.0, "b": 1.0})]
    )
    iv = vectorize(FeatureVector(entries={"b": 3.0, "zz": 9.0}), dictionary)
    assert iv.indices.tolist() == [1]
    assert iv.values.tolist() == [3.0]


def test_format_feature_dump_sorted():
    fv = FeatureVector(entries={"b": 2.0, "a": 1.0})
    assert format_feature_dump(fv) == "a\t1\nb\t2\n"


_WORDS = ["good", "Bad", "LOL", "#win", "not", "never", "x", "y", ",", ".", "---"]
_LEX_WORDS = ["good", "bad", "lol", "#win", "not", "x", "y", ",", "---"]
_AFFECTS = ("positive", "negative", "anger")


def _lexicon_terms():
    word = st.sampled_from(_LEX_WORDS)
    bigram = st.builds(lambda a, b: f"{a} {b}", word, word)
    part = word | bigram
    return st.one_of(
        word,
        word.map(lambda w: f"uni:{w}"),
        bigram.map(lambda b: f"bi:{b}"),
        st.builds(lambda a, b: f"pair:{a}---{b}", part, part),
    )


_lexicon_entries = st.dictionaries(
    _lexicon_terms(),
    st.dictionaries(
        st.sampled_from(_AFFECTS),
        st.floats(-4, 4, allow_nan=False, allow_infinity=False),
        max_size=3,
    ),
    max_size=14,
)


# A pair key that splits at more than one "---", and a uni: term lacking
# an affect that the plain term carries.
@example(
    words=["good", "x", "---", "not", "y", "good"],
    tags=None,
    entries=(
        {
            "uni:good": {"positive": 1.5},
            "good": {"positive": 9.0, "negative": -2.0},
            "pair:x ------y": {"anger": 0.5},
        },
        {"pair:good---y good": {"positive": 1.0}, "bi:y good": {"negative": 3.0}},
    ),
    affects=(_AFFECTS, _AFFECTS[::-1]),
)
# Pairs whose head-major order differs from the order of their tokens,
# which sets the "last" statistic: a later tail end, and at one tail end
# a bigram head or tail against a unigram one.
@example(
    words=["x", "good", "y", "bad", "lol"],
    tags=None,
    entries=(
        {"pair:x---lol": {"positive": 1.0}, "pair:good---bad": {"positive": 2.0}},
        {
            "pair:x good---bad": {"positive": 3.0},
            "pair:x---bad": {"positive": 4.0},
            "pair:x---y bad": {"positive": 5.0},
        },
    ),
    affects=(_AFFECTS, _AFFECTS),
)
@settings(max_examples=300)
@given(
    words=st.lists(st.sampled_from(_WORDS), max_size=16),
    tags=st.none()
    | st.lists(st.sampled_from(["A", "N", "V"]), min_size=16, max_size=16),
    entries=st.tuples(_lexicon_entries, _lexicon_entries),
    affects=st.tuples(st.permutations(_AFFECTS), st.permutations(_AFFECTS)),
)
def test_lexicon_features_match_oracle(words, tags, entries, affects):
    if tags is None:
        message = tokenize(" ".join(words))
    else:
        message = tokens_from_tagged(tuple(zip(words, tags)))
    lexicons = [
        Lexicon(name=f"L{k}", affects=tuple(affects[k]), entries=entries[k])
        for k in range(2)
    ]
    annotation = mark_negation([t.surface for t in message.tokens])
    fv = extract_message_features(message, lexicons)
    got = FeatureVector({k: v for k, v in fv.entries.items() if k.startswith("lex|")})
    want = FeatureVector()
    surfaces = [t.surface.lower() for t in message.tokens]
    oracle_lexicon_features(want, message, surfaces, annotation, lexicons)
    assert format_feature_dump(got) == format_feature_dump(want)
    # Exact floats: a sum over the hits in another order could differ in
    # the last bits, which the dump's %g hides.
    assert got.entries == want.entries


def test_induced_pair_lexicon_features_match_oracle():
    # Induced as the benchmark's msg-induced inputs are: generated
    # messages, a quarter with "not" inserted, whose raw rows carry their
    # polarity only as a final ":)" or ":(".
    messages, _ = make_message_corpus(n=1200, seed=5)
    rng = np.random.default_rng(5)
    for k, m in enumerate(messages):
        if rng.random() < 0.25:
            words = m.text.split(" ")
            words.insert(int(rng.integers(0, len(words) - 1)), "not")
            messages[k] = replace(m, text=" ".join(words))
    marks = {"positive": " :)", "negative": " :("}
    rows = [(m.id, m.text + marks.get(m.label, "")) for m in messages[200:]]
    lexicon = build_lexicon(rows, "emoticon", name="induced")
    assert sum(term.startswith("pair:") for term in lexicon.entries) > 1000
    pair_entries = 0
    for m in messages[:200]:
        message = m.tokens
        fv = extract_message_features(message, [lexicon])
        got = {k: v for k, v in fv.entries.items() if k.startswith("lex|")}
        want = FeatureVector()
        surfaces = [t.surface.lower() for t in message.tokens]
        annotation = mark_negation(surfaces)
        oracle_lexicon_features(want, message, surfaces, annotation, [lexicon])
        assert got == want.entries
        pair_entries += sum(k.startswith("lex|induced|pair|") for k in got)
    assert pair_entries > 1000


def test_lexicon_statistics_that_come_to_zero_are_not_stored():
    lexicon = lex(
        {
            "good": {"positive": 1.5},
            "bad": {"positive": -1.5},
            "ugly": {"positive": -2},
            "nice": {"positive": 3},
            "pair:good---bad": {"positive": 1.5},
            "pair:good---x bad": {"positive": -1.5},
        }
    )

    def lex_entries(text):
        fv = extract(text, [lexicon])
        assert all(type(v) is float for v in fv.entries.values())
        return {k: v for k, v in fv.entries.items() if k.startswith("lex|")}

    # +1.5 and -1.5 sum to zero, on unigrams and on pairs.
    assert lex_entries("good y x bad") == {
        "lex|L|uni|cnt|positive": 1.0,
        "lex|L|uni|max|positive": 1.5,
        "lex|L|uni|last|positive": 1.5,
        "lex|L|pair|cnt|positive": 1.0,
        "lex|L|pair|max|positive": 1.5,
        "lex|L|pair|last|positive": 1.5,
    }
    # No score above zero: no cnt, max or last.
    assert lex_entries("bad ugly") == {"lex|L|uni|sum|positive": -3.5}
    # Integer scores are stored as floats.
    assert lex_entries("nice") == {
        "lex|L|uni|cnt|positive": 1.0,
        "lex|L|uni|sum|positive": 3.0,
        "lex|L|uni|max|positive": 3.0,
        "lex|L|uni|last|positive": 3.0,
    }


# Row-path inputs: Unicode surfaces including titlecase (U+01C5),
# uncased (CJK) and "*" (the wildcard's own spelling), negation words,
# hashtags, caps, mentions and urls (no character n-grams), elongations.
_ROW_WORDS = st.sampled_from(
    ["good", "Bad", "LOL", "#win", "not", "never", "don't", "*", ".", ",",
     "\u01c5x", "\u4e2d\u6587", "_", "sooo", "@bob", "http://x.y", ":)", "a"]
) | st.text(min_size=1, max_size=4)
_ROW_CONFIGS = st.builds(
    MessageFeatureConfig, negation=st.booleans(), baseline=st.booleans()
)
# (NGRAM_MAX, WILDCARD_SIZES, CHAR_NGRAM_SIZES), patched into
# features_message.
_PAPER_SIZES = (
    features_message.NGRAM_MAX,
    features_message.WILDCARD_SIZES,
    features_message.CHAR_NGRAM_SIZES,
)
_ROW_SIZES = st.tuples(
    st.integers(0, 5),
    st.lists(st.integers(1, 6), max_size=3).map(tuple),
    st.lists(st.integers(1, 6), max_size=4).map(tuple),
)
_ROW_SPANS = st.lists(
    st.tuples(st.integers(-2, 10), st.integers(-2, 10)), max_size=3
).map(tuple)


def _row_message(words, tags):
    if tags is None:
        return tokenize(" ".join(words))
    return tokens_from_tagged(tuple(zip(words, tags)))


@settings(max_examples=300)
@example(
    words=["not", "good", "at", "all"],
    tags=None,
    spans=None,
    config=DEFAULT_MESSAGE_CONFIG,
    sizes=_PAPER_SIZES,
)
@example(
    words=[], tags=None, spans=None, config=DEFAULT_MESSAGE_CONFIG, sizes=_PAPER_SIZES
)
@example(
    words=["a", "*", "b", "c", "d"],
    tags=["N", "N", "V", "A", "N"],
    spans=((-1, 0), (4, 9), (2, 1)),
    config=DEFAULT_MESSAGE_CONFIG,
    sizes=_PAPER_SIZES,
)
@given(
    words=st.lists(_ROW_WORDS, max_size=8),
    tags=st.none() | st.lists(st.sampled_from(["A", "N", "V"]), min_size=8, max_size=8),
    spans=st.none() | _ROW_SPANS,
    config=st.just(DEFAULT_MESSAGE_CONFIG) | _ROW_CONFIGS,
    sizes=st.just(_PAPER_SIZES) | _ROW_SIZES,
)
def test_row_features_match_per_feature_loops(words, tags, spans, config, sizes):
    ngram_max, wildcard_sizes, char_ngram_sizes = sizes
    with mock.patch.multiple(
        features_message,
        NGRAM_MAX=ngram_max,
        WILDCARD_SIZES=wildcard_sizes,
        CHAR_NGRAM_SIZES=char_ngram_sizes,
    ):
        _check_row_features(words, tags, spans, config)


def _check_row_features(words, tags, spans, config):
    message = _row_message(words, tags)
    if spans is None:
        annotation = mark_negation([t.surface for t in message.tokens])
    else:
        annotation = NegationAnnotation(spans=spans)
    assert features_message._scope_masks(message, annotation) == (
        oracle_scope_masks(message, annotation)
    )
    lexicons = [
        Lexicon(
            name="L",
            affects=("positive", "negative"),
            entries={"good": {"positive": 1.0}, "uni:bad": {"negative": 2.0},
                     "bi:good at": {"positive": 0.5}},
        )
    ]
    # Drawn spans stand in for the ones negation marking would find.
    mark = mark_negation if spans is None else lambda surfaces: annotation
    with mock.patch.object(features_message, "mark_negation", mark):
        got = extract_message_features(message, lexicons, config=config)
        with mock.patch.multiple(
            features_message,
            _word_ngram_features=oracle_word_ngram_features,
            _char_ngram_features=oracle_char_ngram_features,
            _scope_masks=oracle_scope_masks,
            apply_negation_suffix=oracle_apply_negation_suffix,
        ):
            want = extract_message_features(message, lexicons, config=config)
    # Same names, values and insertion order.
    assert list(got.entries.items()) == list(want.entries.items())


_UNMARKED = replace(DEFAULT_MESSAGE_CONFIG, negation=False)
# Hashtags, all-caps and elongated words, emoticons (":" closes a
# context too) and a mention; negation words, each of which opens no
# context when clause punctuation follows it or it comes last.
_UNNEGATED_WORDS = [
    "good", "Bad", "LOL", "GREAT", "#win", "#sooogood", "soooo", "day",
    ":)", ":(", ":P", "@bob", "x",
]
_NEGATORS = ["not", "Never", "NO", "cannot", "dont"]
_CLOSERS = [",", ".", "!", "?", ";", ":", "?!", "..."]
_NEGATOR_LEXICONS = [
    lex({"good": {"positive": 1.0}, "uni:not": {"positive": -0.5}}, name="U"),
    lex({"bi:good day": {"positive": 1.5}, "bi:not ,": {"positive": -1.0}}, name="B"),
    lex(
        {"pair:good---day": {"positive": 0.5}, "pair:not---x": {"positive": -2.0},
         "pair:lol---never": {"positive": 1.0}},
        name="P",
        kind="auto",
    ),
]
_NEGATOR_CLUSTERS = {"good": 1, "bad": 2, "not": 3, "#win": 4, ":)": 5, "never": 6}


@settings(max_examples=300)
@example(
    pieces=[("not", ","), ("good",), ("day",), ("Never", ".")], last="no", tags=None
)
@example(pieces=[("lol",), ("not", ":)"), ("x",)], last=None, tags=["N"] * 21)
@given(
    pieces=st.lists(
        st.tuples(st.sampled_from(_UNNEGATED_WORDS))
        | st.tuples(st.sampled_from(_NEGATORS), st.sampled_from(_CLOSERS)),
        max_size=10,
    ),
    last=st.none() | st.sampled_from(_NEGATORS),
    tags=st.none()
    | st.lists(st.sampled_from(["A", "N", "V", "E", ","]), min_size=21, max_size=21),
)
def test_a_message_with_no_negated_context_ignores_negation_marking(
    pieces, last, tags
):
    """The ablation's ``negation`` group removes nothing from such a
    message: marking on and off extract the same features."""
    words = [w for piece in pieces for w in piece]
    message = _row_message([*words, *([last] if last else [])], tags)
    assume(not mark_negation([t.surface for t in message.tokens]).spans)
    lexicons, clusters = _NEGATOR_LEXICONS, _NEGATOR_CLUSTERS
    marked = extract_message_features(message, lexicons, clusters)
    unmarked = extract_message_features(message, lexicons, clusters, _UNMARKED)
    assert list(marked.entries.items()) == list(unmarked.entries.items())


# Lowercase words that are not function words, punctuation or mentions.
_PAIR_WORDS = ["good", "day", "fun", "rain", "movie", "great"]


@settings(max_examples=300)
@example(words=["good", "day"])
@example(words=["good", "day", "fun", "good", "day", "good"])
@given(words=st.lists(st.sampled_from(_PAIR_WORDS), max_size=6))
def test_induction_and_extraction_agree_on_what_a_pair_is(words):
    """Each pair term counted by induction scores as often in a lexicon
    holding it alone, and parts side by side make no pair for either."""
    message = tokenize(" ".join(words))
    counts = count_cooccurrences(
        [(words, "positive")], frozenset(), min_count=1
    ).term_count

    def scored(head, tail):
        pair = lex({f"pair:{head}{PAIR_SEPARATOR}{tail}": {"positive": 1.0}})
        fv = extract_message_features(message, [pair], config=_UNMARKED)
        return fv.get("lex|L|pair|cnt|positive")

    parts = {*words, *map(" ".join, zip(words, words[1:]))}
    for head in parts:
        for tail in parts:
            term = f"{head}{PAIR_SEPARATOR}{tail}"
            assert scored(head, tail) == counts.get(term, 0)
    if len(set(words)) == len(words):
        # Each part occurs once, so parts side by side meet nowhere else.
        for i in range(1, len(words)):
            for head in {words[i - 1], " ".join(words[max(i - 2, 0) : i])}:
                for tail in {words[i], " ".join(words[i : i + 2])}:
                    assert f"{head}{PAIR_SEPARATOR}{tail}" not in counts
                    assert scored(head, tail) == 0


_COUNT_PREFIXES = ("pos|", "caps|", "ht|", "pnc|", "emo|", "elo|")
# Punctuation runs, emoticons with and without a polarity, hashtags,
# elongated words and hashtags, all-caps words, and non-punctuation
# tokens that hold "?" (a url) or "!" (a word, in tagged input only).
_COUNT_WORDS = [
    "!", "?", "?!", "!!!?", ".", ":)", ":(", ":P", "#win", "#sooogood",
    "soooo", "GREAT", "LOL", "good", "not", "http://t.co/?a", "@bob", "wow!",
]


@settings(max_examples=300)
@example(words=[], tags=None)
@example(words=["?!"], tags=None)
@example(words=[":)", "good", ":("], tags=None)
@example(words=[":(", "good", ":)"], tags=None)
@example(words=["good", ":P"], tags=None)
@given(
    words=st.lists(st.sampled_from(_COUNT_WORDS), max_size=10),
    tags=st.none()
    | st.lists(st.sampled_from(["A", "N", "V", "E", ","]), min_size=10, max_size=10),
)
def test_count_features_match_one_walk_per_group(words, tags):
    message = _row_message(words, tags)
    lexicons = [lex({"good": {"positive": 1.0}, "#win": {"positive": 2.0}})]
    got = extract_message_features(message, lexicons)
    want = FeatureVector()
    oracle_count_features(want, message)
    # Same names, values and insertion order, across the lexicon block.
    counts = [
        item for item in got.entries.items() if item[0].startswith(_COUNT_PREFIXES)
    ]
    assert counts == list(want.entries.items())


_NAMES = [f"f{k}" for k in range(12)]


def test_feature_dictionary_indexes_its_names():
    names = ("b", "a", "c")
    dictionary, unread = FeatureDictionary(names), FeatureDictionary(names)
    assert [f.name for f in fields(FeatureDictionary)] == ["names"]
    assert "index" not in vars(dictionary)
    assert dictionary.index == {"b": 0, "a": 1, "c": 2}
    assert dictionary.index is dictionary.index
    assert "index" in vars(dictionary) and "index" not in vars(unread)
    # Equality, hashing and repr see the names alone, map built or not.
    assert unread == dictionary and hash(unread) == hash(dictionary)
    assert repr(unread) == repr(dictionary) == f"FeatureDictionary(names={names!r})"
    assert [dictionary.names[i] for i in dictionary.index.values()] == list(names)
    stale = FeatureDictionary(names)
    object.__setattr__(stale, "index", {})
    assert stale == dictionary
    assert FeatureDictionary(("b", "a")) != dictionary
    with pytest.raises(TypeError):
        FeatureDictionary(names, {"b": 0, "a": 1, "c": 2})


@settings(max_examples=300)
@example(entries={}, known=["f1"], seed=0)
@example(entries={"f3": 1.0, "f0": 2.0}, known=[], seed=0)
@example(entries={"f3": 1.0, "f0": -0.0}, known=["f5", "f6"], seed=0)
@given(
    entries=st.dictionaries(
        st.sampled_from(_NAMES),
        st.floats(-1e6, 1e6) | st.integers(-3, 3),
        max_size=12,
    ),
    known=st.lists(st.sampled_from(_NAMES), unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_vectorize_matches_tuple_sort(entries, known, seed):
    names = tuple(sorted(known))
    dictionary = FeatureDictionary(names)
    vector = FeatureVector(dict(entries))
    got = vectorize(vector, dictionary)
    want = oracle_vectorize(vector, dictionary)
    for a, b in ((got.indices, want.indices), (got.values, want.values)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    weights = np.random.default_rng(seed).normal(size=(3, len(names) + 1))
    model = LinearModel(("pos", "neg", "neu"), weights, dictionary, 1.0, 0.1)
    scores = decision_values(model, got)
    assert scores.tobytes() == decision_values(model, want).tobytes()
