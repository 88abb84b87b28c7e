import hashlib
import math
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    oracle_candidates,
    oracle_counts,
    oracle_induced_entries,
    oracle_lexicon,
    oracle_pmi,
)
from tweetsent.corpus_io import (
    NEGATIVE,
    POSITIVE,
    CorpusFormatError,
    SeedSet,
    load_seed_set,
    write_lexicon,
)
from tweetsent import lexicon_builder
from tweetsent.lexicon_builder import (
    CooccurrenceCounts,
    build_lexicon,
    count_cooccurrences,
    pmi_score,
    pseudo_label_by_emoticon,
    pseudo_label_by_hashtag,
    term_namespace,
)
from tweetsent.synthetic import make_emoticon_corpus
from tweetsent.tokenizer import tokenize
from tweetsent.wordlists import default_function_words

NO_FILTER = frozenset()

_COUNT_FIXTURE = [
    (["nice", "day"], POSITIVE),
    (["nice", "win"], POSITIVE),
    (["rain", "rain"], NEGATIVE),
    (["sad", "day"], NEGATIVE),
    (["win", "now", "go"], POSITIVE),
    (["sad", "loss", "now"], NEGATIVE),
]

# Emoticon-labeled corpus with a hand-mirrored token stream for the
# oracle: the trailing emoticon sets the label and is dropped.
_LEXICON_CORPUS = [
    ("nice day :)", ["nice", "day"]),
    ("what a win :)", ["what", "a", "win"]),
    ("sun and fun :)", ["sun", "and", "fun"]),
    ("nice win now :)", ["nice", "win", "now"]),
    ("go go go :)", ["go", "go", "go"]),
    ("fun day here :)", ["fun", "day", "here"]),
    ("such a nice sun :)", ["such", "a", "nice", "sun"]),
    ("win the cup :)", ["win", "the", "cup"]),
    ("more fun more sun :)", ["more", "fun", "more", "sun"]),
    ("day of the win :)", ["day", "of", "the", "win"]),
    ("rain again :(", ["rain", "again"]),
    ("sad loss :(", ["sad", "loss"]),
    ("what a loss :(", ["what", "a", "loss"]),
    ("rain all day :(", ["rain", "all", "day"]),
    ("so sad now :(", ["so", "sad", "now"]),
    ("loss after loss :(", ["loss", "after", "loss"]),
    ("sad rain here :(", ["sad", "rain", "here"]),
    ("the rain won :(", ["the", "rain", "won"]),
    ("such a sad day :(", ["such", "a", "sad", "day"]),
    ("no sun no fun :(", ["no", "sun", "no", "fun"]),
]


def _candidates(tokens, function_words=None, pair_window=None):
    """Occurrences of each candidate term of one message."""
    counts = count_cooccurrences(
        [(tokens, POSITIVE)], function_words, pair_window=pair_window, min_count=1
    )
    return counts.term_count


def test_candidates_three_tokens_no_filtering():
    got = _candidates(["a", "b", "c"], function_words=NO_FILTER)
    assert got == Counter(["a", "b", "c", "a b", "b c", "a---c"])


def test_candidates_function_words_block_pair_parts_only():
    got = _candidates(["a", "b", "c"])
    assert "a" in got
    assert "a b" in got
    assert not any("---" in term for term in got)


def test_candidates_drop_mentions_and_punctuation():
    assert _candidates(["@user", "hi"], function_words=NO_FILTER) == Counter(["hi"])
    assert _candidates([], function_words=NO_FILTER) == Counter()


def test_candidates_keep_emoticons_drop_pure_punctuation():
    got = _candidates([":)", "!!", "x"], function_words=NO_FILTER)
    assert got == Counter([":)", ":)---x", "x"])


def test_candidates_pair_window():
    wide = _candidates(["a", "b", "c", "d"], function_words=NO_FILTER)
    assert "a---d" in wide
    narrow = _candidates(["a", "b", "c", "d"], function_words=NO_FILTER, pair_window=1)
    assert "a---d" not in narrow
    assert "a---c" in narrow
    assert "a b---d" in narrow
    assert "a---c d" in narrow


def test_candidates_pair_example_with_default_filtering():
    got = _candidates(["nice", "the", "day"])
    assert "the" in got
    assert [t for t in got if "---" in t] == ["nice---day"]


@given(
    st.lists(
        st.sampled_from(["aa", "bb", "cc", "dd", "ee", "@u", "!!", "the", "The"]),
        max_size=7,
    ),
    st.sampled_from([None, 1, 2]),
)
def test_candidates_match_enumeration_oracle(tokens, pair_window):
    function_words = frozenset({"the"})
    got = _candidates(tokens, function_words, pair_window)
    assert got == Counter(oracle_candidates(tokens, function_words, pair_window))


@given(st.lists(st.sampled_from(["aa", "bb", "the", "on", "zz"]), max_size=6))
def test_candidates_default_filter_matches_bundled_list(tokens):
    got = _candidates(tokens)
    assert got == Counter(oracle_candidates(tokens, default_function_words()))


# Messages per range of count_cooccurrences' pass-1 record: small ranges
# put empty messages and messages without pair parts on range edges.
BATCHES = [1, 2, 3, 256]


@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(["aa", "bb", "cc", "the", "@u"]), max_size=6),
            st.sampled_from([POSITIVE, NEGATIVE]),
        ),
        max_size=6,
    ),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.sampled_from(BATCHES),
)
def test_count_min_count_keeps_frequent_terms_in_order(corpus, k, per_message, batch):
    function_words = frozenset({"the"})
    with mock.patch.object(lexicon_builder, "_BATCH", batch):
        counts = count_cooccurrences(corpus, function_words, per_message, min_count=k)
    want_terms, want_classes = oracle_counts(corpus, function_words, per_message)
    # The oracle's dict holds terms in order of first counting.
    kept = [
        term for term, by in want_terms.items() if by[POSITIVE] + by[NEGATIVE] >= k
    ]
    assert list(counts.term_count) == kept
    assert list(counts.positive_count) == kept
    for term in kept:
        assert _by_class(counts, term) == want_terms[term]
    assert counts.class_count == want_classes


def _count_items(counts):
    """Everything a count result holds, in entry order."""
    return (
        list(counts.term_count.items()),
        list(counts.positive_count.items()),
        counts.class_count,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "the"]), max_size=8),
            st.sampled_from([POSITIVE, NEGATIVE]),
        ),
        max_size=12,
    ),
    st.booleans(),
    st.sampled_from([None, 1, 2]),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(BATCHES),
)
def test_count_min_count_equals_the_full_count_cut_at_min_count(
    corpus, per_message, pair_window, k, batch
):
    # Five words repeat inside messages, so pairs can outnumber their
    # parts; the filter on stored occurrences must keep every such pair.
    function_words = frozenset({"the"})
    options = dict(per_message=per_message, pair_window=pair_window)
    full = count_cooccurrences(corpus, function_words, **options, min_count=1)
    with mock.patch.object(lexicon_builder, "_BATCH", batch):
        got = count_cooccurrences(corpus, function_words, **options, min_count=k)
        once = count_cooccurrences(
            (message for message in corpus), function_words, **options, min_count=k
        )
    kept = [term for term, n in full.term_count.items() if n >= k]
    assert _count_items(got) == (
        [(term, full.term_count[term]) for term in kept],
        [(term, full.positive_count[term]) for term in kept],
        full.class_count,
    )
    assert _count_items(once) == _count_items(got)


def test_pair_can_reach_min_count_when_its_parts_do_not():
    # Each positive row holds alpha---beta twice and alpha once.
    rows = [(str(i), "alpha zed beta beta :)") for i in range(3)]
    rows += [(str(i), "gamma zed delta :(") for i in range(3, 8)]
    lexicon = build_lexicon(rows, "emoticon", min_count=5)
    assert "pair:alpha---beta" in lexicon.entries
    assert "uni:alpha" not in lexicon.entries
    assert _float_bits(lexicon.entries) == _float_bits(
        oracle_induced_entries(rows, "emoticon", min_count=5)
    )
    streams = [(["alpha", "zed", "beta", "beta"], POSITIVE)] * 3
    streams += [(["gamma", "zed", "delta"], NEGATIVE)] * 5
    counts = count_cooccurrences(streams, min_count=5)
    assert counts.term_count["alpha---beta"] == 6
    assert counts.term_count["alpha"] == 0


def _by_class(counts, term):
    """A term's per-class counts, read off the two counters."""
    f_pos = counts.positive_count[term]
    return {POSITIVE: f_pos, NEGATIVE: counts.term_count[term] - f_pos}


def test_count_single_message():
    counts = count_cooccurrences(
        [(["good"], POSITIVE)], function_words=NO_FILTER, min_count=1
    )
    assert counts.term_count == {"good": 1}
    assert counts.positive_count == {"good": 1}
    assert counts.class_count == {POSITIVE: 1, NEGATIVE: 0}
    assert counts.total == 1
    assert counts.term_count["good"] == 1
    assert counts.term_count["absent"] == 0


def test_count_doubling():
    once = count_cooccurrences(_COUNT_FIXTURE, function_words=NO_FILTER, min_count=1)
    twice = count_cooccurrences(
        _COUNT_FIXTURE * 2, function_words=NO_FILTER, min_count=1
    )
    assert twice.total == 2 * once.total
    for term in once.term_count:
        for label, count in _by_class(once, term).items():
            assert _by_class(twice, term)[label] == 2 * count


def test_count_per_message_collapse():
    corpus = [(["x", "x"], POSITIVE)]
    plain = count_cooccurrences(corpus, function_words=NO_FILTER, min_count=1)
    assert _by_class(plain, "x")[POSITIVE] == 2
    assert plain.class_count[POSITIVE] == 3
    collapsed = count_cooccurrences(
        corpus, function_words=NO_FILTER, per_message=True, min_count=1
    )
    assert _by_class(collapsed, "x")[POSITIVE] == 1
    assert collapsed.class_count[POSITIVE] == 2


@pytest.mark.parametrize("per_message", [False, True])
def test_count_fixture_matches_oracle(per_message):
    counts = count_cooccurrences(
        _COUNT_FIXTURE, function_words=NO_FILTER, per_message=per_message, min_count=1
    )
    want_terms, want_classes = oracle_counts(
        _COUNT_FIXTURE, per_message=per_message
    )
    assert set(counts.term_count) == set(want_terms)
    for term, by_class in want_terms.items():
        for label in (POSITIVE, NEGATIVE):
            got = _by_class(counts, term)[label]
            assert got == by_class[label]
    assert counts.class_count == want_classes
    # The class totals are the per-term counts summed over terms.
    for label in (POSITIVE, NEGATIVE):
        summed = sum(
            _by_class(counts, term)[label] for term in counts.term_count
        )
        assert counts.class_count[label] == summed


def test_count_rejects_other_classes():
    expected = "unknown class 'neutral'; expected 'positive' or 'negative'"
    with pytest.raises(ValueError, match=expected):
        count_cooccurrences([(["a"], "neutral")], min_count=1)


def _counts_from(f_pos, f_neg, cc_pos, cc_neg, term="t"):
    return CooccurrenceCounts(
        term_count=Counter({term: f_pos + f_neg}),
        positive_count=Counter({term: f_pos}),
        class_count={POSITIVE: cc_pos, NEGATIVE: cc_neg},
    )


def test_pmi_balanced_term_scores_zero():
    counts = count_cooccurrences(
        [(["w"], POSITIVE), (["w"], NEGATIVE)], function_words=NO_FILTER, min_count=1
    )
    assert pmi_score(counts, "w", 0.5) == 0.0


def test_pmi_one_class_term():
    counts = count_cooccurrences(
        [(["good"], POSITIVE), (["bad"], NEGATIVE)],
        function_words=NO_FILTER,
        min_count=1,
    )
    assert pmi_score(counts, "good", 0.5) == pytest.approx(math.log2(5.0))
    assert pmi_score(counts, "bad", 0.5) == pytest.approx(-math.log2(5.0))


def test_pmi_errors():
    counts = _counts_from(1, 0, 2, 0)
    with pytest.raises(ValueError, match="both classes"):
        pmi_score(counts, "t", 0.5)
    with pytest.raises(ValueError, match="no occurrences"):
        pmi_score(_counts_from(1, 1, 2, 2), "absent", 0.5)


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.sampled_from([0.25, 0.5, 1.0]),
)
def test_pmi_matches_rational_oracle(f_pos, f_neg, extra_pos, extra_neg, alpha):
    if f_pos + f_neg == 0:
        f_pos = 1
    cc_pos, cc_neg = f_pos + extra_pos, f_neg + extra_neg
    counts = _counts_from(f_pos, f_neg, cc_pos, cc_neg)
    got = pmi_score(counts, "t", alpha)
    assert got == pytest.approx(oracle_pmi(f_pos, f_neg, cc_pos, cc_neg, alpha), abs=1e-9)


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
)
def test_pmi_antisymmetric_under_class_swap(f_pos, f_neg, extra_pos, extra_neg):
    if f_pos + f_neg == 0:
        f_neg = 2
    cc_pos, cc_neg = f_pos + extra_pos, f_neg + extra_neg
    forward = pmi_score(_counts_from(f_pos, f_neg, cc_pos, cc_neg), "t", 0.5)
    swapped = pmi_score(_counts_from(f_neg, f_pos, cc_neg, cc_pos), "t", 0.5)
    assert swapped == -forward


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=2, max_value=5),
)
def test_pmi_invariant_under_count_scaling(f_pos, f_neg, extra_pos, extra_neg, k):
    if f_pos + f_neg == 0:
        f_pos = 1
    cc_pos, cc_neg = f_pos + extra_pos, f_neg + extra_neg
    base = pmi_score(_counts_from(f_pos, f_neg, cc_pos, cc_neg), "t", 0.5)
    scaled = pmi_score(
        _counts_from(k * f_pos, k * f_neg, k * cc_pos, k * cc_neg), "t", 0.5
    )
    assert scaled == base


def test_pmi_monotonic_in_positive_count():
    previous = -math.inf
    for f_pos in range(0, 5):
        score = pmi_score(_counts_from(f_pos, 2, 8, 8), "t", 0.5)
        assert score > previous
        previous = score


def test_seed_set_canonical_form():
    seeds = SeedSet.from_words(["Good", "#BAD"], ["sad"])
    assert seeds.positive == frozenset({"#good", "#bad"})
    assert seeds.negative == frozenset({"#sad"})


def test_load_seed_set(tmp_path):
    path = tmp_path / "seeds.txt"
    path.write_text("# comment\ngood\tpositive\nSad\tnegative\n")
    seeds = load_seed_set(path)
    assert seeds.positive == frozenset({"#good"})
    assert seeds.negative == frozenset({"#sad"})


def test_load_seed_set_hash_initial_line_is_a_comment(tmp_path):
    # Seed words are written bare; a leading # would start a comment.
    path = tmp_path / "seeds.txt"
    path.write_text("#sad\tnegative\ngood\tpositive\n")
    seeds = load_seed_set(path)
    assert seeds.negative == frozenset()
    assert seeds.positive == frozenset({"#good"})


def test_load_seed_set_errors(tmp_path):
    bad_fields = tmp_path / "a.txt"
    bad_fields.write_text("good\n")
    with pytest.raises(CorpusFormatError, match="expected 2 tab-separated") as err:
        load_seed_set(bad_fields)
    assert f"at line 1 of {bad_fields}" in str(err.value)
    bad_polarity = tmp_path / "b.txt"
    bad_polarity.write_text("good\tpos\n")
    with pytest.raises(CorpusFormatError, match="got 'pos'") as err:
        load_seed_set(bad_polarity)
    assert f"at line 1 of {bad_polarity}" in str(err.value)
    latin1 = tmp_path / "c.txt"
    latin1.write_bytes("caf\u00e9\tpositive\n".encode("latin-1"))
    with pytest.raises(CorpusFormatError, match="not valid UTF-8 text in "):
        load_seed_set(latin1)
    # No message token could ever equal the hashtags "#" or "#happy day".
    for line in ("\tpositive", "happy day\tpositive", "go!\tnegative"):
        unmatchable = tmp_path / "d.txt"
        unmatchable.write_text(f"good\tpositive\n{line}\n")
        with pytest.raises(CorpusFormatError, match="is not one hashtag word") as err:
            load_seed_set(unmatchable)
        assert f"at line 2 of {unmatchable}" in str(err.value)


def test_pseudo_label_by_hashtag():
    seeds = SeedSet.from_words(["go"], ["ugh"])
    assert pseudo_label_by_hashtag(tokenize("win #GO"), seeds) == POSITIVE
    assert pseudo_label_by_hashtag(tokenize("oh no #ugh"), seeds) == NEGATIVE
    assert pseudo_label_by_hashtag(tokenize("#go #ugh"), seeds) is None
    assert pseudo_label_by_hashtag(tokenize("no tags"), seeds) is None


def test_pseudo_label_by_emoticon():
    assert pseudo_label_by_emoticon(tokenize("yay :)")) == POSITIVE
    assert pseudo_label_by_emoticon(tokenize("ugh :(")) == NEGATIVE
    assert pseudo_label_by_emoticon(tokenize("what :) :(")) is None
    assert pseudo_label_by_emoticon(tokenize("hm :p")) is None
    assert pseudo_label_by_emoticon(tokenize("nothing here")) is None


def test_namespace_by_shape():
    assert term_namespace("x") == "uni"
    assert term_namespace("x y") == "bi"
    assert term_namespace("x---y") == "pair"
    assert term_namespace("x y---z") == "pair"


def test_build_lexicon_two_messages():
    lexicon = build_lexicon(
        [("1", "good :)"), ("2", "bad :(")], "emoticon", min_count=1
    )
    assert set(lexicon.entries) == {"uni:good", "uni:bad"}
    assert lexicon.entries["uni:good"][POSITIVE] == pytest.approx(math.log2(5.0))
    assert lexicon.entries["uni:good"][NEGATIVE] == pytest.approx(-math.log2(5.0))
    assert lexicon.entries["uni:bad"][POSITIVE] == pytest.approx(-math.log2(5.0))
    assert lexicon.kind == "auto"
    assert lexicon.name == "emoticon"


def test_build_lexicon_name_override():
    lexicon = build_lexicon(
        [("1", "good :)"), ("2", "bad :(")], "emoticon", min_count=1, name="tweets"
    )
    assert lexicon.name == "tweets"


def test_build_lexicon_removes_labeling_emoticons():
    lexicon = build_lexicon(
        [("1", "good :p :)"), ("2", "bad :(")], "emoticon", min_count=1
    )
    assert not any(":)" in key or ":(" in key for key in lexicon.entries)
    assert "uni::p" in lexicon.entries


def test_build_lexicon_hashtag_labeling():
    seeds = SeedSet.from_words(["go"], ["ugh"])
    corpus = [
        ("1", "win the cup #go"),
        ("2", "lost it #ugh"),
        ("3", "mixed up #go #ugh"),
    ]
    lexicon = build_lexicon(corpus, "hashtag", seeds=seeds, min_count=1)
    assert lexicon.entries["uni:win"][POSITIVE] > 0
    assert lexicon.entries["uni:lost"][POSITIVE] < 0
    # Hashtags stay in the counted stream under hashtag labeling.
    assert "uni:#go" in lexicon.entries
    # Nothing from the conflicting message.
    assert "uni:mixed" not in lexicon.entries


def test_build_lexicon_min_count():
    corpus = [
        ("1", "good good :)"),
        ("2", "rare good :)"),
        ("3", "bad bad :("),
        ("4", "bad sad :("),
    ]
    lexicon = build_lexicon(corpus, "emoticon", min_count=2)
    assert "uni:good" in lexicon.entries
    assert "uni:rare" not in lexicon.entries
    assert "uni:sad" not in lexicon.entries


def test_build_lexicon_errors():
    with pytest.raises(ValueError, match="unknown labeling scheme 'foo'"):
        build_lexicon([("1", "x :)")], "foo")
    with pytest.raises(ValueError, match="requires a seed set"):
        build_lexicon([("1", "x #go")], "hashtag")
    with pytest.raises(ValueError, match="no labeled messages"):
        build_lexicon([("1", "no emoticon here")], "emoticon")
    with pytest.raises(ValueError, match="no negative candidates"):
        build_lexicon([("1", "good :)")], "emoticon", min_count=1)


@pytest.mark.parametrize(
    "setting,message",
    [
        ({"alpha": math.nan}, "alpha must be finite and positive, got nan"),
        ({"alpha": math.inf}, "alpha must be finite and positive, got inf"),
        ({"alpha": 0.0}, "alpha must be finite and positive, got 0.0"),
        ({"alpha": -1.0}, "alpha must be finite and positive, got -1.0"),
        ({"pair_window": 0}, "pair_window must be at least 1, got 0"),
        ({"pair_window": -1}, "pair_window must be at least 1, got -1"),
        ({"min_count": 0}, "min_count must be at least 1, got 0"),
        ({"min_count": -3}, "min_count must be at least 1, got -3"),
    ],
)
def test_build_lexicon_rejects_bad_settings(setting, message):
    corpus = [("1", "good fun :)"), ("2", "bad day :(")]
    with pytest.raises(ValueError, match=re.escape(message)):
        build_lexicon(corpus, "emoticon", **{"min_count": 1, **setting})


def test_build_lexicon_rejects_seeds_with_emoticon_labeling():
    corpus = [("1", "good fun :) #go"), ("2", "bad day :( #ugh")]
    seeds = SeedSet.from_words(["go"], ["ugh"])
    with pytest.raises(ValueError, match="emoticon labeling takes no seed set"):
        build_lexicon(corpus, "emoticon", seeds=seeds, min_count=1)


@pytest.mark.parametrize(
    "per_message,pair_window", [(False, None), (True, None), (False, 2)]
)
def test_build_lexicon_matches_oracle(per_message, pair_window):
    corpus = [(str(i), text) for i, (text, _) in enumerate(_LEXICON_CORPUS)]
    labels = [POSITIVE] * 10 + [NEGATIVE] * 10
    stream = [
        (tokens, label)
        for (_, tokens), label in zip(_LEXICON_CORPUS, labels)
    ]
    lexicon = build_lexicon(
        corpus,
        "emoticon",
        min_count=1,
        per_message=per_message,
        pair_window=pair_window,
        function_words=NO_FILTER,
    )
    want = oracle_lexicon(
        stream, min_count=1, per_message=per_message, pair_window=pair_window
    )
    assert set(lexicon.entries) == set(want)
    for key, score in want.items():
        assert lexicon.entries[key][POSITIVE] == pytest.approx(score, abs=1e-9)
        assert lexicon.entries[key][NEGATIVE] == -lexicon.entries[key][POSITIVE]


# Words, function words, mentions, pure punctuation and emoticons; the
# signals label messages under either scheme.
_INDUCTION_TOKENS = ["aa", "bb", "Cc", "the", "on", "@u", "!!", "...", ":p", "xD"]
_SIGNALS = ["", ":)", ":(", "#go", "#ugh", ":) #go", ":( #ugh", ":) :("]


def _float_bits(entries):
    return [
        (key, by[POSITIVE].hex(), by[NEGATIVE].hex()) for key, by in entries.items()
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(_INDUCTION_TOKENS), max_size=7),
            st.sampled_from(_SIGNALS),
        ),
        min_size=1,
        max_size=10,
    ),
    st.sampled_from(["emoticon", "hashtag"]),
    st.booleans(),
    st.sampled_from([None, 1, 2]),
    st.integers(min_value=1, max_value=5),
)
@example(
    [(["aa", "@u", "bb"], ":)"), (["bb", "!!", "aa"], ":(")], "emoticon", False, None, 1
)
@example(
    [(["aa", "bb", "aa"], "#go"), (["bb", "the", "bb"], "#ugh")], "hashtag", False, None, 2
)
def test_build_lexicon_matches_dict_counting_oracle(
    messages, labeling, per_message, pair_window, min_count
):
    corpus = [
        (str(i), " ".join(words + [signal])) for i, (words, signal) in enumerate(messages)
    ]
    seeds = SeedSet.from_words(["go"], ["ugh"]) if labeling == "hashtag" else None
    options = dict(
        seeds=seeds,
        min_count=min_count,
        per_message=per_message,
        pair_window=pair_window,
    )
    try:
        want = oracle_induced_entries(corpus, labeling, **options)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            build_lexicon(corpus, labeling, **options)
        return
    got = build_lexicon(corpus, labeling, **options).entries
    assert list(got) == list(want)
    assert _float_bits(got) == _float_bits(want)


# sha256 of the written lexicon induced from make_emoticon_corpus(n=300,
# seed=7) with min_count 2, and its uni/bi/pair entry counts.
INDUCED_LEXICON_SHA256 = {
    "default": (
        "008eeb9edcc2fe142f97f68cf8f114e8c49e5944faa4df4f537d617ed183b164",
        (315, 22, 312),
    ),
    "per_message": (
        "c3c5f7dcdda86426c82710821477bb39b0f42b4413f9c7745e8caf2be7e52863",
        (315, 22, 223),
    ),
    "pair_window": (
        "8e5b0c5e45ae5835bd44485a5e75ade6a04ba968c2435f94acc8eca9d2e0ab04",
        (315, 22, 68),
    ),
}


@pytest.mark.parametrize(
    "variant,options",
    [
        ("default", {}),
        ("per_message", {"per_message": True}),
        ("pair_window", {"pair_window": 2}),
    ],
)
def test_induced_lexicon_bytes_are_pinned(tmp_path, variant, options):
    rows = make_emoticon_corpus(n=300, seed=7)[0]
    lexicon = build_lexicon(rows, "emoticon", min_count=2, **options)
    path = tmp_path / "induced.tsv"
    write_lexicon(lexicon, path)
    namespaces = [key.split(":", 1)[0] for key in lexicon.entries]
    shape = tuple(namespaces.count(ns) for ns in ("uni", "bi", "pair"))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert (digest, shape) == INDUCED_LEXICON_SHA256[variant]
