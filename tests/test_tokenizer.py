import itertools
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    oracle_classify_surface,
    oracle_emoticon_polarity,
    oracle_is_emoticon,
    oracle_make_token,
    oracle_normalize,
    oracle_tokenize,
)

from tweetsent.tokenizer import (
    URL_PLACEHOLDER,
    USER_PLACEHOLDER,
    _make_token,
    emoticon_polarity,
    is_emoticon,
    normalize,
    split_hashtag,
    tokenize,
    tokens_from_tagged,
)
from tweetsent.wordlists import default_hashtag_words

# Covers every token kind plus whitespace; used by the property tests.
_TEXT = st.text(
    alphabet="abcdefgzABCDEFGZ0189 \t!?.,:;()[]{}@#'-_/\\<>=8*%&+~\"|",
    max_size=60,
)


def surfaces(text):
    return [t.surface for t in tokenize(text).tokens]


def test_golden_mixed_message():
    message = tokenize("I LOVE this!!! :)")
    assert [t.surface for t in message.tokens] == ["I", "LOVE", "this", "!!!", ":)"]
    kinds = [t.kind for t in message.tokens]
    assert kinds == ["word", "word", "word", "punctuation", "emoticon"]
    caps = [t.all_caps for t in message.tokens]
    assert caps == [False, True, False, False, False]


def test_uncased_scripts_are_not_all_caps():
    message = tokenize("\u4e2d\u6587 \u0391\u0392 ok")
    assert [t.all_caps for t in message.tokens] == [False, True, False]


def test_elongated_flags():
    message = tokenize("soooo gooood")
    assert all(t.elongated for t in message.tokens)
    assert not any(t.elongated for t in tokenize("so good").tokens)


def test_empty_text():
    assert tokenize("").tokens == ()


def test_token_sequences_are_frozen_tuples_of_slotted_tokens():
    message = tokenize("I LOVE this!!! :)")
    tagged = tokens_from_tagged((("Good", "A"), ("day", "N")))
    assert type(message.tokens) is tuple and type(tagged.tokens) is tuple
    with pytest.raises(FrozenInstanceError):
        message.tokens = ()
    # Without a per-token __dict__ a token takes about a quarter less memory.
    assert not hasattr(message.tokens[0], "__dict__")


def test_initial_cap_flag():
    tokens = tokenize("Good GOOD gOOD G good").tokens
    assert [t.initial_cap for t in tokens] == [True, False, False, False, False]


def test_number_and_word_kinds():
    message = tokenize("win 1,200 by 3.5 at 12:30 on 2day")
    by_surface = {t.surface: t.kind for t in message.tokens}
    assert by_surface["1,200"] == "number"
    assert by_surface["3.5"] == "number"
    assert by_surface["12:30"] == "number"
    assert by_surface["2day"] == "word"


def test_hashtag_and_mention_kept_whole():
    message = tokenize("@someuser see #BestDayEver")
    assert [t.kind for t in message.tokens] == ["mention", "word", "hashtag"]


def test_nt_contraction_split():
    assert surfaces("don't stop") == ["do", "n't", "stop"]
    assert surfaces("DON'T") == ["DO", "N'T"]
    assert surfaces("can't") == ["ca", "n't"]
    # No stem means no split.
    assert surfaces("n't") == ["n't"]


def test_normalize_golden():
    assert normalize("see https://t.co/abc now") == f"see {URL_PLACEHOLDER} now"
    assert normalize("@alice hi @bob") == f"{USER_PLACEHOLDER} hi {USER_PLACEHOLDER}"
    assert normalize("no urls here") == "no urls here"
    assert normalize("mail me a@b.com") == "mail me a@b.com"
    assert normalize("www.example.com rocks") == f"{URL_PLACEHOLDER} rocks"


@given(_TEXT)
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


@given(_TEXT)
def test_tokens_partition_non_whitespace(text):
    joined = "".join(surfaces(normalize(text)))
    assert joined == "".join(normalize(text).split())


@given(_TEXT)
def test_tokenize_stable_under_rejoin(text):
    first = surfaces(normalize(text))
    assert surfaces(" ".join(first)) == first


def test_emoticon_polarity_golden():
    assert emoticon_polarity(":)") == "positive"
    assert emoticon_polarity(":-(") == "negative"
    assert emoticon_polarity("hello") is None
    assert emoticon_polarity(";]") == "positive"
    assert emoticon_polarity(":D") == "positive"
    assert emoticon_polarity("(:") == "positive"
    assert emoticon_polarity(")-:") == "negative"
    assert emoticon_polarity(":/") == "negative"
    # Mouths without a curl direction carry no polarity.
    assert emoticon_polarity(":p") is None
    assert emoticon_polarity(":@") is None


def test_is_emoticon():
    assert is_emoticon(":)")
    assert is_emoticon("8)")
    assert not is_emoticon("!!")
    assert not is_emoticon("word")
    # The whole surface: a trailing line break is not part of an emoticon.
    assert not is_emoticon(":)\n")


@given(st.text(alphabet=":;=8<>-o*')](}{[dDpP/\\|@", min_size=1, max_size=4))
def test_emoticon_polarity_is_a_function(surface):
    # One surface, at most one polarity; never both.
    assert emoticon_polarity(surface) in ("positive", "negative", None)


def test_split_hashtag_golden():
    wordlist = {"biggest", "day", "this", "year"}
    assert split_hashtag("#biggestdaythisyear", wordlist) == [
        "biggest",
        "day",
        "this",
        "year",
    ]
    assert split_hashtag("#xyzq", set()) == ["xyzq"]
    assert split_hashtag("#good", {"good"}) == ["good"]


def test_split_hashtag_bundled_wordlist():
    assert split_hashtag("#biggestdaythisyear", default_hashtag_words()) == [
        "biggest",
        "day",
        "this",
        "year",
    ]


def test_split_hashtag_greedy_longest_and_residue():
    # "goods" beats "good" at the same position; "xq" is residue.
    assert split_hashtag("#goodsxqday", {"good", "goods", "day"}) == [
        "goods",
        "xq",
        "day",
    ]


def test_split_hashtag_preserves_case():
    assert split_hashtag("#GoodDay", {"good", "day"}) == ["Good", "Day"]


def test_split_hashtag_keeps_offsets_when_lowercasing_grows_a_character():
    # "\u0130".lower() is two characters; it must not shift later matches.
    words = {"i", "love", "you"}
    assert split_hashtag("#\u0130loveyou", words) == ["\u0130", "love", "you"]


def _longest_prefix_split(body, wordlist):
    """Greedy split that tries every word at every position; a character
    whose lowercase form is longer than one character matches only itself."""
    lowered = "".join(c if len(c.lower()) > 1 else c.lower() for c in body)
    parts, residue, i = [], "", 0
    while i < len(body):
        n = max((len(w) for w in wordlist if lowered.startswith(w, i)), default=0)
        if n:
            parts += [residue, body[i : i + n]] if residue else [body[i : i + n]]
            residue, i = "", i + n
        else:
            residue, i = residue + body[i], i + 1
    return parts + [residue] if residue else parts


@given(
    st.text(alphabet="abcdI\u0130", min_size=1, max_size=12),
    st.sets(st.text(alphabet="abcdi\u0130", min_size=1, max_size=3), max_size=8),
)
def test_split_hashtag_concatenation(body, wordlist):
    parts = split_hashtag("#" + body, wordlist)
    assert "".join(parts) == body
    assert parts == _longest_prefix_split(body, wordlist)


def test_tokens_from_tagged():
    message = tokens_from_tagged((("Good", "A"), ("day", "N"), ("!!!", ",")))
    assert [t.pos_tag for t in message.tokens] == ["A", "N", ","]
    assert [t.kind for t in message.tokens] == ["word", "word", "punctuation"]
    assert message.tokens[0].initial_cap


# Text that reaches every branch of the token flags and the n't split:
# titlecase letters (U+01C5), uncased letters (CJK), lowercase symbols that
# are not alphanumeric (U+24D0, U+0345), underscore-only words,
# apostrophes, elongations, mixed case, and arbitrary Unicode.
_PIECES = st.sampled_from(
    ["\u01c5", "\u01c8a", "\u4e2d\u6587", "_", "__", "'", "n't", "N'T", "can't",
     "isn'tt", "aaa", "LOOOL", "Sooo", "\u24d0", "\u24b6", "\u0345", "\u00df",
     "\u0130", "Ab", "aB", "AB", "ab", "x1", "42", "-", " ", "#", "@", ":)",
     "http://x.y", "!!!", "\u00aa"]
)
_UNICODE_TEXT = st.lists(_PIECES | st.text(max_size=3), max_size=12).map("".join)
_KINDS = st.sampled_from(
    ["url", "emoticon", "mention", "hashtag", "number", "word", "punctuation"]
)


@settings(max_examples=400)
@example("\u01c5a DOn't can't__ \u4e2d\u6587 Heyyy \u24d0 x\u0345")
@given(_UNICODE_TEXT)
def test_tokenize_matches_per_character_flags(text):
    assert tokenize(text).tokens == oracle_tokenize(text).tokens


@settings(max_examples=400)
@example("\u24d0", "word")
@example("\u24d0\u24d1\u24d1\u24d1", "word")
@example("a\u01c5", "word")
@example("_", "word")
@given(_PIECES | st.text(max_size=6), _KINDS)
def test_make_token_matches_per_character_flags(surface, kind):
    assert _make_token(surface, kind) == oracle_make_token(surface, kind)


def _assert_first_rules(text):
    """The tokenizer reads ``text`` as its rules did when first written."""
    assert is_emoticon(text) == oracle_is_emoticon(text)
    assert emoticon_polarity(text) == oracle_emoticon_polarity(text)
    assert normalize(text) == oracle_normalize(text)
    pairs = [(t.surface, t.kind) for t in tokenize(text).tokens]
    assert pairs == [(t.surface, t.kind) for t in oracle_tokenize(text).tokens]
    tagged = tokens_from_tagged(((text, "N"),)).tokens[0].kind
    assert tagged == oracle_make_token(text, oracle_classify_surface(text)).kind


# Emoticon characters, a letter, punctuation, a space, and characters that
# are word characters without being alphanumeric (_), are neither (U+20AC)
# or are digits without being decimal (U+00B2).
_RULE_ALPHABET = "<>:;=8-o*')](\\[dDpP/}{@|x! _\u20ac\u00b2"


def test_every_short_string_follows_the_first_rules():
    for n in (1, 2, 3):
        for chars in itertools.product(_RULE_ALPHABET, repeat=n):
            _assert_first_rules("".join(chars))


_RULE_PIECES = st.sampled_from(
    [":)", "(-:", ">:[", "]:<", "8D", "d:", ":p", "@:", ":|", "|;", "::",
     "http://t.co/x", "www.a.b", "https://", "@user", "a@b", "#tag", "#",
     "don't", "CAN'T", "n't", "3.5", "-1,200", "12:30", "Good", "WOW", "sooo",
     "\u4e2d\u6587", "\U0001f600", "\u00e9", "\u0130", "\u00b2", "\u20ac",
     "_", "!!", "?!", " ", "\t", "\n"]
)

_RULE_TEXT = st.lists(
    _RULE_PIECES | st.text(alphabet=_RULE_ALPHABET, max_size=4) | st.text(max_size=3),
    max_size=10,
).map("".join)


@settings(max_examples=400)
@example("(-:\n")
@given(_RULE_TEXT)
def test_longer_strings_follow_the_first_rules(text):
    _assert_first_rules(text)
