from hypothesis import given, strategies as st
from oracles import oracle_apply_negation_suffix

from tweetsent.negation import (
    EMPTY_ANNOTATION,
    NEG_SUFFIX,
    NegationAnnotation,
    apply_negation_suffix,
    flip_term_polarity,
    mark_negation,
)
from tweetsent.tokenizer import tokenize
from tweetsent.wordlists import default_negation_words

# Mixes negation words, clause punctuation, words that merely contain
# clause punctuation, and plain words.
_SURFACE = st.sampled_from(
    ["not", "no", "never", "n't", "cannot", ",", ".", "!", "?!", "good",
     "bad", "day", "so", "x,y", "Never"]
)
_TOKENS = st.lists(_SURFACE, max_size=12)


def test_contraction_context():
    message = [t.surface for t in tokenize("i don't like this , but ok").tokens]
    annotation = mark_negation(message)
    assert annotation.spans == ((3, 4),)
    assert apply_negation_suffix(message, annotation) == [
        "i", "do", "n't", "like" + NEG_SUFFIX, "this" + NEG_SUFFIX,
        ",", "but", "ok",
    ]


def test_trailing_negation_word_opens_nothing():
    assert mark_negation(["ok", "never"]).count == 0


def test_no_negation():
    assert mark_negation(["all", "good", "here"]) == EMPTY_ANNOTATION


def test_context_to_clause_punctuation():
    annotation = mark_negation(["no", "fun", "."])
    assert annotation.spans == ((1, 1),)
    assert annotation.count == 1


def test_contexts_do_not_nest():
    annotation = mark_negation(["not", "good", "not", "bad", "."])
    assert annotation.spans == ((1, 3),)


def test_empty_context_dropped():
    annotation = mark_negation(["no", ",", "fun"])
    assert annotation.count == 0
    assert apply_negation_suffix(["no", ",", "fun"], annotation) == [
        "no", ",", "fun",
    ]


def test_match_is_case_insensitive():
    assert mark_negation(["Never", "stop"]).spans == ((1, 1),)


def test_embedded_punctuation_closes():
    # A surface containing a clause character ends the context.
    annotation = mark_negation(["not", "good", "x,y", "bad"])
    assert annotation.spans == ((1, 1),)


def test_in_scope():
    annotation = mark_negation(["no", "fun", "at", "all"])
    assert annotation.spans == ((1, 3),)
    assert not annotation.in_scope(0)
    assert all(annotation.in_scope(i) for i in (1, 2, 3))


@given(_TOKENS)
def test_suffix_count_matches_span_lengths(tokens):
    annotation = mark_negation(tokens)
    suffixed = apply_negation_suffix(tokens, annotation)
    n_suffixed = sum(1 for s in suffixed if s.endswith(NEG_SUFFIX))
    span_total = sum(end - start + 1 for start, end in annotation.spans)
    assert n_suffixed == span_total


@given(_TOKENS)
def test_spans_are_ordered_disjoint_and_in_range(tokens):
    annotation = mark_negation(tokens)
    previous_end = -1
    for start, end in annotation.spans:
        assert previous_end < start <= end < len(tokens)
        previous_end = end
    assert annotation.count == len(annotation.spans)


@given(_TOKENS)
def test_each_span_follows_a_negation_word(tokens):
    words = default_negation_words()
    for start, _ in mark_negation(tokens).spans:
        assert tokens[start - 1].lower() in words


@given(_TOKENS)
def test_no_clause_punctuation_inside_spans(tokens):
    annotation = mark_negation(tokens)
    for start, end in annotation.spans:
        for i in range(start, end + 1):
            assert not any(c in ",.:;!?" for c in tokens[i])


@given(_TOKENS)
def test_tokens_outside_spans_unmodified(tokens):
    annotation = mark_negation(tokens)
    suffixed = apply_negation_suffix(tokens, annotation)
    for i, (before, after) in enumerate(zip(tokens, suffixed)):
        if not annotation.in_scope(i):
            assert after == before


# Any spans, as a caller may build them: negative, past the end,
# reversed, overlapping.
_SPANS = st.lists(
    st.tuples(st.integers(-3, 14), st.integers(-3, 14)), max_size=4
).map(tuple)


@given(_TOKENS, _SPANS)
def test_suffix_matches_per_token_scope_test(tokens, spans):
    for annotation in (
        mark_negation(tokens),
        NegationAnnotation(spans=spans),
    ):
        assert apply_negation_suffix(tokens, annotation) == (
            oracle_apply_negation_suffix(tokens, annotation)
        )
        assert annotation.scope_flags(len(tokens)) == [
            annotation.in_scope(i) for i in range(len(tokens))
        ]


@given(_TOKENS)
def test_empty_annotation_is_identity(tokens):
    assert apply_negation_suffix(tokens, EMPTY_ANNOTATION) == list(tokens)


def test_flip_golden():
    assert flip_term_polarity([0.5, 0.8], -1) == [-0.5, -0.8]
    assert flip_term_polarity([0.5, 0.8], 0) == [0.5, -0.8]
    assert flip_term_polarity([], -1) == []


@given(
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=8),
    st.integers(min_value=-1, max_value=8),
)
def test_flip_is_an_involution(scores, position):
    twice = flip_term_polarity(flip_term_polarity(scores, position), position)
    assert twice == scores
