"""Sentiment lexicon induction from pseudo-labeled corpora.

Unlabeled messages are labeled positive or negative by the hashtags or
emoticons they contain, candidate terms are counted per class, and each
term receives the difference of its pointwise mutual information with
the two classes:

    score(w) = PMI(w, positive) - PMI(w, negative)

Positive scores indicate association with positive messages.  Candidate
terms are unigrams, contiguous bigrams, and ordered non-contiguous
pairs of unigram/bigram parts separated by at least one token, written
``A---B``.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .corpus_io import NEGATIVE, PAIR_SEPARATOR, POSITIVE, Lexicon, SeedSet
from .tokenizer import TokenizedMessage, emoticon_polarity, is_emoticon, normalize, tokenize
from .wordlists import default_function_words

_PUNCT_CHARS = set(string.punctuation)

# A part of a pair: inclusive token span and its text.
PairPart = tuple[int, int, str]


def pseudo_label_by_hashtag(message: TokenizedMessage, seeds: SeedSet) -> str | None:
    """Label by seed hashtags; conflicting or absent seeds give None."""
    tags = {t.surface.lower() for t in message.tokens if t.kind == "hashtag"}
    has_pos = bool(tags & seeds.positive)
    has_neg = bool(tags & seeds.negative)
    if has_pos and not has_neg:
        return POSITIVE
    if has_neg and not has_pos:
        return NEGATIVE
    return None


def pseudo_label_by_emoticon(message: TokenizedMessage) -> str | None:
    """Label by emoticon polarity; mixed or absent polarities give None."""
    polarities = set()
    for t in message.tokens:
        if t.kind == "emoticon":
            p = emoticon_polarity(t.surface)
            if p is not None:
                polarities.add(p)
    if polarities == {POSITIVE}:
        return POSITIVE
    if polarities == {NEGATIVE}:
        return NEGATIVE
    return None


def pair_units(
    heads: Sequence[PairPart],
    tails: Sequence[PairPart],
    window: int | None = None,
) -> list[tuple[PairPart, PairPart, str]]:
    """Ordered pairs of a head part and a later tail part, with pair text.

    The tail starts at least one token after the head ends, and at most
    ``window`` tokens after when set.  Pairs come head-major, in the
    order of ``heads`` and then ``tails``.
    """
    pairs = []
    for head in heads:
        first = head[1] + 2
        joined = head[2] + PAIR_SEPARATOR
        if window is None:
            pairs += [
                (head, tail, joined + tail[2]) for tail in tails if first <= tail[0]
            ]
        else:
            pairs += [
                (head, tail, joined + tail[2])
                for tail in tails
                if first <= tail[0] < first + window
            ]
    return pairs


def _is_pure_punctuation(token: str) -> bool:
    return (
        bool(token)
        and all(c in _PUNCT_CHARS for c in token)
        and not is_emoticon(token)
    )


def extract_candidates(
    tokens: list[str],
    function_words: frozenset[str] | None = None,
    pair_window: int | None = None,
) -> list[str]:
    """Candidate terms of one message, with repeats.

    Unigrams are bare tokens, bigrams are space-joined, and ordered
    non-contiguous pairs of unigram/bigram parts (at least one token in
    between, at most ``pair_window`` when set) are joined by ``---``.
    Candidates containing pure-punctuation or ``@``-initial tokens are
    dropped everywhere; pairs also drop function words.
    """
    if function_words is None:
        function_words = default_function_words()
    n = len(tokens)
    clean = [not (_is_pure_punctuation(t) or t.startswith("@")) for t in tokens]
    # Pair parts: unigrams (i, i) and bigrams (i, i + 1), each clean of
    # blocked tokens and function words.
    usable = [ok and t.lower() not in function_words for ok, t in zip(clean, tokens)]
    bigrams = [
        (i, f"{tokens[i]} {tokens[i + 1]}")
        for i in range(n - 1)
        if clean[i] and clean[i + 1]
    ]
    out = [t for t, ok in zip(tokens, clean) if ok]
    out += [text for _, text in bigrams]
    parts: list[PairPart] = [(i, i, t) for i, t in enumerate(tokens) if usable[i]]
    parts += [(i, i + 1, text) for i, text in bigrams if usable[i] and usable[i + 1]]
    out += [pair[2] for pair in pair_units(parts, parts, pair_window)]
    return out


def term_namespace(term: str) -> str:
    """Candidate namespace by shape: pair, bi or uni."""
    if PAIR_SEPARATOR in term:
        return "pair"
    if " " in term:
        return "bi"
    return "uni"


@dataclass
class CooccurrenceCounts:
    """Candidate occurrence counts per term and class.

    ``term_count`` counts each term's occurrences in both classes, with
    terms in order of first occurrence; ``positive_count`` counts those
    in the positive class, so a term's negative count is the difference.
    ``class_count[c]`` is the total number of candidate occurrences in
    class ``c`` and always equals the per-term counts summed over terms.
    """

    term_count: Counter[str] = field(default_factory=Counter)
    positive_count: Counter[str] = field(default_factory=Counter)
    class_count: dict[str, int] = field(
        default_factory=lambda: {POSITIVE: 0, NEGATIVE: 0}
    )

    @property
    def total(self) -> int:
        return self.class_count[POSITIVE] + self.class_count[NEGATIVE]


def count_cooccurrences(
    corpus: Iterable[tuple[list[str], str]],
    function_words: frozenset[str] | None = None,
    per_message: bool = False,
    pair_window: int | None = None,
) -> CooccurrenceCounts:
    """Count candidates over (tokens, class) pairs into two counters.

    Each occurrence counts once; with ``per_message`` a candidate counts
    at most once per message.  Every candidate goes into ``term_count``,
    and those of positive messages also into ``positive_count``.
    A class other than positive or negative raises ``ValueError``.
    """
    counts = CooccurrenceCounts()
    for tokens, label in corpus:
        if label not in counts.class_count:
            raise ValueError(
                f"unknown class {label!r}; expected {POSITIVE!r} or {NEGATIVE!r}"
            )
        candidates = extract_candidates(tokens, function_words, pair_window)
        if per_message:
            candidates = sorted(set(candidates))
        counts.class_count[label] += len(candidates)
        counts.term_count.update(candidates)
        if label == POSITIVE:
            counts.positive_count.update(candidates)
    return counts


def pmi_score(counts: CooccurrenceCounts, term: str, alpha: float = 0.5) -> float:
    """PMI difference of ``term`` between the positive and negative class.

    Frequencies are smoothed by adding ``alpha`` times the term's total
    mass, apportioned by class share: the pseudo-counts shrink each term
    toward class independence.  This keeps scores finite when a term
    misses one class, never changes the sign of the unsmoothed ratio,
    and is computed on count ratios only, so duplicating the corpus
    leaves every score bit-identical.
    """
    f_term = counts.term_count[term]
    f_pos = counts.positive_count[term]
    f_neg = f_term - f_pos
    total = counts.total
    if f_term == 0:
        raise ValueError(f"term {term!r} has no occurrences")
    if counts.class_count[POSITIVE] == 0 or counts.class_count[NEGATIVE] == 0:
        raise ValueError("both classes need candidate occurrences to score terms")
    rel_pos = f_pos / total
    rel_neg = f_neg / total
    rel_term = f_term / total
    share_pos = counts.class_count[POSITIVE] / total
    share_neg = counts.class_count[NEGATIVE] / total
    numerator = (rel_pos + alpha * rel_term * share_pos) * share_neg
    denominator = (rel_neg + alpha * rel_term * share_neg) * share_pos
    return math.log2(numerator) - math.log2(denominator)


def build_lexicon(
    corpus: Iterable[tuple[str, str]],
    labeling: str,
    seeds: SeedSet | None = None,
    min_count: int = 5,
    alpha: float = 0.5,
    per_message: bool = False,
    pair_window: int | None = None,
    function_words: frozenset[str] | None = None,
    name: str | None = None,
) -> Lexicon:
    """Induce a polarity lexicon from an unlabeled (id, text) corpus.

    ``labeling`` is ``"hashtag"`` (requires ``seeds``) or ``"emoticon"``
    (takes none).
    Messages with conflicting or missing signals are skipped; with
    emoticon labeling, the labeling emoticons are removed before
    counting.  Terms occurring fewer than ``min_count`` times are
    dropped.  Every entry carries the positive-direction score under
    ``positive`` and its negation under ``negative``, with namespace
    prefixes ``uni:``, ``bi:`` and ``pair:``.  ``alpha`` must be finite
    and positive, and ``pair_window`` None or at least 1.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if pair_window is not None and pair_window < 1:
        raise ValueError(f"pair_window must be at least 1, got {pair_window}")
    if labeling not in ("hashtag", "emoticon"):
        raise ValueError(f"unknown labeling scheme '{labeling}'")
    if labeling == "hashtag" and seeds is None:
        raise ValueError("hashtag labeling requires a seed set")
    if labeling == "emoticon" and seeds is not None:
        raise ValueError("emoticon labeling takes no seed set (--seeds)")

    streams: list[tuple[list[str], str]] = []
    for _msg_id, text in corpus:
        message = tokenize(normalize(text))
        if labeling == "hashtag":
            label = pseudo_label_by_hashtag(message, seeds)
            kept = message.tokens
        else:
            label = pseudo_label_by_emoticon(message)
            kept = [
                t
                for t in message.tokens
                if not (t.kind == "emoticon" and emoticon_polarity(t.surface))
            ]
        if label is None:
            continue
        streams.append(([t.surface.lower() for t in kept], label))

    if not streams:
        raise ValueError("no labeled messages")

    counts = count_cooccurrences(streams, function_words, per_message, pair_window)
    for cls in (POSITIVE, NEGATIVE):
        if counts.class_count[cls] == 0:
            raise ValueError(f"no {cls} candidates after labeling")

    entries: dict[str, dict[str, float]] = {}
    for term, occurrences in counts.term_count.items():
        if occurrences < min_count:
            continue
        score = pmi_score(counts, term, alpha)
        key = f"{term_namespace(term)}:{term}"
        entries[key] = {POSITIVE: score, NEGATIVE: -score}
    return Lexicon(
        name=name if name is not None else labeling,
        affects=(POSITIVE, NEGATIVE),
        entries=entries,
        kind="auto",
    )
