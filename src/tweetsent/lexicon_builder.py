"""Sentiment lexicon induction from pseudo-labeled corpora.

Unlabeled messages are labeled positive or negative by the hashtags or
emoticons they contain, candidate terms are counted per class, and each
term receives the difference of its pointwise mutual information with
the two classes:

    score(w) = PMI(w, positive) - PMI(w, negative)

Positive scores indicate association with positive messages.  Candidate
terms are unigrams, contiguous bigrams, and ordered non-contiguous
pairs of unigram/bigram parts separated by at least one token, written
``A---B``.  Every occurrence of a candidate counts;
:func:`count_cooccurrences` counts them in two passes over integer
codes and turns only the terms that reach ``min_count`` into text.
"""

from __future__ import annotations

import math
import string
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .corpus_io import (
    NEGATIVE, PAIR_SEPARATOR, POSITIVE, Lexicon, MissingClassError, SeedSet
)
from .tokenizer import TokenizedMessage, emoticon_polarity, is_emoticon, normalize, tokenize
from .wordlists import default_function_words

_PUNCT_CHARS = set(string.punctuation)

# A candidate's code: a unigram or bigram with text id i is i << 32, and
# a pair of head id h and tail id t is h << 32 | (t + 1).
_TAIL_MASK = (1 << 32) - 1

# Messages per range in which the single counts and pass 2 walk pass 1's
# flat record: one np.unique counts a range's singles, and pass 2 tests
# a range's candidate occurrences together.
_BATCH = 256


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


def _is_pure_punctuation(token: str) -> bool:
    return (
        bool(token)
        and all(c in _PUNCT_CHARS for c in token)
        and not is_emoticon(token)
    )


def _message_parts(
    tokens: list[str],
    function_words: frozenset[str],
    ids: dict[str, int],
    token_flags: dict[str, tuple[int, bool]],
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Singles and pair parts of one message.

    Returns the unigram and bigram ids in candidate order (unigrams,
    then bigrams), and the pair parts' ids, first and last token
    positions: unigrams (i, i), then bigrams (i, i + 1), free of blocked
    tokens and function words.  Texts get ids from ``ids`` (text -> id),
    new texts the next free one.  ``token_flags`` caches each token's
    unigram id (-1 for a blocked token) and whether it can be part of a
    pair.
    """
    n = len(tokens)
    unigrams, usable = [], []
    for t in tokens:
        flags = token_flags.get(t)
        if flags is None:
            clean = not (_is_pure_punctuation(t) or t.startswith("@"))
            flags = token_flags[t] = (
                ids.setdefault(t, len(ids)) if clean else -1,
                clean and t.lower() not in function_words,
            )
        unigrams.append(flags[0])
        usable.append(flags[1])
    bigrams = [
        ids.setdefault(f"{tokens[i]} {tokens[i + 1]}", len(ids))
        if unigrams[i] >= 0 and unigrams[i + 1] >= 0
        else -1
        for i in range(n - 1)
    ]
    uni_at = [i for i in range(n) if usable[i]]
    bi_at = [i for i in range(n - 1) if usable[i] and usable[i + 1]]
    return (
        [i for i in unigrams + bigrams if i >= 0],
        [unigrams[i] for i in uni_at] + [bigrams[i] for i in bi_at],
        uni_at + bi_at,
        uni_at + [i + 1 for i in bi_at],
    )


def _pair_codes(
    part_id: np.ndarray, part_first: np.ndarray, part_last: np.ndarray
) -> np.ndarray:
    """Codes of one message's pairs, head-major; a token or more between parts."""
    head, tail = np.nonzero(part_first - part_last[:, None] >= 2)
    return part_id[head] << 32 | (part_id[tail] + 1)


def term_namespace(term: str) -> str:
    """Candidate namespace by shape: pair, bi or uni."""
    if PAIR_SEPARATOR in term:
        return "pair"
    if " " in term:
        return "bi"
    return "uni"


@dataclass
class CooccurrenceCounts:
    """Candidate occurrence counts of the kept terms and of each class.

    ``term_count`` counts each kept term's occurrences in both classes,
    in entry order; ``positive_count`` counts those in the positive
    class, so a term's negative count is the difference.
    ``class_count[c]`` is the number of occurrences of every candidate
    in class ``c``, kept or not.
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
    *,
    min_count: int,
) -> CooccurrenceCounts:
    """Count candidates over (tokens, class) pairs; keep the frequent ones.

    Unigrams are bare tokens, bigrams are space-joined, and ordered
    non-contiguous pairs of unigram/bigram parts (at least one token in
    between) are joined by ``---``.  Candidates containing
    pure-punctuation or ``@``-initial tokens are dropped everywhere;
    pairs also drop function words.

    Every occurrence counts, once in its term and once in
    ``class_count``.  Only terms with at least ``min_count`` occurrences
    are kept, in order of first occurrence.  ``corpus`` is read once.  A
    class other than positive or negative raises ``ValueError``.

    Candidates are integer codes of interned unigram and bigram texts,
    counted in two passes.  The first appends each message's class,
    single (unigram and bigram) ids and pair parts to one flat record
    with per-message offsets; every single's count and its largest
    count in one message are then read off that record.  The second
    walks the record in ranges of messages, enumerates the pairs, adds
    every candidate to ``class_count`` and stores only the
    occurrences that can still reach ``min_count``: a single whose
    count reaches it, and a pair A---B whose count(A) * most(B) and
    count(B) * most(A) both reach it, where most(X) is X's largest
    count in one message.  A message holds A---B at most as often as
    the product of its counts of A and B, so a pair can occur more
    often than either part: three messages ``alpha zed beta beta`` hold
    ``alpha---beta`` six times and ``alpha`` three times.  One stable
    sort of the stored codes gives each term's count, and only the kept
    terms are turned back into text.
    """
    if function_words is None:
        function_words = default_function_words()
    # Each id is a distinct unigram or bigram text held in this dict, and
    # 2**31 of them would not fit in memory, so codes fit in an int64.
    ids: dict[str, int] = {}
    token_flags: dict[str, tuple[int, bool]] = {}
    # Pass 1: message j's class is positive[j], its singles are
    # singles[single_at[j]:single_at[j + 1]], and its pair parts' ids,
    # first and last token positions are likewise cut by part_at.
    positive = bytearray()
    single_at, singles = array("q", [0]), array("q")
    part_at, part_id = array("q", [0]), array("q")
    part_first, part_last = array("i"), array("i")
    for tokens, label in corpus:
        if label not in (POSITIVE, NEGATIVE):
            raise ValueError(
                f"unknown class {label!r}; expected {POSITIVE!r} or {NEGATIVE!r}"
            )
        own, own_id, own_first, own_last = _message_parts(
            tokens, function_words, ids, token_flags
        )
        positive.append(label == POSITIVE)
        singles.fromlist(own)
        part_id.fromlist(own_id)
        part_first.fromlist(own_first)
        part_last.fromlist(own_last)
        single_at.append(len(singles))
        part_at.append(len(part_id))
    del token_flags
    positive = np.frombuffer(positive, dtype=bool)
    single_at, singles, part_at, part_id, part_first, part_last = (
        np.frombuffer(a, dtype=a.typecode)
        for a in (single_at, singles, part_at, part_id, part_first, part_last)
    )
    ranges = [
        (lo, min(lo + _BATCH, len(positive)))
        for lo in range(0, len(positive), _BATCH)
    ]

    # count(X) is X's occurrences, and most(X) its largest count in one message.
    count = np.zeros(len(ids), dtype=np.int64)
    most = np.ones(len(ids), dtype=np.int64)
    for lo, hi in ranges:
        n = hi - lo
        key = np.repeat(np.arange(n), np.diff(single_at[lo : hi + 1]))
        key += singles[single_at[lo] : single_at[hi]] * n
        key, in_message = np.unique(key, return_counts=True)
        single = key // n
        np.add.at(count, single, in_message)
        np.maximum.at(most, single, in_message)
    # Indexed by a code's low half (tail id + 1, or 0 for a single), so
    # that a single's test reduces to count >= min_count.
    tail_count = np.concatenate(([min_count], count))
    tail_most = np.concatenate(([1], most))

    # Pass 2.
    class_count = {POSITIVE: 0, NEGATIVE: 0}
    stored: list[np.ndarray] = []
    sizes = np.zeros(len(positive), dtype=np.int64)  # stored per message
    for lo, hi in ranges:
        s_at, p_at = single_at[lo : hi + 1].tolist(), part_at[lo : hi + 1].tolist()
        chunks = []
        for j in range(hi - lo):
            p0, p1 = p_at[j], p_at[j + 1]
            chunks.append(np.concatenate((
                singles[s_at[j] : s_at[j + 1]] << 32,
                _pair_codes(part_id[p0:p1], part_first[p0:p1], part_last[p0:p1]),
            )))
        lengths = np.array([len(c) for c in chunks])
        class_count[POSITIVE] += int(lengths[positive[lo:hi]].sum())
        class_count[NEGATIVE] += int(lengths[~positive[lo:hi]].sum())
        codes = np.concatenate(chunks)
        del chunks
        head, tail = codes >> 32, codes & _TAIL_MASK
        reachable = count[head] * tail_most[tail] >= min_count
        reachable &= tail_count[tail] * most[head] >= min_count
        del head, tail
        stored.append(codes[reachable])
        message = np.repeat(np.arange(hi - lo), lengths)
        sizes[lo:hi] = np.bincount(message[reachable], minlength=hi - lo)
    del singles, single_at, part_at, part_id, part_first, part_last

    # Runs of equal codes in stable sorted order are the distinct
    # candidates; a run's first element is its first occurrence.
    codes = np.concatenate(stored) if stored else np.zeros(0, dtype=np.int64)
    del stored
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    run_start = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    del run_start
    run_count = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=run_count[:-1])
    run_count[-1:] = len(codes) - starts[-1:]
    kept = run_count >= min_count
    kept_codes = codes[starts[kept]]
    del codes
    # Positive flags in sorted order, zeroed on the dropped runs so that
    # a sum from one kept run's start to the next counts that run alone.
    flags = np.repeat(positive, sizes)[order]
    flags[np.repeat(~kept, run_count)] = False
    starts, run_count = starts[kept], run_count[kept]
    rank = np.argsort(order[starts])  # the kept terms by first occurrence
    del order, kept
    run_positive = np.add.reduceat(flags, starts, dtype=np.int64)
    del flags, starts

    kept_codes = kept_codes[rank]
    texts = list(ids)
    heads = (kept_codes >> 32).tolist()
    tails = (kept_codes & _TAIL_MASK).tolist()
    terms = [
        texts[h] if t == 0 else texts[h] + PAIR_SEPARATOR + texts[t - 1]
        for h, t in zip(heads, tails)
    ]
    return CooccurrenceCounts(
        term_count=Counter(dict(zip(terms, run_count[rank].tolist()))),
        positive_count=Counter(dict(zip(terms, run_positive[rank].tolist()))),
        class_count=class_count,
    )


def pmi_score(counts: CooccurrenceCounts, term: str, alpha: float) -> float:
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


def _labeled_streams(
    corpus: Iterable[tuple[str, str]], labeling: str, seeds: SeedSet | None
) -> Iterator[tuple[list[str], str]]:
    """(lowercased tokens, class) of each labeled message, one at a time.

    With emoticon labeling, the labeling emoticons are removed.
    """
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
        if label is not None:
            yield [t.surface.lower() for t in kept], label


def build_lexicon(
    corpus: Iterable[tuple[str, str]],
    labeling: str,
    seeds: SeedSet | None = None,
    min_count: int = 5,
    alpha: float = 0.5,
    function_words: frozenset[str] | None = None,
    name: str | None = None,
) -> Lexicon:
    """Induce a polarity lexicon from an unlabeled (id, text) corpus.

    ``labeling`` is ``"hashtag"`` (requires ``seeds``) or ``"emoticon"``
    (takes none).
    Messages with conflicting or missing signals are skipped; with
    emoticon labeling, the labeling emoticons are removed before
    counting.  Terms occurring fewer than ``min_count`` times are
    dropped before any is scored.  Every entry carries the
    positive-direction score under ``positive`` and its negation under
    ``negative``, with namespace prefixes ``uni:``, ``bi:`` and
    ``pair:``.  ``min_count`` must be at least 1 and ``alpha`` finite
    and positive.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be at least 1, got {min_count}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if labeling not in ("hashtag", "emoticon"):
        raise ValueError(f"unknown labeling scheme '{labeling}'")
    if labeling == "hashtag" and seeds is None:
        raise ValueError("hashtag labeling requires a seed set")
    if labeling == "emoticon" and seeds is not None:
        raise ValueError("emoticon labeling takes no seed set (--seeds)")

    labeled = _labeled_streams(corpus, labeling, seeds)
    first = next(labeled, None)
    if first is None:
        raise MissingClassError("no labeled messages")
    counts = count_cooccurrences(
        chain([first], labeled), function_words, min_count=min_count
    )
    for cls in (POSITIVE, NEGATIVE):
        if counts.class_count[cls] == 0:
            raise MissingClassError(f"no {cls} candidates after labeling")

    entries: dict[str, dict[str, float]] = {}
    for term in counts.term_count:
        score = pmi_score(counts, term, alpha)
        key = f"{term_namespace(term)}:{term}"
        entries[key] = {POSITIVE: score, NEGATIVE: -score}
    return Lexicon(
        name=name if name is not None else labeling,
        affects=(POSITIVE, NEGATIVE),
        entries=entries,
        kind="auto",
    )
