"""Sparse feature extraction for whole messages.

Feature names are namespaced ``group|detail``.  The groups:

  wng|...   word 1-4 grams over lowercased, negation-suffixed tokens,
            plus 3/4-grams with one interior token replaced by ``*``
  cng|...   character 3-5 grams inside tokens (urls/mentions skipped)
  caps|...  number of all-caps tokens
  pos|TAG   occurrences per part-of-speech tag (tagged input only)
  ht|...    number of hashtags
  lex|...   per-lexicon score statistics, see below
  pnc|...   punctuation runs and sentence-final punctuation
  emo|...   emoticon presence and final-token polarity
  elo|...   number of elongated words
  cls|ID    presence of each word cluster
  neg|...   number of negated contexts

``pipeline.TASKS`` declares the same namespaces, in this order.

Lexicon statistics are emitted per (lexicon, term namespace, scope,
affect): ``lex|<name>|<uni/bi/pair>[|<scope>]|<stat>|<affect>``.  The
scoring units of the three namespaces are the message's unigrams, its
bigrams, and its pairs ``A---B``, where ``A`` and ``B`` are unigrams or
bigrams and at least one token separates them.  A pair is matched by its
head ``A`` in the lexicon's ``pair_table``, then by its tail ``B`` in
that head's row; no pair text is built.  Pairs are visited in message
order, by the tail's last token, then the head's first token (a bigram
head before a unigram one), then the tail's first token, so the hits
need no sort.  A unit belongs to a scope when all its tokens do.  The scope segment is omitted for the
all-tokens scope and is ``pos:TAG``, ``hashtag`` or ``caps`` otherwise.
The four stats are ``cnt`` (scoring units with a score above zero),
``sum`` (of all scores), ``max`` (the largest score above zero, or 0
when there is none) and ``last`` (score of the last unit, in order of
its final token, with a score above zero).  A unigram takes each
affect's score from its ``uni:`` term and, where that term is absent or
lacks the affect, from the unprefixed term.  Units whose tokens all lie
inside a negated context feed a separate block whose affect segment
carries a ``_NEG`` suffix; the lexicon is still consulted with the
plain surface.

``MessageFeatureConfig`` chooses only negation marking and the bare
unigram baseline.  Every other group is left out of a run by removing
its name prefixes, which ``pipeline.TASKS`` declares.

Ngram and count features are binary or raw counts; zero-valued entries
are never stored.

A token's character n-gram names depend only on its negation-suffixed
surface, so they are built once per distinct surface and kept in a
least-recently-used memo of at most ``CHAR_NGRAM_MEMO`` surfaces; rows
share the memo's strings.  A lookup that misses costs more than building
the names outright, so the memo pays only where surfaces repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import Lexicon
from .negation import (
    EMPTY_ANNOTATION,
    NEG_SUFFIX,
    NegationAnnotation,
    apply_negation_suffix,
    mark_negation,
)
from .tokenizer import TokenizedMessage, emoticon_polarity


@dataclass
class FeatureVector:
    """Sparse name -> value map; zero values are dropped on insert."""

    entries: dict[str, float] = field(default_factory=dict)

    def set(self, name: str, value: float) -> None:
        if value != 0:
            self.entries[name] = float(value)

    def get(self, name: str) -> float:
        return self.entries.get(name, 0.0)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class FeatureDictionary:
    """Bijection between feature names and dense indices.

    Defined by ``names`` alone: ``index``, built on first read, maps each
    name to its position.  :func:`build_feature_dictionary` sorts the
    names, so the mapping is independent of extraction order.
    """

    names: tuple[str, ...]

    @cached_property
    def index(self) -> dict[str, int]:
        return dict(zip(self.names, range(len(self.names))))

    @property
    def size(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class IndexedVector:
    """A FeatureVector resolved against a FeatureDictionary."""

    indices: np.ndarray
    values: np.ndarray


def format_feature_dump(vector: FeatureVector) -> str:
    """Render a vector as ``name<TAB>value`` lines sorted by name."""
    return "".join(
        f"{name}\t{vector.entries[name]:g}\n" for name in sorted(vector.entries)
    )


def build_feature_dictionary(vectors: Iterable[FeatureVector]) -> FeatureDictionary:
    """Build the name/index bijection from training vectors only."""
    names = set()
    for v in vectors:
        names.update(v.entries)
    return FeatureDictionary(tuple(sorted(names)))


def vectorize(vector: FeatureVector, dictionary: FeatureDictionary) -> IndexedVector:
    """Resolve names to indices; names unknown to the dictionary drop.

    The result holds strictly increasing int64 indices and their float64
    values.  ``linear_model.train`` and ``decision_values`` rely on the
    order: they check only the last index against the dictionary size.
    """
    entries = vector.entries
    n = len(entries)
    indices = np.fromiter(map(dictionary.index.get, entries, repeat(-1)), np.int64, n)
    values = np.fromiter(entries.values(), np.float64, n)
    known = indices >= 0
    if not known.all():
        indices, values = indices[known], values[known]
    order = indices.argsort()
    return IndexedVector(indices=indices[order], values=values[order])


def select_columns(
    dictionary: FeatureDictionary, rows: Sequence[IndexedVector], keep: np.ndarray
) -> tuple[FeatureDictionary, list[IndexedVector]]:
    """Dictionary and rows cut to the columns that the boolean ``keep`` marks.

    Kept columns are renumbered in order; the others drop, as
    :func:`vectorize` drops names unknown to the dictionary.
    """
    renumber = np.cumsum(keep, dtype=np.int64) - 1
    selected = []
    for row in rows:
        kept = keep[row.indices]
        selected.append(IndexedVector(renumber[row.indices[kept]], row.values[kept]))
    return FeatureDictionary(tuple(compress(dictionary.names, keep))), selected


# The longest word n-gram, the word n-gram sizes that also get wildcard
# forms, and the character n-gram sizes.
NGRAM_MAX = 4
WILDCARD_SIZES = (3, 4)
CHAR_NGRAM_SIZES = (3, 4, 5)
# Distinct token surfaces whose character n-gram names are memoized.  A
# surface of 5-9 letters takes about 1 KB, so a full memo holds about 8 MB.
CHAR_NGRAM_MEMO = 8192


@dataclass(frozen=True)
class MessageFeatureConfig:
    """Negation marking, and the paper's bare unigram baseline.

    These two rename or replace features.  Every other group is left out
    of a run by removing its name prefixes, which ``pipeline.TASKS``
    declares.  The baseline emits word unigrams and nothing else: it
    ignores lexicons and cluster maps, and ``neg|count`` still follows
    ``negation``.
    """

    negation: bool = True
    baseline: bool = False

    @classmethod
    def unigrams_only(cls) -> "MessageFeatureConfig":
        """Bare unigram baseline: no other groups, no negation marking."""
        return cls(negation=False, baseline=True)


DEFAULT_MESSAGE_CONFIG = MessageFeatureConfig()


# Units of each namespace as (lookup text, scope mask): the AND of the
# masks of the unit's tokens, from _scope_masks.
Unit = tuple[str, int]


def _scope_masks(
    message: TokenizedMessage, annotation: NegationAnnotation
) -> tuple[list[str], list[int], int]:
    """Scope name segments, one bitmask per token, and the negation bit.

    Bit ``k`` of a token's mask is set when the token belongs to scope
    ``k``; scope 0 (all tokens, empty segment) is followed by each POS
    tag in sorted order, then hashtags and all-caps tokens when present.
    The negation bit marks tokens inside a negated context.
    """
    tokens = message.tokens
    tags = sorted({t.pos_tag for t in tokens if t.pos_tag is not None})
    segments = [""] + [f"|pos:{tag}" for tag in tags]
    tag_bit = {tag: 1 << k for k, tag in enumerate(tags, start=1)}
    hashtag_bit = caps_bit = 0
    if any(t.kind == "hashtag" for t in tokens):
        hashtag_bit = 1 << len(segments)
        segments.append("|hashtag")
    if any(t.all_caps for t in tokens):
        caps_bit = 1 << len(segments)
        segments.append("|caps")
    negated_bit = 1 << len(segments)
    masks = []
    for t, negated in zip(tokens, annotation.scope_flags(len(tokens))):
        mask = 1
        if t.pos_tag is not None:
            mask |= tag_bit[t.pos_tag]
        if t.kind == "hashtag":
            mask |= hashtag_bit
        if t.all_caps:
            mask |= caps_bit
        if negated:
            mask |= negated_bit
        masks.append(mask)
    return segments, masks, negated_bit


def _pair_hits(
    unigrams: Sequence[Unit], bigrams: Sequence[Unit], lexicon: Lexicon
) -> list[tuple[int, tuple[float | None, ...]]]:
    """(scope mask, score row) of each pair of the message in the lexicon.

    ``unigrams[i]`` and ``bigrams[i]`` are the units that start at token
    ``i``.  Hits come out in order of the pair's final token, then of its
    token positions, so "last" statistics follow message order.  On spans
    that is (tail end, head start, longer head first, tail start), the
    order in which the loops below visit them, so nothing is sorted.
    """
    table = lexicon.pair_table
    # Heads with a row in the table, as (first token, last token, row by
    # tail text, scope mask): by first token, the bigram first.
    heads = []
    for start, (text, mask) in enumerate(unigrams):
        if start < len(bigrams):
            bigram, bi_mask = bigrams[start]
            by_tail = table.get(bigram)
            if by_tail is not None:
                heads.append((start, start + 1, by_tail, bi_mask))
        by_tail = table.get(text)
        if by_tail is not None:
            heads.append((start, start, by_tail, mask))
    hits: list[tuple[int, tuple[float | None, ...]]] = []
    if not heads:
        return hits
    tails = lexicon.pair_tails
    for end in range(2, len(unigrams)):
        # The tails that end at ``end``, the bigram first.  A tail starts
        # at least two tokens after its head's last one, so the heads that
        # start at end - 1 or later pair with neither.
        bigram, bi_mask = bigrams[end - 1]
        if bigram not in tails:
            bigram = None
        unigram, uni_mask = unigrams[end]
        if unigram not in tails:
            if bigram is None:
                continue
            unigram = None
        for start, h_end, by_tail, mask in heads:
            if start >= end - 1:
                break
            if bigram is not None and h_end < end - 2:
                row = by_tail.get(bigram)
                if row is not None:
                    hits.append((mask & bi_mask, row))
            if unigram is not None and h_end < end - 1:
                row = by_tail.get(unigram)
                if row is not None:
                    hits.append((mask & uni_mask, row))
    return hits


def _lexicon_features(
    fv: FeatureVector,
    message: TokenizedMessage,
    surfaces: Sequence[str],
    annotation: NegationAnnotation,
    lexicons: Sequence[Lexicon],
) -> None:
    segments, masks, negated_bit = _scope_masks(message, annotation)
    wanted = frozenset().union(*(lex.namespaces() for lex in lexicons))
    units_by_ns: dict[str, list[Unit]] = {"uni": list(zip(surfaces, masks))}
    if "bi" in wanted or "pair" in wanted:
        units_by_ns["bi"] = [
            (f"{surfaces[i]} {surfaces[i + 1]}", masks[i] & masks[i + 1])
            for i in range(len(surfaces) - 1)
        ]
    entries = fv.entries
    for lexicon in lexicons:
        for namespace in ("uni", "bi", "pair"):
            if namespace not in lexicon.namespaces():
                continue
            if namespace == "pair":
                hits = _pair_hits(units_by_ns["uni"], units_by_ns["bi"], lexicon)
            else:
                table = lexicon.unit_scores(namespace)
                hits = [
                    (mask, row)
                    for text, mask in units_by_ns[namespace]
                    if (row := table.get(text)) is not None
                ]
            if not hits:
                continue
            for k, segment in enumerate(segments):
                bit = 1 << k
                plain: list[tuple[float | None, ...]] = []
                negated: list[tuple[float | None, ...]] = []
                for mask, row in hits:
                    if mask & bit:
                        (negated if mask & negated_bit else plain).append(row)
                if not plain and not negated:
                    continue
                prefix = f"lex|{lexicon.name}|{namespace}{segment}"
                # Each affect's column in the plain and the negated block;
                # an empty block gives empty columns.
                columns = zip(
                    zip(*plain) if plain else repeat(()),
                    zip(*negated) if negated else repeat(()),
                )
                # The writes below store what FeatureVector.set would: a
                # float, and nothing for a zero; cnt, sum, max, last in
                # that order.
                for affect, blocks in zip(lexicon.affects, columns):
                    for label, scores in zip((affect, affect + NEG_SUFFIX), blocks):
                        if None in scores:
                            scores = [s for s in scores if s is not None]
                        if not scores:
                            continue
                        above = [s for s in scores if s > 0]
                        if above:
                            entries[f"{prefix}|cnt|{label}"] = float(len(above))
                        total = sum(scores)
                        if total:
                            entries[f"{prefix}|sum|{label}"] = float(total)
                        if above:
                            entries[f"{prefix}|max|{label}"] = float(max(above))
                            entries[f"{prefix}|last|{label}"] = float(above[-1])


def _word_ngram_features(
    fv: FeatureVector, suffixed: Sequence[str], ngram_max: int
) -> None:
    # grams[k][i] joins the k tokens from position i; a wildcard n-gram is
    # a prefix gram, "*" and a suffix gram.  Names keep the order of the
    # n-gram loop: by n, then by start, each n-gram before its wildcards.
    grams: list[list[str]] = [[]]
    names: list[str] = []
    for n in range(1, ngram_max + 1):
        if n == 1:
            grams.append(list(suffixed))
        else:
            grams.append([g + " " + s for g, s in zip(grams[-1], suffixed[n - 1 :])])
        rows = [["wng|" + g for g in grams[n]]]
        if n in WILDCARD_SIZES:
            for hole in range(1, n - 1):
                tails = grams[n - hole - 1][hole + 1 :]
                rows.append([f"wng|{h} * {t}" for h, t in zip(grams[hole], tails)])
        names += [name for row in zip(*rows) for name in row]
    fv.entries.update(dict.fromkeys(names, 1.0))


@lru_cache(maxsize=CHAR_NGRAM_MEMO)
def _char_ngrams(surface: str, sizes: tuple[int, ...]) -> tuple[str, ...]:
    """``cng|`` names of one surface, by n, then by start."""
    # A list comprehension builds the tuple faster than a generator does,
    # which matters when most lookups miss.
    return tuple(
        ["cng|" + surface[i : i + n] for n in sizes for i in range(len(surface) - n + 1)]
    )


def _char_ngram_features(
    fv: FeatureVector, message: TokenizedMessage, suffixed: Sequence[str]
) -> None:
    names = [
        name
        for token, surface in zip(message.tokens, suffixed)
        if token.kind not in ("url", "mention")
        for name in _char_ngrams(surface, CHAR_NGRAM_SIZES)
    ]
    fv.entries.update(dict.fromkeys(names, 1.0))


def check_affect_names(lexicons: Sequence[Lexicon]) -> None:
    """Raise ``ValueError`` for a lexicon with affects ``A`` and ``A_NEG``.

    A negated block of affect ``A`` is named ``A_NEG``, so it would take
    the names of the second affect's features.
    """
    for lexicon in lexicons:
        for affect in lexicon.affects:
            if affect + NEG_SUFFIX in lexicon.affects:
                raise ValueError(
                    f"lexicon {lexicon.name!r} has affects {affect!r} and "
                    f"{affect + NEG_SUFFIX!r}: the negated features of the first "
                    "would take the names of the second"
                )


def extract_message_features(
    msg: TokenizedMessage,
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    config: MessageFeatureConfig = DEFAULT_MESSAGE_CONFIG,
) -> FeatureVector:
    """Extract the message-level feature vector.

    Negated contexts are marked over the message's surfaces unless the
    config disables negation.  Raises ``ValueError`` as
    :func:`check_affect_names` does.
    """
    check_affect_names(lexicons)
    fv = FeatureVector()
    surfaces = [t.surface.lower() for t in msg.tokens]
    annotation = mark_negation(surfaces) if config.negation else EMPTY_ANNOTATION
    suffixed = apply_negation_suffix(surfaces, annotation)

    _word_ngram_features(fv, suffixed, 1 if config.baseline else NGRAM_MAX)
    if not config.baseline:
        _char_ngram_features(fv, msg, suffixed)
        tags: dict[str, int] = {}
        emoticons: dict[str, float] = {}
        caps = hashtags = exclaim = question = mixed = elongated = 0
        polarity = None  # of the last emoticon
        for t in msg.tokens:
            if t.pos_tag is not None:
                tags[t.pos_tag] = tags.get(t.pos_tag, 0) + 1
            caps += t.all_caps
            if t.kind == "punctuation":
                chars = set(t.surface)
                exclaim += chars == {"!"}
                question += chars == {"?"}
                mixed += chars == {"!", "?"}
            elif t.kind == "emoticon":
                polarity = emoticon_polarity(t.surface)
                if polarity:
                    emoticons[f"emo|{polarity}"] = 1.0
            elif t.kind == "hashtag":
                hashtags += 1
            if t.elongated and t.kind in ("word", "hashtag"):
                elongated += 1
        for tag, count in tags.items():
            fv.set(f"pos|{tag}", count)
        if lexicons:
            _lexicon_features(fv, msg, surfaces, annotation, lexicons)
        fv.set("caps|count", caps)
        fv.set("ht|count", hashtags)
        fv.set("pnc|exclaim|count", exclaim)
        fv.set("pnc|question|count", question)
        fv.set("pnc|mixed|count", mixed)
        final = msg.tokens[-1].surface if msg.tokens else ""
        fv.set("pnc|last", "!" in final or "?" in final)
        fv.entries.update(emoticons)
        if polarity and msg.tokens[-1].kind == "emoticon":
            fv.set(f"emo|last_{polarity}", 1)
        fv.set("elo|count", elongated)
        if clusters is not None:
            for surface in surfaces:
                cid = clusters.get(surface)
                if cid is not None:
                    fv.set(f"cls|{cid}", 1)
    if config.negation:
        fv.set("neg|count", annotation.count)
    return fv
