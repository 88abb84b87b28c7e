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
head ``A`` in the lexicon's ``pair_table``, then by each later part in
the lexicon's tail set; no pair text is built.  A unit belongs to a
scope when all its tokens do.  The scope segment is omitted for the
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus_io import Lexicon
from .negation import (
    EMPTY_ANNOTATION,
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

    Built from ``names`` alone: ``index`` maps each name to its position
    and takes no part in equality.  :func:`build_feature_dictionary`
    sorts the names, so the mapping is independent of extraction order.
    """

    names: tuple[str, ...]
    index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", dict(zip(self.names, range(len(self.names)))))

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


def build_feature_dictionary(
    vectors: Iterable[FeatureVector], without: tuple[str, ...] = ()
) -> FeatureDictionary:
    """Build the name/index bijection from training vectors only.

    Names that start with a prefix in ``without`` are left out.
    """
    names = set()
    for v in vectors:
        names.update(v.entries)
    kept = sorted(names)
    if without:
        kept = [n for n in kept if not n.startswith(without)]
    return FeatureDictionary(tuple(kept))


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


# The longest word n-gram, the word n-gram sizes that also get wildcard
# forms, and the character n-gram sizes.
NGRAM_MAX = 4
WILDCARD_SIZES = (3, 4)
CHAR_NGRAM_SIZES = (3, 4, 5)


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
    parts: Sequence[tuple[int, int, str, int]], lexicon: Lexicon
) -> list[tuple[int, tuple[float | None, ...]]]:
    """(scope mask, score row) of each pair of ``parts`` in the lexicon.

    Parts are the message's unigrams and bigrams as (first token, last
    token, text, scope mask).
    """
    tails = [p for p in parts if p[2] in lexicon.pair_tails]
    hits = []
    for h_start, h_end, head, h_mask in parts:
        by_tail = lexicon.pair_table.get(head)
        if by_tail is not None:
            hits += [
                ((t_end, h_start, -h_end, t_start), h_mask & t_mask, row)
                for t_start, t_end, tail, t_mask in tails
                if t_start > h_end + 1 and (row := by_tail.get(tail)) is not None
            ]
    # Order by final position, then by the unit's token positions, so
    # "last" statistics follow message order.  On spans that is (tail end,
    # head start, longer head first, tail start): a bigram head's second
    # token precedes every tail token.
    hits.sort(key=lambda hit: hit[0])
    return [(mask, row) for _, mask, row in hits]


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
        bigrams = [
            f"{surfaces[i]} {surfaces[i + 1]}" for i in range(len(surfaces) - 1)
        ]
        units_by_ns["bi"] = [
            (text, masks[i] & masks[i + 1]) for i, text in enumerate(bigrams)
        ]
        if "pair" in wanted:
            parts = [(i, i, *unit) for i, unit in enumerate(units_by_ns["uni"])]
            parts += [(i, i + 1, *unit) for i, unit in enumerate(units_by_ns["bi"])]
    for lexicon in lexicons:
        for namespace in ("uni", "bi", "pair"):
            if namespace not in lexicon.namespaces():
                continue
            if namespace == "pair":
                hits = _pair_hits(parts, lexicon)
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
                in_scope = [
                    (mask & negated_bit, row) for mask, row in hits if mask & bit
                ]
                if not in_scope:
                    continue
                prefix = f"lex|{lexicon.name}|{namespace}{segment}"
                for j, affect in enumerate(lexicon.affects):
                    plain: list[float] = []
                    negated: list[float] = []
                    for is_negated, row in in_scope:
                        score = row[j]
                        if score is not None:
                            (negated if is_negated else plain).append(score)
                    for label, scores in ((affect, plain), (affect + "_NEG", negated)):
                        if scores:
                            above = [s for s in scores if s > 0]
                            fv.set(f"{prefix}|cnt|{label}", len(above))
                            fv.set(f"{prefix}|sum|{label}", sum(scores))
                            fv.set(f"{prefix}|max|{label}", max(above, default=0.0))
                            last = above[-1] if above else 0.0
                            fv.set(f"{prefix}|last|{label}", last)


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


def _char_ngram_features(
    fv: FeatureVector, message: TokenizedMessage, suffixed: Sequence[str]
) -> None:
    names = [
        "cng|" + surface[i : i + n]
        for token, surface in zip(message.tokens, suffixed)
        if token.kind not in ("url", "mention")
        for n in CHAR_NGRAM_SIZES
        for i in range(len(surface) - n + 1)
    ]
    fv.entries.update(dict.fromkeys(names, 1.0))


def _punctuation_features(fv: FeatureVector, message: TokenizedMessage) -> None:
    exclaim = question = mixed = 0
    for t in message.tokens:
        if t.kind != "punctuation":
            continue
        chars = set(t.surface)
        if chars == {"!"}:
            exclaim += 1
        elif chars == {"?"}:
            question += 1
        elif chars == {"!", "?"}:
            mixed += 1
    fv.set("pnc|exclaim|count", exclaim)
    fv.set("pnc|question|count", question)
    fv.set("pnc|mixed|count", mixed)
    if message.tokens:
        final = message.tokens[-1].surface
        if "!" in final or "?" in final:
            fv.set("pnc|last", 1)


def _emoticon_features(fv: FeatureVector, message: TokenizedMessage) -> None:
    for t in message.tokens:
        if t.kind == "emoticon":
            polarity = emoticon_polarity(t.surface)
            if polarity:
                fv.set(f"emo|{polarity}", 1)
    if message.tokens:
        final = message.tokens[-1]
        if final.kind == "emoticon":
            polarity = emoticon_polarity(final.surface)
            if polarity:
                fv.set(f"emo|last_{polarity}", 1)


def extract_message_features(
    msg: TokenizedMessage,
    lexicons: Sequence[Lexicon] = (),
    clusters: Mapping[str, int] | None = None,
    config: MessageFeatureConfig = DEFAULT_MESSAGE_CONFIG,
) -> FeatureVector:
    """Extract the message-level feature vector.

    Negated contexts are marked over the message's surfaces unless the
    config disables negation handling.
    """
    fv = FeatureVector()
    surfaces = [t.surface.lower() for t in msg.tokens]
    annotation = mark_negation(surfaces) if config.negation else EMPTY_ANNOTATION
    suffixed = apply_negation_suffix(surfaces, annotation)

    _word_ngram_features(fv, suffixed, 1 if config.baseline else NGRAM_MAX)
    if not config.baseline:
        _char_ngram_features(fv, msg, suffixed)
        tags: dict[str, int] = {}
        for t in msg.tokens:
            if t.pos_tag is not None:
                tags[t.pos_tag] = tags.get(t.pos_tag, 0) + 1
        for tag, count in tags.items():
            fv.set(f"pos|{tag}", count)
        if lexicons:
            _lexicon_features(fv, msg, surfaces, annotation, lexicons)
        fv.set("caps|count", sum(1 for t in msg.tokens if t.all_caps))
        fv.set("ht|count", sum(1 for t in msg.tokens if t.kind == "hashtag"))
        _punctuation_features(fv, msg)
        _emoticon_features(fv, msg)
        fv.set(
            "elo|count",
            sum(
                1
                for t in msg.tokens
                if t.elongated and t.kind in ("word", "hashtag")
            ),
        )
        if clusters is not None:
            for surface in surfaces:
                cid = clusters.get(surface)
                if cid is not None:
                    fv.set(f"cls|{cid}", 1)
    if config.negation:
        fv.set("neg|count", annotation.count)
    return fv
