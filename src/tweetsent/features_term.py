"""Sparse feature extraction for labeled token spans (terms).

Target features describe the span itself under the ``tgt|`` namespace;
context features describe up to four tokens on either side under
``ctx|``.  Hashtag tokens inside the target are split into words before
any target feature is computed.  When a negation word occurs right
before or inside the target, lexicon scores of everything after it are
flipped.

Target groups: word ngrams (plus full term, leading and ending
ngrams), 2/3-character word prefixes and suffixes, elongated words,
emoticon counts and polarities, punctuation sequences, uppercase
patterns, stopword composition, length statistics, negation, span
position, per-lexicon score statistics, and mention/URL presence.
Context replicates the ngram, prefix/suffix and lexicon groups over
the windows.

Instances arrive tokenized: :class:`~tweetsent.corpus_io.TermInstance`
tokenizes its text once and checks its span when it is built, so
extraction neither tokenizes nor checks spans again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus_io import Lexicon, TermInstance
from .features_message import FeatureVector
from .negation import flip_term_polarity
from .tokenizer import Token, emoticon_polarity, split_hashtag
from .wordlists import default_hashtag_words, default_negation_words, default_stopwords


@dataclass(frozen=True)
class TermContext:
    """A target span with its surrounding windows.

    ``at_begin``/``at_end`` record whether the span touches the message
    edges; both hold for a whole-message span.
    """

    target: tuple[Token, ...]
    left: tuple[Token, ...]
    right: tuple[Token, ...]
    at_begin: bool
    at_end: bool


@dataclass(frozen=True)
class TermFeatureConfig:
    """Which of the two feature families to extract."""

    target: bool = True
    context: bool = True


DEFAULT_TERM_CONFIG = TermFeatureConfig()

# Context tokens per side of the target.
CONTEXT_WINDOW = 4
# A target word this many characters long sets ``tgt|len|long``.
LONG_WORD_LEN = 8
# Lengths of the word prefixes and suffixes.
PREFIX_SIZES = (2, 3)


def term_context(inst: TermInstance) -> TermContext:
    """Cut the target span and up to :data:`CONTEXT_WINDOW` tokens per side."""
    tokens = inst.tokens.tokens
    start, end = inst.start, inst.end
    return TermContext(
        target=tuple(tokens[start : end + 1]),
        left=tuple(tokens[max(0, start - CONTEXT_WINDOW) : start]),
        right=tuple(tokens[end + 1 : end + 1 + CONTEXT_WINDOW]),
        at_begin=start == 0,
        at_end=end == len(tokens) - 1,
    )


def build_split_vocabulary(lexicons: Sequence[Lexicon]) -> frozenset[str]:
    """Hashtag-splitting vocabulary: bundled words plus lexicon unigrams."""
    words = set(default_hashtag_words())
    for lexicon in lexicons:
        for term in lexicon.entries:
            bare = term[4:] if term.startswith("uni:") else term
            if ":" not in bare and bare.isalpha():
                words.add(bare.lower())
    return frozenset(words)


def _target_words(target: Sequence[Token], split_words: frozenset[str]) -> list[str]:
    """Target word list with hashtags split; case preserved."""
    words: list[str] = []
    for token in target:
        if token.kind == "hashtag":
            words.extend(split_hashtag(token.surface, split_words))
        else:
            words.append(token.surface)
    return words


def _word_features(fv: FeatureVector, namespace: str, words: Sequence[str]) -> None:
    """Binary word unigrams, bigrams and 2/3-character prefixes and suffixes."""
    names = [f"{namespace}|wng|{w}" for w in words]
    names += [f"{namespace}|wng|{a} {b}" for a, b in zip(words, words[1:])]
    for w in words:
        for n in PREFIX_SIZES:
            if len(w) >= n:
                names += (f"{namespace}|pre|{w[:n]}", f"{namespace}|suf|{w[-n:]}")
    fv.entries.update(dict.fromkeys(names, 1.0))


def _lexicon_stats(
    fv: FeatureVector, prefix: str, scores: list[float], matched: list[bool]
) -> None:
    hit = [s for s, m in zip(scores, matched) if m]
    if not hit:
        return
    fv.set(f"{prefix}|cnt", sum(1 for s in hit if s > 0))
    fv.set(f"{prefix}|sum", sum(hit))
    fv.set(f"{prefix}|max", max(hit))
    last = 0.0
    for s in hit:
        if s != 0:
            last = s
    fv.set(f"{prefix}|last", last)


def _lookup_all(
    lexicon: Lexicon, words: Sequence[str]
) -> list[tuple[list[float], list[bool]]]:
    """Per affect, in ``lexicon.affects`` order: word scores and matches.

    A word takes each affect's score from its ``uni:`` term, else from
    its plain term; absent scores read 0.0 and unmatched.  Empty when no
    word has an entry, since unmatched scores add no feature.
    """
    table = lexicon.unit_scores("uni")
    rows = [table.get(w) for w in words]
    if rows.count(None) == len(rows):
        return []
    out = []
    for k in range(len(lexicon.affects)):
        found = [None if row is None else row[k] for row in rows]
        out.append(
            ([0.0 if s is None else s for s in found], [s is not None for s in found])
        )
    return out


def _negation_position(ctx: TermContext, words_lower: list[str]) -> int | None:
    """Flip origin in target-word coordinates, or None without negation.

    -1 means the token immediately before the target negates; otherwise
    the index of the first negation word inside the (split) target.
    """
    negation_words = default_negation_words()
    if ctx.left and ctx.left[-1].surface.lower() in negation_words:
        return -1
    for i, w in enumerate(words_lower):
        if w in negation_words:
            return i
    return None


def _target_features(
    fv: FeatureVector,
    ctx: TermContext,
    lexicons: Sequence[Lexicon],
    split_words: frozenset[str],
) -> None:
    words = _target_words(ctx.target, split_words)
    lower = [w.lower() for w in words]

    _word_features(fv, "tgt", lower)
    if lower:
        fv.set("tgt|full|" + " ".join(lower), 1)
        fv.set(f"tgt|lead1|{lower[0]}", 1)
        fv.set(f"tgt|end1|{lower[-1]}", 1)
    if len(lower) >= 2:
        fv.set(f"tgt|lead2|{lower[0]} {lower[1]}", 1)
        fv.set(f"tgt|end2|{lower[-2]} {lower[-1]}", 1)

    if any(t.elongated for t in ctx.target):
        fv.set("tgt|elo", 1)

    emoticons = [t for t in ctx.target if t.kind == "emoticon"]
    fv.set("tgt|emo|count", len(emoticons))
    for t in emoticons:
        polarity = emoticon_polarity(t.surface)
        if polarity:
            fv.set(f"tgt|emo|{polarity}", 1)

    for t in ctx.target:
        if t.kind == "punctuation":
            fv.set(f"tgt|pnc|{t.surface}", 1)

    lettered = [t for t in ctx.target if any(c.isalpha() for c in t.surface)]
    if lettered and all(t.initial_cap for t in lettered):
        fv.set("tgt|caps|init_all", 1)
    if lettered and all(t.all_caps for t in lettered):
        fv.set("tgt|caps|all", 1)

    stopwords = default_stopwords()
    if lower and all(w in stopwords for w in lower):
        fv.set("tgt|stop|only", 1)
        bucket = str(len(lower)) if len(lower) <= 3 else "more"
        fv.set(f"tgt|stop|n{bucket}", 1)

    fv.set("tgt|len|words", len(words))
    if words:
        fv.set("tgt|len|avgchars", sum(len(w) for w in words) / len(words))
    if any(len(w) >= LONG_WORD_LEN for w in words):
        fv.set("tgt|len|long", 1)

    flip_pos = _negation_position(ctx, lower)
    if flip_pos is not None:
        fv.set("tgt|neg", 1)

    if ctx.at_begin:
        fv.set("tgt|pos|begin", 1)
    if ctx.at_end:
        fv.set("tgt|pos|end", 1)
    if not ctx.at_begin and not ctx.at_end:
        fv.set("tgt|pos|middle", 1)

    for lexicon in lexicons:
        looked_up = zip(lexicon.affects, _lookup_all(lexicon, lower))
        for affect, (scores, matched) in looked_up:
            if flip_pos is not None:
                scores = flip_term_polarity(scores, flip_pos)
            _lexicon_stats(fv, f"tgt|lex|{lexicon.name}|{affect}", scores, matched)

    if any(t.kind == "mention" for t in ctx.target):
        fv.set("tgt|has_user", 1)
    if any(t.kind == "url" for t in ctx.target):
        fv.set("tgt|has_url", 1)


def _context_features(
    fv: FeatureVector, ctx: TermContext, lexicons: Sequence[Lexicon]
) -> None:
    left = [t.surface.lower() for t in ctx.left]
    right = [t.surface.lower() for t in ctx.right]
    _word_features(fv, "ctx", left)
    _word_features(fv, "ctx", right)

    in_order = left + right
    for lexicon in lexicons:
        looked_up = zip(lexicon.affects, _lookup_all(lexicon, in_order))
        for affect, (scores, matched) in looked_up:
            _lexicon_stats(fv, f"ctx|lex|{lexicon.name}|{affect}", scores, matched)


def extract_term_features(
    inst: TermInstance,
    lexicons: Sequence[Lexicon] = (),
    split_words: frozenset[str] | None = None,
    config: TermFeatureConfig = DEFAULT_TERM_CONFIG,
) -> FeatureVector:
    """Extract target and context features for one term instance.

    ``split_words`` defaults to :func:`build_split_vocabulary` of
    ``lexicons``.
    """
    if split_words is None:
        split_words = build_split_vocabulary(lexicons)

    ctx = term_context(inst)
    fv = FeatureVector()
    if config.target:
        _target_features(fv, ctx, lexicons, split_words)
    if config.context:
        _context_features(fv, ctx, lexicons)
    return fv
