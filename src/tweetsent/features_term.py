"""Sparse feature extraction for labeled token spans (terms).

Target features describe the span itself under the ``tgt|`` namespace;
context features describe up to four tokens on either side under
``ctx|``.  Hashtag tokens inside the target are split into words before
any target feature is computed.

Lexicon statistics are emitted per (scope, lexicon, affect) as
``<tgt/ctx>|lex|<name>|<affect>|<stat>``, over the scores of the words
that the lexicon scores for that affect.  A word takes each affect's
score from its ``uni:`` term, else from its plain term.  When a
negation word occurs right before or inside the target, the target
scores of every word after it are flipped first.  The four stats are
``cnt`` (scores above zero), ``sum``, ``max`` (over all matched
scores, so it can be negative) and ``last`` (the last non-zero score).

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
from functools import lru_cache
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


# Context tokens per side of the target.
CONTEXT_WINDOW = 4
# A target word this many characters long sets ``tgt|len|long``.
LONG_WORD_LEN = 8
# Lengths of the word prefixes and suffixes.
PREFIX_SIZES = (2, 3)
# Distinct (namespace, word) pairs whose prefix and suffix names are
# memoized.  A word of 5-9 letters takes about 0.5 KB, so a full memo
# holds about 4 MB.
AFFIX_MEMO = 8192


def term_context(inst: TermInstance) -> TermContext:
    """Cut the target span and up to :data:`CONTEXT_WINDOW` tokens per side."""
    tokens = inst.tokens.tokens
    start, end = inst.start, inst.end
    return TermContext(
        target=tokens[start : end + 1],
        left=tokens[max(0, start - CONTEXT_WINDOW) : start],
        right=tokens[end + 1 : end + 1 + CONTEXT_WINDOW],
        at_begin=start == 0,
        at_end=end == len(tokens) - 1,
    )


def build_split_vocabulary(lexicons: Sequence[Lexicon]) -> frozenset[str]:
    """Hashtag-splitting vocabulary: bundled words plus lexicon unigrams."""
    words = set(default_hashtag_words())
    for lexicon in lexicons:
        for term in lexicon.entries:
            bare = term[4:] if term.startswith("uni:") else term
            if bare.isalpha():
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


@lru_cache(maxsize=AFFIX_MEMO)
def _affixes(namespace: str, word: str, sizes: tuple[int, ...]) -> tuple[str, ...]:
    """``pre|`` and ``suf|`` names of one word, by size."""
    names: list[str] = []
    for n in sizes:
        if len(word) >= n:
            names += (f"{namespace}|pre|{word[:n]}", f"{namespace}|suf|{word[-n:]}")
    return tuple(names)


def _word_features(fv: FeatureVector, namespace: str, words: Sequence[str]) -> None:
    """Binary word unigrams, bigrams and 2/3-character prefixes and suffixes."""
    names = [f"{namespace}|wng|{w}" for w in words]
    names += [f"{namespace}|wng|{a} {b}" for a, b in zip(words, words[1:])]
    for w in words:
        names += _affixes(namespace, w, PREFIX_SIZES)
    fv.entries.update(dict.fromkeys(names, 1.0))


def _lexicon_features(
    fv: FeatureVector,
    prefix: str,
    lexicon: Lexicon,
    words: Sequence[str],
    flip_pos: int | None = None,
) -> None:
    """Add ``<prefix>|<affect>|<stat>`` for each affect that a word matches.

    With ``flip_pos``, the scores of the words after that position are
    flipped first.
    """
    table = lexicon.tables.get("uni", {})
    signs = [1.0] * len(words)
    if flip_pos is not None:
        signs = flip_term_polarity(signs, flip_pos)
    hits = [
        (sign, row)
        for sign, word in zip(signs, words)
        if (row := table.get(word)) is not None
    ]
    for k, affect in enumerate(lexicon.affects):
        scores = [sign * row[k] for sign, row in hits if row[k] is not None]
        if scores:
            name = f"{prefix}|{affect}"
            fv.set(f"{name}|cnt", sum(1 for s in scores if s > 0))
            fv.set(f"{name}|sum", sum(scores))
            fv.set(f"{name}|max", max(scores))
            fv.set(f"{name}|last", next((s for s in reversed(scores) if s), 0.0))


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
        _lexicon_features(fv, f"tgt|lex|{lexicon.name}", lexicon, lower, flip_pos)

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

    for lexicon in lexicons:
        _lexicon_features(fv, f"ctx|lex|{lexicon.name}", lexicon, left + right)


def extract_term_features(
    inst: TermInstance,
    lexicons: Sequence[Lexicon],
    split_words: frozenset[str],
) -> FeatureVector:
    """Extract target and context features for one term instance.

    ``split_words`` is the hashtag-splitting vocabulary, which
    ``pipeline.extract_term_vectors`` builds once per corpus with
    :func:`build_split_vocabulary`.
    """
    ctx = term_context(inst)
    fv = FeatureVector()
    _target_features(fv, ctx, lexicons, split_words)
    _context_features(fv, ctx, lexicons)
    return fv
