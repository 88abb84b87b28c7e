"""Negated-context detection and polarity flipping.

A negation word opens a context starting at the next token.  The
context closes before the first later token whose surface contains one
of ``, . : ; ! ?`` or at the end of the message, whichever comes first.
Contexts never nest: negation words inside an open context do not start
a new one.  Empty contexts (negation word directly followed by clause
punctuation or the message end) are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .wordlists import default_negation_words

NEG_SUFFIX = "_NEG"

_CLAUSE_PUNCTUATION = set(",.:;!?")


def _closes_context(surface: str) -> bool:
    return any(c in _CLAUSE_PUNCTUATION for c in surface)


@dataclass(frozen=True)
class NegationAnnotation:
    """Inclusive [start, end] token spans of negated contexts.

    Each span starts at the token right after its negation word.
    """

    spans: tuple[tuple[int, int], ...]

    @property
    def count(self) -> int:
        """The number of negated contexts."""
        return len(self.spans)

    def in_scope(self, index: int) -> bool:
        return any(start <= index <= end for start, end in self.spans)

    def scope_flags(self, length: int) -> list[bool]:
        """``in_scope(i)`` for every ``i`` below ``length``, in one pass."""
        flags = [False] * length
        for start, end in self.spans:
            lo, hi = max(start, 0), min(end + 1, length)
            if lo < hi:
                flags[lo:hi] = [True] * (hi - lo)
        return flags


EMPTY_ANNOTATION = NegationAnnotation(spans=())


def mark_negation(surfaces: Sequence[str]) -> NegationAnnotation:
    """Find negated-context spans over a message's token surfaces.

    Negation words come from the bundled list and match
    case-insensitively.
    """
    negation_words = default_negation_words()
    spans: list[tuple[int, int]] = []
    open_start: int | None = None
    for i, surface in enumerate(surfaces):
        if open_start is not None and _closes_context(surface):
            if open_start < i:
                spans.append((open_start, i - 1))
            open_start = None
        if open_start is None and surface.lower() in negation_words:
            open_start = i + 1
    if open_start is not None and open_start < len(surfaces):
        spans.append((open_start, len(surfaces) - 1))
    return NegationAnnotation(spans=tuple(spans))


def apply_negation_suffix(
    surfaces: Sequence[str], annotation: NegationAnnotation
) -> list[str]:
    """Append ``_NEG`` to every surface inside a negated context."""
    return [
        s + NEG_SUFFIX if negated else s
        for s, negated in zip(surfaces, annotation.scope_flags(len(surfaces)))
    ]


def flip_term_polarity(scores: list[float], position_of_negation: int) -> list[float]:
    """Multiply scores strictly after the negation position by -1.

    ``position_of_negation`` is the index of the negation word within
    the scored token list, or -1 when the negation word sits immediately
    before it (flipping everything).  Applying the flip twice restores
    the input.
    """
    return [
        -s if i > position_of_negation else s for i, s in enumerate(scores)
    ]
