"""Tweet-aware tokenizer.

The scanner partitions all non-whitespace text into tokens, trying the
alternatives below in order at each position:

1. URLs (normalized form first, so ``http://someurl`` stays whole)
2. Western emoticons, forward (``:-)``) and reversed (``(-:``)
3. @-mentions and #hashtags, kept whole
4. numbers with internal separators (``3.5``, ``1,200``)
5. words: letters/digits with internal apostrophes or hyphens
   (``don't``, ``well-known``, ``2day``)
6. punctuation: maximal runs of ASCII punctuation (``!!!``, ``?!``),
   or any other single character (rule 5 takes every letter and digit)

Words ending in ``n't`` are split Penn-style into stem plus ``n't``
(``don't`` -> ``do``, ``n't``) so the contracted negation is its own
token.  Concatenating token surfaces always reproduces the input minus
whitespace, and re-tokenizing the space-joined surfaces reproduces the
same token sequence.

Normalization maps every URL to ``http://someurl`` and every user
mention to ``@someuser``; both replacements are idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

URL_PLACEHOLDER = "http://someurl"
USER_PLACEHOLDER = "@someuser"

# Eyes, optional nose, mouth; the reversed form runs mouth to eyes.
# Mouth characters with a curl direction carry the polarity.
_EYES = r"[:;=8]"
_NOSE = r"[\-o\*']?"
_MOUTH = r"[\)\]\(\[dDpP/\\:\}\{@\|]"
_FORWARD_EMOTICON = rf"[<>]?{_EYES}{_NOSE}{_MOUTH}"
_EMOTICON = rf"{_FORWARD_EMOTICON}|{_MOUTH}{_NOSE}{_EYES}[<>]?"
_URL = r"https?://\S+|www\.\S+"

# A capture group inside an alternative would slow the scanner.
_TOKEN_RE = re.compile(
    r"""
    (?P<url>%s)
    |
    (?P<emoticon>%s)
    |
    (?P<mention>@\w+)
    |
    (?P<hashtag>\#\w+)
    |
    (?P<number>[+\-]?\d+(?:[.,:/\-]\d+)+)
    |
    (?P<word>\w(?:\w|['\-]\w)*)
    |
    (?P<punctuation>[!-/:-@\[-`\{-~]+|\S)
    """
    % (_URL, _EMOTICON),
    re.VERBOSE | re.UNICODE,
)

_EMOTICON_FULL_RE = re.compile(rf"(?:{_EMOTICON})\Z")
_FORWARD_FULL_RE = re.compile(rf"{_FORWARD_EMOTICON}\Z")

_URL_NORM_RE = re.compile(_URL)
# Negative lookbehind keeps e-mail-like "a@b" intact.
_USER_NORM_RE = re.compile(r"(?<![\w@])@\w+")

_NT_SPLIT_RE = re.compile(r"(\w+)([nN]'[tT])$")
_ELONGATED_RE = re.compile(r"(.)\1{2,}")

_POSITIVE_MOUTHS = set(")]}dD")
_NEGATIVE_MOUTHS = set("([{/\\|")

# Mirror table for emoticons written mouth-first.
_MIRROR = str.maketrans("()[]{}<>", ")(][}{><")


@dataclass(slots=True)
class Token:
    """A single token with surface-level flags, built whole.

    all_caps requires at least two uppercase letters and no lowercase
    ones, so words of uncased scripts such as CJK never qualify;
    elongated means some character repeats more than twice in a row;
    initial_cap marks capital-then-lowercase words.  ``pos_tag`` comes
    from an optional sidecar input.  Fields stay assignable (a frozen
    class builds 4x slower); no package code sets one after construction.
    """

    surface: str
    kind: str
    all_caps: bool = False
    elongated: bool = False
    initial_cap: bool = False
    pos_tag: str | None = None


@dataclass(frozen=True)
class TokenizedMessage:
    """A message's tokens, in order, as an immutable tuple."""

    tokens: tuple[Token, ...]


def normalize(text: str) -> str:
    """Replace URLs and user mentions with fixed placeholders."""
    text = _URL_NORM_RE.sub(URL_PLACEHOLDER, text)
    return _USER_NORM_RE.sub(USER_PLACEHOLDER, text)


def _flags(surface: str) -> tuple[bool, bool, bool]:
    # Two cased capitals: uncased scripts (CJK, Arabic, ...) are never caps.
    capitals = sum(1 for c in surface if c.isupper())
    all_caps = capitals >= 2 and not any(c.islower() for c in surface)
    elongated = _ELONGATED_RE.search(surface) is not None
    initial_cap = (
        capitals == 1 and surface[0].isupper() and any(c.islower() for c in surface)
    )
    return all_caps, elongated, initial_cap


def _make_token(surface: str, kind: str, pos_tag: str | None = None) -> Token:
    # A "word" with no letter or digit, such as "_", is punctuation.
    if kind == "word" and not (surface.isalnum() or any(c.isalnum() for c in surface)):
        kind = "punctuation"
    if surface.islower():
        # A lowercase letter and no capital: neither all-caps nor
        # initial-cap.  Symbols such as U+24D0 are lowercase without being
        # alphanumeric, so the kind check above still runs.
        elongated = _ELONGATED_RE.search(surface) is not None
        return Token(surface, kind, False, elongated, False, pos_tag)
    return Token(surface, kind, *_flags(surface), pos_tag)


def tokenize(text: str) -> TokenizedMessage:
    """Tokenize ``text``; see the module docstring for the grammar."""
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        surface = match.group()
        if kind == "word" and "'" in surface:
            nt = _NT_SPLIT_RE.match(surface)
            if nt:
                tokens.append(_make_token(nt.group(1), "word"))
                tokens.append(_make_token(nt.group(2), "word"))
                continue
        tokens.append(_make_token(surface, kind))
    return TokenizedMessage(tuple(tokens))


def tokens_from_tagged(pairs: tuple[tuple[str, str], ...]) -> TokenizedMessage:
    """Build a token sequence from externally tagged (surface, tag) pairs.

    The external tool's tokenization is kept as-is; kinds and flags are
    recomputed from the surfaces.
    """
    return TokenizedMessage(
        tuple(_make_token(s, _classify_surface(s), tag) for s, tag in pairs)
    )


def _classify_surface(surface: str) -> str:
    match = _TOKEN_RE.match(surface)
    if match and match.group() == surface:
        return match.lastgroup
    return "word"


def is_emoticon(surface: str) -> bool:
    """True when the whole surface matches the emoticon grammar."""
    return _EMOTICON_FULL_RE.match(surface) is not None


def emoticon_polarity(surface: str) -> str | None:
    """Polarity of an emoticon by mouth curl, or None.

    The mouth is the last character of a forward emoticon
    (eyes-nose-mouth) and the mirrored first character of a reversed
    one (``(:`` reads as ``:)``).  Mouths in ``)]}dD`` smile and mouths
    in ``([{/\\|`` frown; mouths like ``p`` or ``@`` carry no polarity.
    """
    if not _EMOTICON_FULL_RE.match(surface):
        return None
    if _FORWARD_FULL_RE.match(surface):
        mouth = surface[-1]
    else:
        mouth = surface[0].translate(_MIRROR)
    if mouth in _POSITIVE_MOUTHS:
        return "positive"
    if mouth in _NEGATIVE_MOUTHS:
        return "negative"
    return None


def split_hashtag(tag: str, wordlist: set[str]) -> list[str]:
    """Split a hashtag into words by greedy longest-prefix matching.

    The leading ``#`` is stripped.  At each position the longest
    wordlist entry matching a lowercased prefix is taken (U+0130, whose
    lowercase is two characters, matches only itself); characters
    covered by no entry accumulate into a single residue token.
    Concatenating the result always reproduces the hashtag minus ``#``.
    """
    body = tag.lstrip("#")
    lowered = body.lower()
    if len(lowered) != len(body):  # keep offsets into ``lowered`` valid in ``body``
        lowered = "".join(c if len(c.lower()) > 1 else c.lower() for c in body)
    parts: list[str] = []
    start = i = 0  # body[start:i] is the run that no entry covers
    while i < len(body):
        for end in range(len(body), i, -1):
            if lowered[i:end] in wordlist:
                if start < i:
                    parts.append(body[start:i])
                parts.append(body[i:end])
                start = i = end
                break
        else:
            i += 1
    if start < len(body):
        parts.append(body[start:])
    return parts
