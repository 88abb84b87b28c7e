"""Tweet-aware tokenizer.

The scanner partitions all non-whitespace text into tokens, trying the
alternatives below in order at each position:

1. URLs (normalized form first, so ``http://someurl`` stays whole)
2. Western emoticons, forward (``:-)``) and reversed (``(-:``)
3. @-mentions and #hashtags, kept whole
4. numbers with internal separators (``3.5``, ``1,200``)
5. words: letters/digits with internal apostrophes or hyphens
   (``don't``, ``well-known``, ``2day``)
6. maximal runs of ASCII punctuation (``!!!``, ``?!``)
7. any other single character

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
from dataclasses import dataclass, field

URL_PLACEHOLDER = "http://someurl"
USER_PLACEHOLDER = "@someuser"

# Eyes, optional nose, mouth; reversed form runs mouth to eyes.  Mouth
# characters with a curl direction carry the polarity.
_EMOTICON = r"""
    (?:
      [<>]?
      [:;=8]                     # eyes
      [\-o\*']?                  # optional nose
      [\)\]\(\[dDpP/\\:\}\{@\|]  # mouth
      |
      [\)\]\(\[dDpP/\\:\}\{@\|]  # mouth (reversed form)
      [\-o\*']?
      [:;=8]
      [<>]?
    )"""

_FORWARD_EMOTICON = r"[<>]?[:;=8][\-o\*']?[\)\]\(\[dDpP/\\:\}\{@\|]"

_TOKEN_RE = re.compile(
    r"""
    (?P<url>https?://\S+|www\.\S+)
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
    (?P<punctuation>[!-/:-@\[-`\{-~]+)
    |
    (?P<other>\S)
    """
    % _EMOTICON,
    re.VERBOSE | re.UNICODE,
)

_EMOTICON_FULL_RE = re.compile("(?:%s)$" % _EMOTICON, re.VERBOSE)
_FORWARD_FULL_RE = re.compile("(?:%s)$" % _FORWARD_EMOTICON)

_URL_NORM_RE = re.compile(r"(?:https?://\S+|www\.\S+)")
# Negative lookbehind keeps e-mail-like "a@b" intact.
_USER_NORM_RE = re.compile(r"(?<![\w@])@\w+")

_NT_SPLIT_RE = re.compile(r"(\w+)([nN]'[tT])$")
_ELONGATED_RE = re.compile(r"(.)\1{2,}")

_POSITIVE_MOUTHS = set(")]}dD")
_NEGATIVE_MOUTHS = set("([{/\\|")

# Mirror table for emoticons written mouth-first.
_MIRROR = str.maketrans("()[]{}<>", ")(][}{><")


@dataclass
class Token:
    """A single token with surface-level flags.

    all_caps requires at least two letters and no lowercase ones;
    elongated means some character repeats more than twice in a row;
    initial_cap marks capital-then-lowercase words.  ``pos_tag`` is
    filled from an optional sidecar input.
    """

    surface: str
    kind: str
    all_caps: bool = False
    elongated: bool = False
    initial_cap: bool = False
    pos_tag: str | None = None


@dataclass
class TokenizedMessage:
    tokens: list[Token] = field(default_factory=list)

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


def normalize(text: str) -> str:
    """Replace URLs and user mentions with fixed placeholders."""
    text = _URL_NORM_RE.sub(URL_PLACEHOLDER, text)
    return _USER_NORM_RE.sub(USER_PLACEHOLDER, text)


def _flags(surface: str) -> tuple[bool, bool, bool]:
    letters = [c for c in surface if c.isalpha()]
    all_caps = len(letters) >= 2 and not any(c.islower() for c in surface)
    elongated = _ELONGATED_RE.search(surface) is not None
    initial_cap = (
        bool(surface)
        and surface[0].isupper()
        and not any(c.isupper() for c in surface[1:])
        and any(c.islower() for c in surface)
    )
    return all_caps, elongated, initial_cap


def _make_token(surface: str, kind: str) -> Token:
    if kind == "word" and not (
        surface.isalnum() or any(c.isalnum() for c in surface)
    ):
        kind = "punctuation"
    if surface.islower():
        # A lowercase letter and no capital: neither all-caps nor
        # initial-cap.  Symbols such as U+24D0 are lowercase without being
        # alphanumeric, so the kind check above still runs.
        return Token(surface, kind, False, _ELONGATED_RE.search(surface) is not None)
    return Token(surface, kind, *_flags(surface))


def tokenize(text: str) -> TokenizedMessage:
    """Tokenize ``text``; see the module docstring for the grammar."""
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup or "other"
        surface = match.group()
        if kind == "other":
            kind = "word" if surface.isalnum() else "punctuation"
        if kind == "word" and "'" in surface:
            nt = _NT_SPLIT_RE.match(surface)
            if nt:
                tokens.append(_make_token(nt.group(1), "word"))
                tokens.append(_make_token(nt.group(2), "word"))
                continue
        tokens.append(_make_token(surface, kind))
    return TokenizedMessage(tokens=tokens)


def tokens_from_tagged(pairs: tuple[tuple[str, str], ...]) -> TokenizedMessage:
    """Build a token sequence from externally tagged (surface, tag) pairs.

    The external tool's tokenization is kept as-is; kinds and flags are
    recomputed from the surfaces.
    """
    tokens = []
    for surface, tag in pairs:
        kind = _classify_surface(surface)
        token = _make_token(surface, kind)
        token.pos_tag = tag
        tokens.append(token)
    return TokenizedMessage(tokens=tokens)


def _classify_surface(surface: str) -> str:
    match = _TOKEN_RE.match(surface)
    if match and match.group() == surface and match.lastgroup:
        return match.lastgroup if match.lastgroup != "other" else "word"
    return "word"


def is_emoticon(surface: str) -> bool:
    """True when the whole surface matches the emoticon grammar."""
    return _EMOTICON_FULL_RE.match(surface) is not None


def emoticon_polarity(surface: str) -> str | None:
    """Polarity of an emoticon by mouth curl, or None.

    Forward emoticons read eyes-nose-mouth; mouths in ``)]}dD`` smile
    and mouths in ``([{/\\|`` frown.  Reversed emoticons are mirrored
    (``(:`` becomes ``:)``) before the same rule applies.  Mouths like
    ``p`` or ``@`` carry no polarity.
    """
    if not _EMOTICON_FULL_RE.match(surface):
        return None
    if not _FORWARD_FULL_RE.match(surface):
        surface = surface[::-1].translate(_MIRROR)
        if not _FORWARD_FULL_RE.match(surface):
            return None
    mouth = surface[-1]
    if mouth in _POSITIVE_MOUTHS:
        return "positive"
    if mouth in _NEGATIVE_MOUTHS:
        return "negative"
    return None


def split_hashtag(tag: str, wordlist: set[str]) -> list[str]:
    """Split a hashtag into words by greedy longest-prefix matching.

    The leading ``#`` is stripped.  At each position the longest
    wordlist entry matching a prefix is taken; characters covered by no
    entry accumulate into a single residue token.  Concatenating the
    result always reproduces the hashtag minus ``#``.
    """
    body = tag.lstrip("#")
    if not body:
        return []
    lowered = body.lower()
    max_len = max((len(w) for w in wordlist), default=0)
    parts: list[str] = []
    residue_start = None
    i = 0
    while i < len(body):
        match_len = 0
        for length in range(min(max_len, len(body) - i), 0, -1):
            if lowered[i : i + length] in wordlist:
                match_len = length
                break
        if match_len:
            if residue_start is not None:
                parts.append(body[residue_start:i])
                residue_start = None
            parts.append(body[i : i + match_len])
            i += match_len
        else:
            if residue_start is None:
                residue_start = i
            i += 1
    if residue_start is not None:
        parts.append(body[residue_start:])
    return parts
