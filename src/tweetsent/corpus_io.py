"""Readers and writers for the toolkit's on-disk formats.

Every file is UTF-8 text with one row per line and tab-separated
columns.  Lines may end in LF, CRLF or CR.  Blank lines, and lines whose
first non-blank character is ``#``, are skipped.  A row with another
number of columns than its format's is an error; where the last column
is text (plain messages, raw rows and term instances), it takes any
further tabs.

Message corpus::

    id<TAB>label<TAB>text

Pre-tagged message corpus (``format="tagged"``) has exactly four
columns, the fourth holding ``surface/TAG`` pairs separated by whitespace::

    id<TAB>label<TAB>text<TAB>Good/A day/N !/,

Term corpus (``start`` and ``end`` are inclusive token indices into the
toolkit's own tokenization of the normalized text)::

    id<TAB>start<TAB>end<TAB>label<TAB>text

Sentiment lexicon (scores are finite reals)::

    term<TAB>affect<TAB>score

Terms are unigrams, optionally prefixed ``uni:``; bigrams ``bi:A B``;
and pairs ``pair:A---B``, whose parts ``A`` and ``B`` are unigrams or
space-joined bigrams.

Cluster map (one id per token, matched against lowercased surfaces)::

    token<TAB>cluster-id

Seed set for lexicon induction (:func:`load_seed_set`), one hashtag per line
written without its ``#``, since a line starting with ``#`` is a
comment; ``#`` plus the lowercased word must tokenize as one hashtag::

    hashtag<TAB>positive|negative

Labels are exactly ``positive``, ``negative`` or ``neutral``.  Literal
tabs inside message text are escaped as ``\\t`` (and backslash as
``\\\\``); the loaders undo the escaping.  The writers raise
``ValueError``, before opening the file, for a row that would not read
back as written: a line break in any field, a tab outside the text
column, or a line that would be blank or a comment.

Messages and term instances are tokenized once, when they are built.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .tokenizer import TokenizedMessage, normalize, tokenize, tokens_from_tagged

# Fixed class order used for model weights, reports and tie-breaking.
CLASS_ORDER = ("negative", "neutral", "positive")

POSITIVE = "positive"
NEGATIVE = "negative"

# Joins the two parts of a pair term.
PAIR_SEPARATOR = "---"


class CorpusFormatError(ValueError):
    """Raised when an input file does not match its documented format."""


class MissingClassError(ValueError):
    """Raised when training or induction input has no example of a class."""


@dataclass(frozen=True)
class LabeledMessage:
    """One message with a gold polarity label.

    ``tagged`` holds (surface, pos-tag) pairs when the corpus was produced
    by an external tagger; ``None`` means the toolkit tokenizes ``text``
    itself.  ``tokens`` is computed once on construction: the tagged
    tokens as given, else the tokenization of the normalized text.
    """

    id: str
    text: str
    label: str
    tagged: tuple[tuple[str, str], ...] | None = None
    tokens: TokenizedMessage = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.tagged is not None:
            tokens = tokens_from_tagged(self.tagged)
        else:
            tokens = tokenize(normalize(self.text))
        object.__setattr__(self, "tokens", tokens)


@dataclass(frozen=True)
class TermInstance:
    """A labeled token span inside a message.

    ``start`` and ``end`` are inclusive indices into ``tokens``, the
    tokenization of the normalized message text, which is computed once
    on construction.  A span outside it raises ``ValueError``.
    """

    id: str
    text: str
    label: str
    start: int
    end: int
    tokens: TokenizedMessage = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        tokens = tokenize(normalize(self.text))
        n_tokens = len(tokens.tokens)
        if not 0 <= self.start <= self.end < n_tokens:
            raise ValueError(
                f"span [{self.start}, {self.end}] of instance '{self.id}' out of "
                f"range for {n_tokens} tokens"
            )
        object.__setattr__(self, "tokens", tokens)


@dataclass(frozen=True)
class Lexicon:
    """A sentiment lexicon mapping terms to per-affect real scores.

    ``entries`` maps term -> affect -> score.  ``kind`` distinguishes
    hand-built lexicons ("manual") from corpus-induced ones ("auto"),
    which ablation experiments toggle separately.

    ``tables``, built on first use, maps each namespace the lexicon has
    ("uni", "bi", "pair", in that order; unprefixed terms and unknown
    prefixes are unigrams) to rows of one score per affect, None where a
    term lacks the affect.  "uni" and "bi" map unit text to a row; any
    term matches a unigram's plain surface, and a ``uni:`` term's affects
    come before the unprefixed term's.  "pair" maps a pair ``A---B`` by
    head ``A``, then by tail ``B``, so no pair text is built; a key splits
    at every separator, since a part may hold a ``---`` token.
    """

    name: str
    affects: tuple[str, ...]
    entries: dict[str, dict[str, float]] = field(default_factory=dict)
    kind: str = "manual"

    @cached_property
    def tables(self) -> dict[str, dict]:
        tables: dict[str, dict] = {"uni": {}, "bi": {}, "pair": {}}
        found = set()
        width = len(PAIR_SEPARATOR)
        for term, by_affect in self.entries.items():
            row = tuple(map(by_affect.get, self.affects))
            # A uni: term's row, set before or after, wins over this one.
            tables["uni"].setdefault(term, row)
            namespace, sep, text = term.partition(":")
            if not sep or namespace not in tables:
                found.add("uni")
                continue
            found.add(namespace)
            if namespace == "uni":
                by_affect = {**self.entries.get(text, {}), **by_affect}
                tables["uni"][text] = tuple(map(by_affect.get, self.affects))
            elif namespace == "bi":
                tables["bi"][text] = row
            else:
                at = text.find(PAIR_SEPARATOR)
                while at != -1:
                    tables["pair"].setdefault(text[:at], {})[text[at + width :]] = row
                    at = text.find(PAIR_SEPARATOR, at + 1)
        return {ns: table for ns, table in tables.items() if ns in found}

    @cached_property
    def pair_tails(self) -> frozenset[str]:
        """Texts that occur as the second part of a pair, at any split."""
        return frozenset().union(*self.tables.get("pair", {}).values())

    @classmethod
    def from_word_lists(
        cls,
        name: str,
        positive_words: list[str],
        negative_words: list[str],
    ) -> "Lexicon":
        """Build a polarity lexicon from plain word lists.

        Polarity-only resources carry no magnitudes, so positive words
        score +1.0 under ``positive`` and negative words -1.0 under
        ``negative``.
        """
        entries: dict[str, dict[str, float]] = {}
        for w in positive_words:
            entries.setdefault(w.lower(), {})[POSITIVE] = 1.0
        for w in negative_words:
            entries.setdefault(w.lower(), {})[NEGATIVE] = -1.0
        return cls(name=name, affects=(POSITIVE, NEGATIVE), entries=entries)


@dataclass(frozen=True)
class SeedSet:
    """Hashtags whose presence pseudo-labels a message.

    Stored lowercase with a leading ``#``.
    """

    positive: frozenset[str]
    negative: frozenset[str]

    @classmethod
    def from_words(cls, positive: Iterable[str], negative: Iterable[str]) -> "SeedSet":
        def canon(ws):
            return frozenset(
                w if w.startswith("#") else "#" + w for w in (x.lower() for x in ws)
            )

        return cls(positive=canon(positive), negative=canon(negative))


def _rows(
    path: Path, fields: int, rest: bool = False
) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each row of ``path``, per the module's rules.

    The whole file is read, so a file that is not UTF-8 fails before any
    row does.  Each row must have ``fields`` fields; with ``rest`` the
    last one keeps any further tabs.
    """
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise CorpusFormatError(f"not valid UTF-8 text in {path}") from None
    maxsplit = fields - 1 if rest else -1
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t", maxsplit)
        if len(parts) != fields:
            raise CorpusFormatError(
                f"expected {fields} tab-separated fields at line {lineno} of {path}, "
                f"got {len(parts)}"
            )
        yield lineno, parts


# Backslash escapes, read left to right, so "\\t" is a backslash and t.
_ESCAPE = re.compile(r"\\([t\\])")
_UNESCAPED = {"t": "\t", "\\": "\\"}


def _unescape_text(text: str) -> str:
    if "\\" not in text:
        return text
    return _ESCAPE.sub(lambda m: _UNESCAPED[m.group(1)], text)


def _check_label(label: str, lineno: int, path: Path) -> str:
    if label not in CLASS_ORDER:
        raise CorpusFormatError(f"unknown label '{label}' at line {lineno} of {path}")
    return label


def _parse_tagged_column(
    column: str, lineno: int, path: Path
) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in column.split():
        surface, sep, tag = chunk.rpartition("/")
        if not sep or not surface or not tag:
            raise CorpusFormatError(
                f"malformed surface/TAG pair '{chunk}' at line {lineno} of {path}"
            )
        pairs.append((surface, tag))
    if not pairs:
        raise CorpusFormatError(f"empty tagged-token column at line {lineno} of {path}")
    return tuple(pairs)


def load_message_corpus(path: str | Path, format: str = "plain") -> list[LabeledMessage]:
    """Load a message corpus.

    ``format`` is ``"plain"`` (three columns, the text taking any
    further tabs) or ``"tagged"`` (exactly four columns, the last holding
    ``surface/TAG`` pairs).
    """
    if format not in ("plain", "tagged"):
        raise ValueError(f"unknown corpus format '{format}'")
    path = Path(path)
    messages = []
    rows = _rows(path, 3, rest=True) if format == "plain" else _rows(path, 4)
    for lineno, parts in rows:
        if format == "plain":
            msg_id, label, text = parts
            tagged = None
        else:
            msg_id, label, text, tagged_col = parts
            tagged = _parse_tagged_column(tagged_col, lineno, path)
        messages.append(
            LabeledMessage(
                id=msg_id,
                text=_unescape_text(text),
                label=_check_label(label, lineno, path),
                tagged=tagged,
            )
        )
    return messages


def load_raw_corpus(path: str | Path) -> list[tuple[str, str]]:
    """Load an unlabeled corpus of ``id<TAB>text`` lines.

    Used as input for lexicon induction, where labels come from hashtag
    or emoticon pseudo-labeling rather than annotation.
    """
    return [
        (row_id, _unescape_text(text))
        for _, (row_id, text) in _rows(Path(path), 2, rest=True)
    ]


def load_term_corpus(path: str | Path) -> list[TermInstance]:
    """Load a term corpus; every span must lie inside its tokenized text."""
    path = Path(path)
    instances = []
    for lineno, (inst_id, start_s, end_s, label, text) in _rows(path, 5, rest=True):
        try:
            start, end = int(start_s), int(end_s)
        except ValueError:
            raise CorpusFormatError(
                f"non-integer span bounds at line {lineno} of {path}: "
                f"{start_s!r}, {end_s!r}"
            ) from None
        try:
            inst = TermInstance(inst_id, _unescape_text(text), label, start, end)
        except ValueError as err:
            raise CorpusFormatError(f"{err} (line {lineno} of {path})") from None
        _check_label(label, lineno, path)
        instances.append(inst)
    return instances


def load_lexicon(path: str | Path, name: str | None = None, kind: str = "manual") -> Lexicon:
    """Load a ``term<TAB>affect<TAB>score`` lexicon.

    Scores must be finite.  Duplicate (term, affect) rows keep the last
    value and emit a warning.  ``name`` defaults to the file stem.
    """
    path = Path(path)
    entries: dict[str, dict[str, float]] = {}
    affects: list[str] = []
    for lineno, (term, affect, score_s) in _rows(path, 3):
        try:
            score = float(score_s)
        except ValueError:
            raise CorpusFormatError(
                f"non-numeric score {score_s!r} at line {lineno} of {path}"
            ) from None
        if not math.isfinite(score):
            raise CorpusFormatError(
                f"non-finite score {score_s!r} at line {lineno} of {path}"
            )
        by_affect = entries.setdefault(term, {})
        if affect in by_affect:
            warnings.warn(
                f"duplicate lexicon entry ({term!r}, {affect!r}) at line {lineno} "
                f"of {path}; keeping the last value",
                stacklevel=2,
            )
        by_affect[affect] = score
        if affect not in affects:
            affects.append(affect)
    return Lexicon(
        name=name if name is not None else path.stem,
        affects=tuple(affects),
        entries=entries,
        kind=kind,
    )


def _write_rows(
    path: str | Path, items: Sequence, fields: Callable, header: Sequence[str] = ()
) -> None:
    """Write the ``header`` lines, then ``fields(item)`` tab-joined per
    item, after checking every line, 64 at a time, before opening the file."""
    if any("\n" in line or "\r" in line for line in header):
        raise ValueError(f"header {header!r} holds a line break")
    blocks = [line + "\n" for line in header]
    for s in range(0, len(items), 64):
        rows = list(map(fields, items[s : s + 64]))
        lines = list(map("\t".join, rows))
        blocks.append("\n".join(lines) + "\n")
        if sum(map(blocks[-1].count, "\t\n\r")) == sum(map(len, rows)) and all(
            line.lstrip()[:1] not in ("", "#") for line in lines
        ):
            continue
        for row, line in zip(rows, lines):
            if "\n" in line or "\r" in line or line.count("\t") >= len(row):
                raise ValueError(f"row {row!r} holds a tab or line break in a field")
            if line.lstrip()[:1] in ("", "#"):
                raise ValueError(f"row {row!r} would read as a blank or comment line")
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(blocks)


def write_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Write a lexicon sorted by (term, affect) with 6-decimal scores.

    An empty lexicon produces a header-only file.  Scores round-trip
    through :func:`load_lexicon` to within 1e-6.
    """
    entries = lexicon.entries.items()
    rows = sorted((t, a, f"{v:.6f}") for t, by in entries for a, v in by.items())
    header = (f"# lexicon: {lexicon.name}", f"# affects: {' '.join(lexicon.affects)}")
    _write_rows(path, rows, tuple, header)


def _escape_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t")


def write_message_corpus(messages: list[LabeledMessage], path: str | Path) -> None:
    """Write a plain three-column message corpus."""
    _write_rows(path, messages, lambda m: (m.id, m.label, _escape_text(m.text)))


def write_term_corpus(instances: list[TermInstance], path: str | Path) -> None:
    """Write a five-column term corpus."""
    _write_rows(path, instances, lambda t: (
        t.id, str(t.start), str(t.end), t.label, _escape_text(t.text)))


def write_raw_corpus(rows: list[tuple[str, str]], path: str | Path) -> None:
    """Write an unlabeled two-column corpus."""
    _write_rows(path, rows, lambda row: (row[0], _escape_text(row[1])))


def load_cluster_map(path: str | Path) -> dict[str, int]:
    """Load a ``token<TAB>cluster-id`` map, one id in [0, 999] per token.

    Tokens are matched against lowercased surfaces.
    """
    path = Path(path)
    entries: dict[str, int] = {}
    for lineno, (token, cluster_s) in _rows(path, 2):
        try:
            cluster = int(cluster_s)
        except ValueError:
            raise CorpusFormatError(
                f"non-integer cluster id {cluster_s!r} at line {lineno} of {path}"
            ) from None
        if not 0 <= cluster <= 999:
            raise CorpusFormatError(
                f"cluster id {cluster} out of range [0, 999] at line {lineno} of {path}"
            )
        if entries.setdefault(token, cluster) != cluster:
            raise CorpusFormatError(
                f"token {token!r} is listed with cluster ids {entries[token]} and "
                f"{cluster} at line {lineno} of {path}"
            )
    return entries


def load_seed_set(path: str | Path) -> SeedSet:
    """Load seeds from ``hashtag<TAB>positive|negative`` lines.

    ``#`` plus the lowercased seed must tokenize as that one hashtag, or
    no message could ever match it.  A seed listed under both
    polarities, in any case, is an error: every message it tags would
    carry conflicting seeds and be dropped.
    """
    path = Path(path)
    polarity_of: dict[str, str] = {}
    for lineno, (term, polarity) in _rows(path, 2):
        tag = "#" + term.lower()
        if [(t.kind, t.surface) for t in tokenize(tag).tokens] != [("hashtag", tag)]:
            raise CorpusFormatError(
                f"seed '{term}' is not one hashtag word at line {lineno} of {path}"
            )
        if polarity not in (POSITIVE, NEGATIVE):
            raise CorpusFormatError(
                f"seed polarity must be positive or negative at line {lineno} "
                f"of {path}, got '{polarity}'"
            )
        if polarity_of.setdefault(tag, polarity) != polarity:
            raise CorpusFormatError(
                f"seed '{term}' is listed as both positive and negative at line "
                f"{lineno} of {path}"
            )
    return SeedSet.from_words(
        (tag for tag, p in polarity_of.items() if p == POSITIVE),
        (tag for tag, p in polarity_of.items() if p == NEGATIVE),
    )
