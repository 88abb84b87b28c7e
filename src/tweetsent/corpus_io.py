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
toolkit's own tokenization of the normalized text; each instance is
tokenized once, when it is built)::

    id<TAB>start<TAB>end<TAB>label<TAB>text

Sentiment lexicon (scores are finite reals)::

    term<TAB>affect<TAB>score

Terms are unigrams, optionally prefixed ``uni:``; bigrams ``bi:A B``;
and pairs ``pair:A---B``, whose parts ``A`` and ``B`` are unigrams or
space-joined bigrams.

Cluster map::

    token<TAB>cluster-id

Seed set for lexicon induction (:func:`load_seed_set`), one hashtag per line
written without its ``#``, since a line starting with ``#`` is a
comment; ``#`` plus the lowercased word must tokenize as one hashtag::

    hashtag<TAB>positive|negative

Labels are exactly ``positive``, ``negative`` or ``neutral``.  Literal
tabs inside message text are escaped as ``\\t`` (and backslash as
``\\\\``); the loaders undo the escaping.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

from .tokenizer import TokenizedMessage, normalize, tokenize

# Fixed class order used for model weights, reports and tie-breaking.
CLASS_ORDER = ("negative", "neutral", "positive")

POSITIVE = "positive"
NEGATIVE = "negative"

# Joins the two parts of a pair term.
PAIR_SEPARATOR = "---"


class CorpusFormatError(ValueError):
    """Raised when an input file does not match its documented format."""


@dataclass(frozen=True)
class LabeledMessage:
    """One message with a gold polarity label.

    ``tagged`` holds (surface, pos-tag) pairs when the corpus was produced
    by an external tagger; ``None`` means the toolkit tokenizes ``text``
    itself.
    """

    id: str
    text: str
    label: str
    tagged: tuple[tuple[str, str], ...] | None = None


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
    which ablation experiments toggle separately.  Unigrams and bigrams
    are looked up by their text in ``unit_scores``; a pair ``A---B`` is
    looked up by its head ``A`` and then its tail ``B`` in
    ``pair_table``, so no pair text is ever built for a lookup.
    """

    name: str
    affects: tuple[str, ...]
    entries: dict[str, dict[str, float]] = field(default_factory=dict)
    kind: str = "manual"

    def namespaces(self) -> frozenset[str]:
        """Term namespaces present: "uni", "bi", "pair".

        Unprefixed terms count as unigrams.
        """
        return self._unit_views[0]

    def unit_scores(self, namespace: str) -> dict[str, tuple[float | None, ...]]:
        """Scores of the ``namespace`` units, keyed by unprefixed unit text.

        Each value holds one score per affect in ``affects`` order, None
        where the term lacks that affect.  A ``bi`` or ``pair`` unit is
        the term under its ``bi:`` or ``pair:`` prefix.  A ``uni`` unit
        takes each affect from its ``uni:`` term and, where that term is
        absent or lacks the affect, from the unprefixed term.
        """
        return self._unit_views[1][namespace]

    # Entries are fixed after construction, so the views below are built
    # on first use and kept.

    @cached_property
    def _unit_views(
        self,
    ) -> tuple[frozenset[str], dict[str, dict[str, tuple[float | None, ...]]]]:
        rows = {
            term: tuple(map(by_affect.get, self.affects))
            for term, by_affect in self.entries.items()
        }
        # Any term can match a unigram's plain-surface lookup.
        tables: dict[str, dict[str, tuple[float | None, ...]]] = {
            "uni": dict(rows),
            "bi": {},
            "pair": {},
        }
        found = set()
        for term, row in rows.items():
            namespace, sep, text = term.partition(":")
            if not sep or namespace not in tables:
                found.add("uni")
                continue
            found.add(namespace)
            plain = rows.get(text) if namespace == "uni" else None
            if plain is not None:
                row = tuple(p if s is None else s for s, p in zip(row, plain))
            tables[namespace][text] = row
        return frozenset(found), tables

    @cached_property
    def pair_table(self) -> dict[str, dict[str, tuple[float | None, ...]]]:
        """Pair scores by head text, then by tail text.

        A key splits at every occurrence of the separator, since a part
        may itself be or contain a ``---`` token: ``x ------y`` is found
        under the heads ``x ``, ``x -``, ``x --`` and ``x ---``.
        """
        table: dict[str, dict[str, tuple[float | None, ...]]] = {}
        width = len(PAIR_SEPARATOR)
        for key, row in self.unit_scores("pair").items():
            at = key.find(PAIR_SEPARATOR)
            while at != -1:
                table.setdefault(key[:at], {})[key[at + width :]] = row
                at = key.find(PAIR_SEPARATOR, at + 1)
        return table

    @cached_property
    def pair_tails(self) -> frozenset[str]:
        """Texts that occur as the second part of a pair, at any split."""
        return frozenset().union(*self.pair_table.values())

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


def write_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Write a lexicon sorted by (term, affect) with 6-decimal scores.

    An empty lexicon produces a header-only file.  Scores round-trip
    through :func:`load_lexicon` to within 1e-6.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# lexicon: {lexicon.name}\n")
        fh.write(f"# affects: {' '.join(lexicon.affects)}\n")
        for term in sorted(lexicon.entries):
            for affect in sorted(lexicon.entries[term]):
                fh.write(f"{term}\t{affect}\t{lexicon.entries[term][affect]:.6f}\n")


def _escape_text(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t")


def write_message_corpus(messages: list[LabeledMessage], path: str | Path) -> None:
    """Write a plain three-column message corpus."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for m in messages:
            fh.write(f"{m.id}\t{m.label}\t{_escape_text(m.text)}\n")


def write_term_corpus(instances: list[TermInstance], path: str | Path) -> None:
    """Write a five-column term corpus."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for t in instances:
            fh.write(
                f"{t.id}\t{t.start}\t{t.end}\t{t.label}\t{_escape_text(t.text)}\n"
            )


def write_raw_corpus(rows: list[tuple[str, str]], path: str | Path) -> None:
    """Write an unlabeled two-column corpus."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for row_id, text in rows:
            fh.write(f"{row_id}\t{_escape_text(text)}\n")


def load_cluster_map(path: str | Path) -> dict[str, int]:
    """Load a ``token<TAB>cluster-id`` map; ids must lie in [0, 999]."""
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
        entries[token] = cluster
    return entries


def load_seed_set(path: str | Path) -> SeedSet:
    """Load seeds from ``hashtag<TAB>positive|negative`` lines.

    ``#`` plus the lowercased seed must tokenize as that one hashtag, or
    no message could ever match it.
    """
    path = Path(path)
    positive, negative = [], []
    for lineno, (term, polarity) in _rows(path, 2):
        tag = "#" + term.lower()
        if [(t.kind, t.surface) for t in tokenize(tag).tokens] != [("hashtag", tag)]:
            raise CorpusFormatError(
                f"seed '{term}' is not one hashtag word at line {lineno} of {path}"
            )
        if polarity == POSITIVE:
            positive.append(term)
        elif polarity == NEGATIVE:
            negative.append(term)
        else:
            raise CorpusFormatError(
                f"seed polarity must be positive or negative at line {lineno} "
                f"of {path}, got '{polarity}'"
            )
    return SeedSet.from_words(positive, negative)
