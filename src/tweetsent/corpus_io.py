"""Readers and writers for the toolkit's on-disk formats.

All files are UTF-8 text with LF line endings.  Lines starting with ``#``
are comments and blank lines are skipped.  Columns are tab separated.

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

Seed set for lexicon induction (read by
:func:`~tweetsent.lexicon_builder.load_seed_set`), one hashtag per line
written without its ``#``, since a line starting with ``#`` is a
comment::

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
from pathlib import Path
from typing import Sequence

from .tokenizer import TokenizedMessage, normalize, tokenize

# Fixed class order used for model weights, reports and tie-breaking.
CLASS_ORDER = ("negative", "neutral", "positive")

POSITIVE = "positive"
NEGATIVE = "negative"
NEUTRAL = "neutral"

# Joins the two parts of a pair term.
PAIR_SEPARATOR = "---"

# A part of a pair: inclusive token span and its text.
PairPart = tuple[int, int, str]


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
    which ablation experiments toggle separately.
    """

    name: str
    affects: tuple[str, ...]
    entries: dict[str, dict[str, float]] = field(default_factory=dict)
    kind: str = "manual"

    def score(self, term: str, affect: str) -> float | None:
        """Score of ``term`` for ``affect``, or None when absent."""
        by_affect = self.entries.get(term)
        if by_affect is None:
            return None
        return by_affect.get(affect)

    def namespaces(self) -> frozenset[str]:
        """Term namespaces present: "uni", "bi", "pair".

        Unprefixed terms count as unigrams.  Cached after the first
        call, since entries are fixed after construction.
        """
        cached = getattr(self, "_namespace_cache", None)
        if cached is None:
            found = set()
            for term in self.entries:
                if term.startswith("bi:"):
                    found.add("bi")
                elif term.startswith("pair:"):
                    found.add("pair")
                else:
                    found.add("uni")
            cached = frozenset(found)
            object.__setattr__(self, "_namespace_cache", cached)
        return cached

    def unit_scores(self, namespace: str) -> dict[str, tuple[float | None, ...]]:
        """Scores of the ``namespace`` units, keyed by unprefixed unit text.

        Each value holds one score per affect in ``affects`` order, None
        where the term lacks that affect.  A ``bi`` or ``pair`` unit is
        the term under its ``bi:`` or ``pair:`` prefix.  A ``uni`` unit
        takes each affect from its ``uni:`` term and, where that term is
        absent or lacks the affect, from the unprefixed term.  Cached after
        the first call.
        """
        tables = getattr(self, "_unit_tables", None)
        if tables is None:
            tables = self._build_unit_tables()
            object.__setattr__(self, "_unit_tables", tables)
        return tables[namespace]

    def _build_unit_tables(self) -> dict[str, dict[str, tuple[float | None, ...]]]:
        rows = {
            term: tuple(by_affect.get(a) for a in self.affects)
            for term, by_affect in self.entries.items()
        }
        # Any term can match a unigram's plain-surface lookup.
        tables: dict[str, dict[str, tuple[float | None, ...]]] = {
            "uni": dict(rows),
            "bi": {},
            "pair": {},
        }
        for term, row in rows.items():
            namespace, sep, text = term.partition(":")
            if not sep or namespace not in tables:
                continue
            plain = rows.get(text) if namespace == "uni" else None
            if plain is not None:
                row = tuple(p if s is None else s for s, p in zip(row, plain))
            tables[namespace][text] = row
        return tables

    def pair_heads_tails(self) -> tuple[frozenset[str], frozenset[str]]:
        """Texts that occur as the first and as the second part of a pair.

        A key splits at every occurrence of the separator, since a part
        may itself be or contain a ``---`` token: ``x ------y`` yields
        heads ``x ``, ``x -``, ``x --`` and ``x ---``.  Cached after the
        first call.
        """
        cached = getattr(self, "_pair_part_cache", None)
        if cached is None:
            heads, tails = set(), set()
            width = len(PAIR_SEPARATOR)
            for key in self.unit_scores("pair"):
                at = key.find(PAIR_SEPARATOR)
                while at != -1:
                    heads.add(key[:at])
                    tails.add(key[at + width :])
                    at = key.find(PAIR_SEPARATOR, at + 1)
            cached = (frozenset(heads), frozenset(tails))
            object.__setattr__(self, "_pair_part_cache", cached)
        return cached

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


def pair_units(
    heads: Sequence[PairPart],
    tails: Sequence[PairPart],
    window: int | None = None,
) -> list[tuple[PairPart, PairPart, str]]:
    """Ordered pairs of a head part and a later tail part, with pair text.

    The tail starts at least one token after the head ends, and at most
    ``window`` tokens after when set.  Pairs come head-major, in the
    order of ``heads`` and then ``tails``.
    """
    pairs = []
    for head in heads:
        first = head[1] + 2
        joined = head[2] + PAIR_SEPARATOR
        if window is None:
            pairs += [
                (head, tail, joined + tail[2]) for tail in tails if first <= tail[0]
            ]
        else:
            pairs += [
                (head, tail, joined + tail[2])
                for tail in tails
                if first <= tail[0] < first + window
            ]
    return pairs


@dataclass(frozen=True)
class ClusterMap:
    """Token to word-cluster assignment with ids in [0, 999]."""

    entries: dict[str, int] = field(default_factory=dict)

    def get(self, token: str) -> int | None:
        return self.entries.get(token)


def _data_lines(path: Path) -> list[tuple[int, str]]:
    """Non-comment, non-blank lines of ``path`` as (line number, text)."""
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    out = []
    with path.open("r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                out.append((lineno, line))
        except UnicodeDecodeError:
            raise CorpusFormatError(f"not valid UTF-8 text in {path}") from None
    return out


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
    want, maxsplit = (3, 2) if format == "plain" else (4, -1)
    for lineno, line in _data_lines(path):
        parts = line.split("\t", maxsplit)
        if len(parts) != want:
            raise CorpusFormatError(
                f"expected {want} tab-separated fields at line {lineno} of {path}, "
                f"got {len(parts)}"
            )
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
    path = Path(path)
    rows = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise CorpusFormatError(
                f"expected 2 tab-separated fields at line {lineno} of {path}, "
                f"got {len(parts)}"
            )
        rows.append((parts[0], _unescape_text(parts[1])))
    return rows


def load_term_corpus(path: str | Path) -> list[TermInstance]:
    """Load a term corpus; every span must lie inside its tokenized text."""
    path = Path(path)
    instances = []
    for lineno, line in _data_lines(path):
        parts = line.split("\t", 4)
        if len(parts) != 5:
            raise CorpusFormatError(
                f"expected 5 tab-separated fields at line {lineno} of {path}, "
                f"got {len(parts)}"
            )
        inst_id, start_s, end_s, label, text = parts
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
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusFormatError(
                f"expected 3 tab-separated fields at line {lineno} of {path}, "
                f"got {len(parts)}"
            )
        term, affect, score_s = parts
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


def load_cluster_map(path: str | Path) -> ClusterMap:
    """Load a ``token<TAB>cluster-id`` map; ids must lie in [0, 999]."""
    path = Path(path)
    entries: dict[str, int] = {}
    for lineno, line in _data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(
                f"expected 2 tab-separated fields at line {lineno} of {path}, "
                f"got {len(parts)}"
            )
        token, cluster_s = parts
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
    return ClusterMap(entries=entries)
