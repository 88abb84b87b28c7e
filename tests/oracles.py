"""Brute-force reference implementations used only by the tests.

Each oracle recomputes a result through a deliberately different route
from the library: candidate terms via index-span enumeration, lexicon
scores via exact rational arithmetic and a single logarithm, the SVM
dual via projected gradient with an active-set polish, and message
lexicon features via per-(scope, affect) lookups over every pair.  None
of them import library internals beyond public dataclasses.
The copies below import only the unchanged public functions they call.
The model-file writer is the per-record loop that the bulk version in
``linear_model`` replaced, kept as written; so are the
dual coordinate descent loop on numpy scalars that shrinking replaced
(beside a copy with shrinking), lexicon induction over a
dict of per-term class dicts, the per-character unescaping loop and the
per-affect term lexicon lookup.  So are the row path's per-token and
per-feature loops: token flags computed character by character (with the
tokenizer's ``n't`` and elongation expressions, and a copy of its first
scanner, emoticon and URL patterns), one ``in_scope`` call per
token, one ``FeatureVector.set`` per n-gram, the count groups' six walks
over the tokens (POS tags, all-caps words, hashtags, punctuation runs,
emoticons and elongated words, with the punctuation and emoticon
helpers), and vectorizing by sorting (index, value) tuples.  The
model-file reader is a per-record loop in which each line must be the
next record the writer would write.  The corpus, lexicon, cluster-map
and seed loaders are the ones that each checked their own field count
over a shared line reader, kept as written except that the cluster map
is returned as a plain dict.  ``oracle_run_experiment`` is
``pipeline.run_experiment`` as it was when it indexed the training rows
alone and scored each test row through ``linear_model.predict``.
"""

from __future__ import annotations

import itertools
import math
import re
import string
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from tweetsent.corpus_io import (
    CLASS_ORDER,
    NEGATIVE,
    POSITIVE,
    CorpusFormatError,
    LabeledMessage,
    Lexicon,
    SeedSet,
    TermInstance,
)
from tweetsent import features_message
from tweetsent.evaluation import macro_f_pos_neg
from tweetsent.features_message import FeatureDictionary, IndexedVector
from tweetsent.lexicon_builder import pseudo_label_by_emoticon, pseudo_label_by_hashtag
from tweetsent.linear_model import LinearModel, ModelFormatError, predict, train
from tweetsent.negation import NEG_SUFFIX
from tweetsent.pipeline import ExperimentResult, featurize, index
from tweetsent.tokenizer import (
    _ELONGATED_RE,
    _NT_SPLIT_RE,
    Token,
    TokenizedMessage,
    emoticon_polarity,
    is_emoticon,
    normalize,
    tokenize,
)
from tweetsent.wordlists import default_function_words

_PUNCT = set(string.punctuation)


def _blocked(token: str) -> bool:
    # No emoticon exception here; oracle fixtures avoid emoticon tokens.
    return (
        bool(token) and all(c in _PUNCT for c in token)
    ) or token.startswith("@")


def oracle_candidates(
    tokens: list[str],
    function_words: frozenset[str] = frozenset(),
) -> list[str]:
    """All candidate terms of a message as a multiset."""
    n = len(tokens)
    out = [t for t in tokens if not _blocked(t)]
    out += [
        f"{tokens[i]} {tokens[i + 1]}"
        for i in range(n - 1)
        if not _blocked(tokens[i]) and not _blocked(tokens[i + 1])
    ]

    def usable(span: tuple[int, int]) -> bool:
        words = tokens[span[0] : span[1] + 1]
        return all(
            not _blocked(w) and w.lower() not in function_words for w in words
        )

    spans = [(i, i) for i in range(n)] + [(i, i + 1) for i in range(n - 1)]
    for a, b in itertools.product(spans, repeat=2):
        # At least one token separates the two parts.
        if b[0] - a[1] - 1 >= 1 and usable(a) and usable(b):
            left = " ".join(tokens[a[0] : a[1] + 1])
            right = " ".join(tokens[b[0] : b[1] + 1])
            out.append(f"{left}---{right}")
    return out


def oracle_counts(
    corpus: list[tuple[list[str], str]],
    function_words: frozenset[str] = frozenset(),
):
    """(term -> class -> count, class -> count) over a labeled stream."""
    term_class: dict[str, dict[str, int]] = {}
    class_count = {"positive": 0, "negative": 0}
    for tokens, label in corpus:
        for term in oracle_candidates(list(tokens), function_words):
            by = term_class.setdefault(term, {"positive": 0, "negative": 0})
            by[label] += 1
            class_count[label] += 1
    return term_class, class_count


def oracle_pmi(
    f_pos: int, f_neg: int, cc_pos: int, cc_neg: int, alpha: float = 0.5
) -> float:
    """Smoothed PMI difference via exact rationals.

    The pseudo-count is alpha times the term total apportioned by class
    share; everything up to the final log is exact.
    """
    total = cc_pos + cc_neg
    a = Fraction(alpha)
    f = f_pos + f_neg
    share_pos = Fraction(cc_pos, total)
    share_neg = Fraction(cc_neg, total)
    num = (Fraction(f_pos, total) + a * Fraction(f, total) * share_pos) * share_neg
    den = (Fraction(f_neg, total) + a * Fraction(f, total) * share_neg) * share_pos
    return math.log2(num / den)


def oracle_namespace(term: str) -> str:
    if "---" in term:
        return "pair"
    if " " in term:
        return "bi"
    return "uni"


def oracle_lexicon(
    corpus: list[tuple[list[str], str]],
    min_count: int = 1,
    alpha: float = 0.5,
    function_words: frozenset[str] = frozenset(),
) -> dict[str, float]:
    """Namespaced term -> positive-direction score."""
    term_class, class_count = oracle_counts(corpus, function_words)
    entries = {}
    for term, by in term_class.items():
        if by["positive"] + by["negative"] < min_count:
            continue
        score = oracle_pmi(
            by["positive"],
            by["negative"],
            class_count["positive"],
            class_count["negative"],
            alpha,
        )
        entries[f"{oracle_namespace(term)}:{term}"] = score
    return entries


def _dual_matrix(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    signed = y[:, None] * np.hstack([X, np.ones((len(y), 1))])
    return signed @ signed.T


def _dual_objective(Q: np.ndarray, alpha: np.ndarray) -> float:
    return float(0.5 * alpha @ Q @ alpha - alpha.sum())


def oracle_svm_dual(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    target: float = 1e-11,
    max_iter: int = 200_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the box-constrained SVM dual; returns (alpha, weights).

    Projected gradient with step 1/lambda_max runs to a tight movement
    target, then one active-set polish solves the free block exactly
    and is kept only when it stays feasible without worsening the
    objective.  The weight layout matches the trainer: features then a
    trailing bias from the appended constant 1.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Q = _dual_matrix(X, y)
    n = len(y)
    lam = float(np.linalg.eigvalsh(Q)[-1])
    step = 1.0 / max(lam, 1e-12)
    alpha = np.zeros(n)
    for _ in range(max_iter):
        grad = Q @ alpha - 1.0
        new = np.clip(alpha - step * grad, 0.0, C)
        moved = float(np.max(np.abs(new - alpha)))
        alpha = new
        if moved < target:
            break

    grad = Q @ alpha - 1.0
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        fixed = ~free
        rhs = 1.0 - Q[np.ix_(free, fixed)] @ alpha[fixed]
        solution, *_ = np.linalg.lstsq(Q[np.ix_(free, free)], rhs, rcond=None)
        polished = alpha.copy()
        polished[free] = solution
        inside = np.all((polished >= -1e-10) & (polished <= C + 1e-10))
        if inside:
            polished = np.clip(polished, 0.0, C)
            if _dual_objective(Q, polished) <= _dual_objective(Q, alpha) + 1e-12:
                alpha = polished

    signed = y[:, None] * np.hstack([X, np.ones((n, 1))])
    w = alpha @ signed
    return alpha, w


def oracle_kkt_violation(
    X: np.ndarray, y: np.ndarray, C: float, alpha: np.ndarray
) -> float:
    """Largest projected-gradient magnitude at ``alpha``."""
    Q = _dual_matrix(np.asarray(X, dtype=float), np.asarray(y, dtype=float))
    grad = Q @ alpha - 1.0
    at_lower = alpha <= 1e-9
    at_upper = alpha >= C - 1e-9
    projected = np.where(
        at_lower,
        np.minimum(grad, 0.0),
        np.where(at_upper, np.maximum(grad, 0.0), grad),
    )
    return float(np.max(np.abs(projected)))


def _oracle_pair_units(surfaces):
    parts = [(i, i, s) for i, s in enumerate(surfaces)] + [
        (i, i + 1, f"{surfaces[i]} {surfaces[i + 1]}")
        for i in range(len(surfaces) - 1)
    ]
    units = []
    for a_start, a_end, a_text in parts:
        for b_start, b_end, b_text in parts:
            if b_start - a_end - 1 < 1:
                continue
            positions = tuple(range(a_start, a_end + 1)) + tuple(
                range(b_start, b_end + 1)
            )
            units.append((positions, f"{a_text}---{b_text}"))
    units.sort(key=lambda u: (u[0][-1], u[0]))
    return units


def _oracle_score(lexicon, term, affect):
    return lexicon.entries.get(term, {}).get(affect)


def _oracle_lexicon_lookup(lexicon, namespace, text, affect):
    score = _oracle_score(lexicon, f"{namespace}:{text}", affect)
    if score is None and namespace == "uni":
        score = _oracle_score(lexicon, text, affect)
    return score


def _oracle_namespace(term):
    """The namespace of a lexicon term; unknown prefixes count as "uni"."""
    for namespace in ("bi", "pair", "uni"):
        if term.startswith(namespace + ":"):
            return namespace
    return "uni"


def oracle_lexicon_tables(lexicon):
    """``Lexicon.tables`` and ``pair_tails``, term by term and affect by affect.

    Every term is a unigram key, and so is the text of a ``uni:`` term;
    a unigram key takes each score from ``uni:`` plus the key, else from
    the key itself.  A pair key is split at each position where the
    separator starts.
    """
    present = {_oracle_namespace(term) for term in lexicon.entries}
    tables = {}
    for namespace in ("uni", "bi", "pair"):
        if namespace not in present:
            continue
        table = {}
        for term in lexicon.entries:
            if namespace == "uni":
                keys = [term, term[4:]] if term.startswith("uni:") else [term]
                for key in keys:
                    table[key] = tuple(
                        _oracle_lexicon_lookup(lexicon, "uni", key, affect)
                        for affect in lexicon.affects
                    )
                continue
            if _oracle_namespace(term) != namespace:
                continue
            text = term[len(namespace) + 1 :]
            row = tuple(_oracle_score(lexicon, term, a) for a in lexicon.affects)
            if namespace == "bi":
                table[text] = row
                continue
            for at in range(len(text)):
                if text[at : at + 3] == "---":
                    table.setdefault(text[:at], {})[text[at + 3 :]] = row
        tables[namespace] = table
    tails = set()
    for by_tail in tables.get("pair", {}).values():
        tails.update(by_tail)
    return tables, frozenset(tails)


def _oracle_emit_block(fv, prefix, affect, scores):
    if not scores:
        return
    count = sum(1 for s in scores if s > 0)
    total = sum(scores)
    top = max(scores)
    if count == 0:
        top = 0.0
    last = 0.0
    for s in scores:
        if s > 0:
            last = s
    fv.set(f"{prefix}|cnt|{affect}", count)
    fv.set(f"{prefix}|sum|{affect}", total)
    fv.set(f"{prefix}|max|{affect}", top)
    fv.set(f"{prefix}|last|{affect}", last)


def _oracle_scopes(message):
    n = len(message.tokens)
    scopes = [("all", set(range(n)))]
    by_tag, hashtags, caps = {}, set(), set()
    for i, t in enumerate(message.tokens):
        if t.pos_tag is not None:
            by_tag.setdefault(t.pos_tag, set()).add(i)
        if t.kind == "hashtag":
            hashtags.add(i)
        if t.all_caps:
            caps.add(i)
    for tag in sorted(by_tag):
        scopes.append((f"pos:{tag}", by_tag[tag]))
    if hashtags:
        scopes.append(("hashtag", hashtags))
    if caps:
        scopes.append(("caps", caps))
    return scopes


def oracle_lexicon_features(fv, message, surfaces, annotation, lexicons):
    """Lexicon statistics of one message, added to ``fv``.

    Enumerates every unit of every namespace, including all O(n^2)
    pairs, and looks each one up separately per scope and affect.
    """
    namespaces = [{_oracle_namespace(t) for t in lex.entries} for lex in lexicons]
    wanted = set().union(*namespaces)
    units_by_ns = {}
    if "uni" in wanted:
        units_by_ns["uni"] = [((i,), s) for i, s in enumerate(surfaces)]
    if "bi" in wanted:
        units_by_ns["bi"] = [
            ((i, i + 1), f"{surfaces[i]} {surfaces[i + 1]}")
            for i in range(len(surfaces) - 1)
        ]
    if "pair" in wanted:
        units_by_ns["pair"] = _oracle_pair_units(surfaces)

    scopes = _oracle_scopes(message)
    for lexicon, present in zip(lexicons, namespaces):
        for namespace in ("uni", "bi", "pair"):
            if namespace not in present:
                continue
            units = units_by_ns[namespace]
            for scope_name, members in scopes:
                in_scope = [u for u in units if all(p in members for p in u[0])]
                if not in_scope:
                    continue
                scope_part = "" if scope_name == "all" else f"|{scope_name}"
                prefix = f"lex|{lexicon.name}|{namespace}{scope_part}"
                for affect in lexicon.affects:
                    plain, negated = [], []
                    for positions, text in in_scope:
                        score = _oracle_lexicon_lookup(lexicon, namespace, text, affect)
                        if score is None:
                            continue
                        if annotation.spans and all(
                            annotation.in_scope(p) for p in positions
                        ):
                            negated.append(score)
                        else:
                            plain.append(score)
                    _oracle_emit_block(fv, prefix, affect, plain)
                    _oracle_emit_block(fv, prefix, f"{affect}_NEG", negated)


def oracle_save_model(model: LinearModel, path: str | Path) -> None:
    """Write the model as a TSV: header, feature names, weight rows.

    Weights use 9 significant digits; save/load/save is byte-stable.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("# linear model\n")
        fh.write("classes\t" + "\t".join(model.class_order) + "\n")
        fh.write(f"dim\t{model.dictionary.size}\n")
        fh.write(f"C\t{model.C:.9g}\n")
        fh.write(f"tol\t{model.tol:.9g}\n")
        for i, name in enumerate(model.dictionary.names):
            fh.write(f"feat\t{i}\t{name}\n")
        for i in range(model.dictionary.size + 1):
            row = "\t".join(f"{w:.9g}" for w in model.weights[:, i])
            fh.write(f"w\t{i}\t{row}\n")


def oracle_load_model(path: str | Path) -> LinearModel:
    """Read a model file written by :func:`save_model`.

    Every line must be the next record in the order ``save_model``
    writes them, and ``dim``, ``C`` and ``tol`` must be spelled as it
    writes them.  A weight may not hold ``_``, whitespace or a non-ASCII
    character.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    class_order: tuple[str, ...] = ()
    dim = 0
    settings: list[float] = []
    names: list[str] = []
    weight_rows: list[list[float]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            key, *fields = line.split("\t")
            try:
                if lineno == 1 and line == "# linear model":
                    pass
                elif lineno == 2 and key == "classes":
                    if not fields or len(set(fields)) != len(fields):
                        raise ModelFormatError(f"bad class names at line {lineno}")
                    class_order = tuple(fields)
                elif lineno == 3 and key == "dim":
                    (dim,) = [int(x) for x in fields]
                    if fields != [str(dim)]:
                        raise ValueError("not written as str(int)")
                    if dim < 0:
                        raise ModelFormatError(f"negative dim at line {lineno}")
                elif lineno in (4, 5) and key == ("C", "tol")[lineno - 4]:
                    (value,) = [float(x) for x in fields]
                    if not math.isfinite(value):
                        raise ModelFormatError(f"non-finite {key} at line {lineno}")
                    if fields != [f"{value:.9g}"]:
                        raise ValueError("not written as %.9g")
                    settings.append(value)
                elif (
                    6 <= lineno < 6 + dim
                    and key == "feat"
                    and len(fields) == 2
                    and fields[0] == str(len(names))
                ):
                    if fields[1] in names:
                        raise ModelFormatError(
                            f"duplicate feature name at line {lineno}"
                        )
                    names.append(fields[1])
                elif (
                    6 + dim <= lineno < 7 + 2 * dim
                    and key == "w"
                    and len(fields) == len(class_order) + 1
                    and fields[0] == str(len(weight_rows))
                ):
                    for c in "".join(fields[1:]):
                        if c == "_" or c.isspace() or not c.isascii():
                            raise ValueError(f"{c!r} in a weight")
                    row = [float(x) for x in fields[1:]]
                    if not all(math.isfinite(x) for x in row):
                        raise ModelFormatError(f"non-finite weight at line {lineno}")
                    weight_rows.append(row)
                else:
                    raise ModelFormatError(f"unexpected record at line {lineno}")
            except ValueError as err:
                if isinstance(err, ModelFormatError):
                    raise
                raise ModelFormatError(
                    f"malformed record at line {lineno}: {line!r}"
                ) from None
    if len(settings) != 2 or len(weight_rows) != dim + 1:
        raise ModelFormatError("the file ends before the last weight row")
    weights = np.zeros((len(class_order), dim + 1))
    for i, row in enumerate(weight_rows):
        weights[:, i] = row
    dictionary = FeatureDictionary(tuple(names))
    return LinearModel(
        class_order=class_order,
        weights=weights,
        dictionary=dictionary,
        C=settings[0],
        tol=settings[1],
    )


def oracle_train_binary(rows, targets, dim, C, tol, max_epochs, rng):
    """One binary dual coordinate descent subproblem with shrinking.

    On numpy scalars, each sweep visits the rows of a boolean ``active``
    mask.  A row at
    ``alpha == 0`` whose gradient exceeds the previous sweep's largest
    projected gradient, or at ``alpha == C`` whose gradient is below the
    smallest, is dropped from the mask for later sweeps; a threshold
    that is not positive (largest) or not negative (smallest) is
    infinite.  When a sweep over a partial mask ends with every
    projected gradient below ``tol``, or is the 100th such sweep since
    the mask was last full, the mask is filled again and the thresholds
    reset; training stops on a sweep over every row that ends with every
    projected gradient below ``tol``.  Returns (weights, epochs run, duals).
    """
    n = len(rows)
    w = np.zeros(dim + 1)
    alpha = np.zeros(n)
    q_diag = np.array([v @ v + 1.0 for _, v in rows])
    active = np.ones(n, dtype=bool)
    upper, lower = np.inf, -np.inf
    epochs_run = 0
    since_full = 0
    for _ in range(max_epochs):
        epochs_run += 1
        since_full = 0 if active.all() else since_full + 1
        projections = [0.0]
        stay = active.copy()
        for i in np.flatnonzero(active)[rng.permutation(active.sum())]:
            ind, val = rows[i]
            y = targets[i]
            gradient = y * (w[ind] @ val + w[dim]) - 1.0
            if alpha[i] <= 0.0:
                if gradient > upper:
                    stay[i] = False
                    continue
                projected = min(gradient, 0.0)
            elif alpha[i] >= C:
                if gradient < lower:
                    stay[i] = False
                    continue
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            projections.append(projected)
            if abs(projected) > 1e-12:
                updated = min(max(alpha[i] - gradient / q_diag[i], 0.0), C)
                step = (updated - alpha[i]) * y
                alpha[i] = updated
                w[ind] += step * val
                w[dim] += step
        high, low = max(projections), min(projections)
        converged = max(abs(p) for p in projections) < tol
        if converged and active.all():
            break
        if converged or since_full == 100:
            active[:] = True
            upper, lower = np.inf, -np.inf
            continue
        active = stay
        upper = high if high > 0.0 else np.inf
        lower = low if low < 0.0 else -np.inf
    return w, epochs_run, alpha


def oracle_train_binary_unshrunk(rows, targets, dim, C, tol, max_epochs, rng):
    """One binary dual coordinate descent subproblem, on numpy scalars.

    Every sweep visits every row.  Returns (weights, epochs run, duals).
    """
    n = len(rows)
    w = np.zeros(dim + 1)
    alpha = np.zeros(n)
    q_diag = np.array([v @ v + 1.0 for _, v in rows])
    epochs_run = 0
    for _ in range(max_epochs):
        epochs_run += 1
        worst = 0.0
        for i in rng.permutation(n):
            ind, val = rows[i]
            y = targets[i]
            gradient = y * (w[ind] @ val + w[dim]) - 1.0
            if alpha[i] <= 0.0:
                projected = min(gradient, 0.0)
            elif alpha[i] >= C:
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            magnitude = abs(projected)
            if magnitude > worst:
                worst = magnitude
            if magnitude > 1e-12:
                updated = min(max(alpha[i] - gradient / q_diag[i], 0.0), C)
                step = (updated - alpha[i]) * y
                alpha[i] = updated
                w[ind] += step * val
                w[dim] += step
        if worst < tol:
            break
    return w, epochs_run, alpha


def _dict_is_pure_punctuation(token: str) -> bool:
    return bool(token) and all(c in _PUNCT for c in token) and not is_emoticon(token)


def _dict_candidates(tokens, function_words):
    """(namespace, text) of each candidate, in the order they are built."""

    def blocked(tok: str) -> bool:
        return _dict_is_pure_punctuation(tok) or tok.startswith("@")

    out: list[tuple[str, str]] = []
    n = len(tokens)
    for tok in tokens:
        if not blocked(tok):
            out.append(("uni", tok))
    for i in range(n - 1):
        if not blocked(tokens[i]) and not blocked(tokens[i + 1]):
            out.append(("bi", f"{tokens[i]} {tokens[i + 1]}"))
    parts = []
    for i, tok in enumerate(tokens):
        if not blocked(tok) and tok.lower() not in function_words:
            parts.append((i, i, tok))
    for i in range(n - 1):
        a, b = tokens[i], tokens[i + 1]
        if (
            not blocked(a)
            and not blocked(b)
            and a.lower() not in function_words
            and b.lower() not in function_words
        ):
            parts.append((i, i + 1, f"{a} {b}"))
    for _head_start, head_end, head_text in parts:
        for tail_start, _tail_end, tail_text in parts:
            if tail_start - head_end - 1 >= 1:  # at least one token between
                out.append(("pair", f"{head_text}---{tail_text}"))
    return out


def _dict_pmi(term_class_count, class_count, term, alpha):
    by_class = term_class_count.get(term, {})
    f_pos = by_class.get(POSITIVE, 0)
    f_neg = by_class.get(NEGATIVE, 0)
    total = class_count[POSITIVE] + class_count[NEGATIVE]
    rel_pos = f_pos / total
    rel_neg = f_neg / total
    rel_term = (f_pos + f_neg) / total
    share_pos = class_count[POSITIVE] / total
    share_neg = class_count[NEGATIVE] / total
    numerator = (rel_pos + alpha * rel_term * share_pos) * share_neg
    denominator = (rel_neg + alpha * rel_term * share_neg) * share_pos
    return math.log2(numerator) - math.log2(denominator)


def oracle_induced_entries(
    corpus,
    labeling,
    seeds=None,
    min_count=5,
    alpha=0.5,
    function_words=None,
):
    """Entries of an induced lexicon, counted into per-term class dicts."""
    if function_words is None:
        function_words = default_function_words()
    streams = []
    for _msg_id, text in corpus:
        message = tokenize(normalize(text))
        if labeling == "hashtag":
            label = pseudo_label_by_hashtag(message, seeds)
            kept = message.tokens
        else:
            label = pseudo_label_by_emoticon(message)
            kept = [
                t
                for t in message.tokens
                if not (t.kind == "emoticon" and emoticon_polarity(t.surface))
            ]
        if label is None:
            continue
        streams.append(([t.surface.lower() for t in kept], label))
    if not streams:
        raise ValueError("no labeled messages")

    term_class_count: dict[tuple[str, str], dict[str, int]] = {}
    class_count = {POSITIVE: 0, NEGATIVE: 0}
    for tokens, label in streams:
        for term in _dict_candidates(tokens, function_words):
            by_class = term_class_count.setdefault(term, {})
            by_class[label] = by_class.get(label, 0) + 1
            class_count[label] += 1
    for cls in (POSITIVE, NEGATIVE):
        if class_count[cls] == 0:
            raise ValueError(f"no {cls} candidates after labeling")

    entries: dict[str, dict[str, float]] = {}
    for term, by_class in term_class_count.items():
        if by_class.get(POSITIVE, 0) + by_class.get(NEGATIVE, 0) < min_count:
            continue
        score = _dict_pmi(term_class_count, class_count, term, alpha)
        namespace, text = term
        entries[f"{namespace}:{text}"] = {POSITIVE: score, NEGATIVE: -score}
    return entries


def oracle_unescape_text(text: str) -> str:
    """Undo corpus escaping one character at a time."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "t":
                out.append("\t")
                i += 2
                continue
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def oracle_term_lookup(lexicon, words, affect):
    """Per-word scores and matches for one affect, term by term."""
    scores, matched = [], []
    for w in words:
        s = _oracle_score(lexicon, f"uni:{w}", affect)
        if s is None:
            s = _oracle_score(lexicon, w, affect)
        scores.append(0.0 if s is None else s)
        matched.append(s is not None)
    return scores, matched


# The tokenizer's rules as they were first written, before each was spelled
# once: the verbose emoticon grammar, its forward half written out again,
# the scanner pattern, the URL pattern and the polarity rule that mirrors
# a reversed emoticon and matches it again.  The full-surface patterns end
# in ``\Z`` where the first spelling had ``$``, so a trailing line break
# ends no emoticon.
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

_EMOTICON_FULL_RE = re.compile(r"(?:%s)\Z" % _EMOTICON, re.VERBOSE)
_FORWARD_FULL_RE = re.compile(r"(?:%s)\Z" % _FORWARD_EMOTICON)
_URL_NORM_RE = re.compile(r"(?:https?://\S+|www\.\S+)")
_USER_NORM_RE = re.compile(r"(?<![\w@])@\w+")
_POSITIVE_MOUTHS = set(")]}dD")
_NEGATIVE_MOUTHS = set("([{/\\|")
_MIRROR = str.maketrans("()[]{}<>", ")(][}{><")


def oracle_normalize(text: str) -> str:
    text = _URL_NORM_RE.sub("http://someurl", text)
    return _USER_NORM_RE.sub("@someuser", text)


def oracle_is_emoticon(surface: str) -> bool:
    return _EMOTICON_FULL_RE.match(surface) is not None


def oracle_emoticon_polarity(surface: str) -> str | None:
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


def oracle_classify_surface(surface: str) -> str:
    """The kind of one externally tagged surface, before flags."""
    match = _TOKEN_RE.match(surface)
    if match and match.group() == surface and match.lastgroup:
        return match.lastgroup if match.lastgroup != "other" else "word"
    return "word"


def _oracle_flags(surface: str) -> tuple[bool, bool, bool]:
    # Two cased capitals: uncased scripts (CJK, Arabic, ...) are never caps.
    capitals = sum(1 for c in surface if c.isupper())
    all_caps = capitals >= 2 and not any(c.islower() for c in surface)
    elongated = _ELONGATED_RE.search(surface) is not None
    initial_cap = (
        bool(surface)
        and surface[0].isupper()
        and not any(c.isupper() for c in surface[1:])
        and any(c.islower() for c in surface)
    )
    return all_caps, elongated, initial_cap


def oracle_make_token(surface: str, kind: str) -> Token:
    """A token with every flag computed character by character."""
    if kind == "word" and not any(c.isalnum() for c in surface):
        kind = "punctuation"
    all_caps, elongated, initial_cap = _oracle_flags(surface)
    return Token(
        surface=surface,
        kind=kind,
        all_caps=all_caps,
        elongated=elongated,
        initial_cap=initial_cap,
    )


def oracle_tokenize(text: str) -> TokenizedMessage:
    """Tokenize with the ``n't`` split tried on every word."""
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup or "other"
        surface = match.group()
        if kind == "other":
            kind = "word" if surface.isalnum() else "punctuation"
        if kind == "word":
            nt = _NT_SPLIT_RE.match(surface)
            if nt:
                tokens.append(oracle_make_token(nt.group(1), "word"))
                tokens.append(oracle_make_token(nt.group(2), "word"))
                continue
        tokens.append(oracle_make_token(surface, kind))
    return TokenizedMessage(tuple(tokens))


def oracle_apply_negation_suffix(surfaces, annotation) -> list[str]:
    """Append ``_NEG`` to each surface that ``in_scope`` reports."""
    return [
        s + NEG_SUFFIX if annotation.in_scope(i) else s
        for i, s in enumerate(surfaces)
    ]


def oracle_scope_masks(message, annotation):
    """Scope segments, per-token masks and negation bit, one scope test per token."""
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
    for i, t in enumerate(tokens):
        mask = 1
        if t.pos_tag is not None:
            mask |= tag_bit[t.pos_tag]
        if t.kind == "hashtag":
            mask |= hashtag_bit
        if t.all_caps:
            mask |= caps_bit
        if annotation.in_scope(i):
            mask |= negated_bit
        masks.append(mask)
    return segments, masks, negated_bit


def oracle_word_ngram_features(fv, suffixed, ngram_max) -> None:
    """Word and wildcard n-grams, one ``FeatureVector.set`` per window.

    Wildcard sizes are read from the library's constant at call time, so
    a test that patches it changes both sides.
    """
    n_tokens = len(suffixed)
    for n in range(1, ngram_max + 1):
        for i in range(n_tokens - n + 1):
            window = suffixed[i : i + n]
            fv.set("wng|" + " ".join(window), 1)
            if n in features_message.WILDCARD_SIZES:
                for hole in range(1, n - 1):
                    gapped = list(window)
                    gapped[hole] = "*"
                    fv.set("wng|" + " ".join(gapped), 1)


def oracle_char_ngram_features(fv, message, suffixed) -> None:
    """Character n-grams, one ``FeatureVector.set`` per slice.

    Sizes are read from the library's constant at call time.
    """
    for token, surface in zip(message.tokens, suffixed):
        if token.kind in ("url", "mention"):
            continue
        for n in features_message.CHAR_NGRAM_SIZES:
            for i in range(len(surface) - n + 1):
                fv.set(f"cng|{surface[i : i + n]}", 1)


def oracle_count_features(fv, message) -> None:
    """The ``pos|``, ``caps|``, ``ht|``, ``pnc|``, ``emo|`` and ``elo|``
    entries, one walk over the tokens per group, in extraction order."""
    tags: dict[str, int] = {}
    for t in message.tokens:
        if t.pos_tag is not None:
            tags[t.pos_tag] = tags.get(t.pos_tag, 0) + 1
    for tag, count in tags.items():
        fv.set(f"pos|{tag}", count)
    fv.set("caps|count", sum(1 for t in message.tokens if t.all_caps))
    fv.set("ht|count", sum(1 for t in message.tokens if t.kind == "hashtag"))
    _oracle_punctuation_features(fv, message)
    _oracle_emoticon_features(fv, message)
    fv.set(
        "elo|count",
        sum(
            1
            for t in message.tokens
            if t.elongated and t.kind in ("word", "hashtag")
        ),
    )


def _oracle_punctuation_features(fv, message) -> None:
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


def _oracle_emoticon_features(fv, message) -> None:
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


def oracle_vectorize(vector, dictionary) -> IndexedVector:
    """Resolve names by sorting (index, value) tuples."""
    pairs = sorted(
        (dictionary.index[name], value)
        for name, value in vector.entries.items()
        if name in dictionary.index
    )
    return IndexedVector(
        indices=np.array([i for i, _ in pairs], dtype=np.int64),
        values=np.array([v for _, v in pairs], dtype=np.float64),
    )


def _oracle_data_lines(path: Path) -> list[tuple[int, str]]:
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


def _oracle_check_label(label: str, lineno: int, path: Path) -> str:
    if label not in CLASS_ORDER:
        raise CorpusFormatError(f"unknown label '{label}' at line {lineno} of {path}")
    return label


def _oracle_tagged_column(column: str, lineno: int, path: Path):
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


def oracle_load_message_corpus(path, format="plain"):
    if format not in ("plain", "tagged"):
        raise ValueError(f"unknown corpus format '{format}'")
    path = Path(path)
    messages = []
    want, maxsplit = (3, 2) if format == "plain" else (4, -1)
    for lineno, line in _oracle_data_lines(path):
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
            tagged = _oracle_tagged_column(tagged_col, lineno, path)
        messages.append(
            LabeledMessage(
                id=msg_id,
                text=oracle_unescape_text(text),
                label=_oracle_check_label(label, lineno, path),
                tagged=tagged,
            )
        )
    return messages


def oracle_load_raw_corpus(path):
    path = Path(path)
    rows = []
    for lineno, line in _oracle_data_lines(path):
        parts = line.split("\t", 1)
        if len(parts) != 2:
            raise CorpusFormatError(
                f"expected 2 tab-separated fields at line {lineno} of {path}, "
                f"got {len(parts)}"
            )
        rows.append((parts[0], oracle_unescape_text(parts[1])))
    return rows


def oracle_load_term_corpus(path):
    path = Path(path)
    instances = []
    for lineno, line in _oracle_data_lines(path):
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
            inst = TermInstance(inst_id, oracle_unescape_text(text), label, start, end)
        except ValueError as err:
            raise CorpusFormatError(f"{err} (line {lineno} of {path})") from None
        _oracle_check_label(label, lineno, path)
        instances.append(inst)
    return instances


def oracle_load_lexicon(path, name=None, kind="manual"):
    path = Path(path)
    entries: dict[str, dict[str, float]] = {}
    affects: list[str] = []
    for lineno, line in _oracle_data_lines(path):
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


def oracle_load_cluster_map(path):
    path = Path(path)
    entries: dict[str, int] = {}
    for lineno, line in _oracle_data_lines(path):
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
        if token in entries and entries[token] != cluster:
            raise CorpusFormatError(
                f"token {token!r} is listed with cluster ids {entries[token]} and "
                f"{cluster} at line {lineno} of {path}"
            )
        entries[token] = cluster
    return entries


def oracle_load_seed_set(path):
    path = Path(path)
    positive, negative = [], []
    for lineno, line in _oracle_data_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise CorpusFormatError(
                f"expected 2 tab-separated fields at line {lineno} of {path}, "
                f"got {len(parts)}"
            )
        term, polarity = parts
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
        opposite = negative if polarity == POSITIVE else positive
        if any("#" + seen.lower() == tag for seen in opposite):
            raise CorpusFormatError(
                f"seed '{term}' is listed as both positive and negative at line "
                f"{lineno} of {path}"
            )
        (positive if polarity == POSITIVE else negative).append(term)
    return SeedSet.from_words(positive, negative)


def oracle_run_experiment(
    task, train_rows, test_rows, lexicons=(), clusters=None, config=None, **solver
):
    features = (lexicons, clusters, config)
    _, labels, vectors = featurize(task, train_rows, *features)
    dictionary, rows = index(vectors)
    model = train(rows, labels, dictionary, **solver)
    _, gold, vectors = featurize(task, test_rows, *features)
    report = macro_f_pos_neg(gold, [predict(model, v) for v in vectors])
    return ExperimentResult(report=report, model=model)
