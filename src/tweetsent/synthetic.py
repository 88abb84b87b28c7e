"""Synthetic corpora with a known planted sentiment signal.

Used by benchmarks and the acceptance suite.  Each generator plants a
large sentiment vocabulary whose words are sampled with a heavy-tailed
distribution: frequent sentiment words are learnable from ngrams alone,
while rare ones only help a model that consults the planted lexicon.
Surface encodings (punctuation, emoticons) are sampled independently of
the label so they carry no signal.
"""

from __future__ import annotations

import numpy as np

from .corpus_io import LabeledMessage, Lexicon, TermInstance
from .wordlists import default_negation_words, default_stopwords

_SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo fu ga ge gi go gu "
    "ka ke ki ko ku la le li lo lu ma me mi mo mu na ne ni no nu "
    "pa pe pi po pu ra re ri ro ru sa se si so su ta te ti to tu "
    "va ve vi vo vu za ze zi zo zu"
).split()


def _make_words(
    rng: np.random.Generator, count: int, taken: set[str]
) -> list[str]:
    """Distinct pronounceable nonsense words, two to four syllables."""
    blocked = set(default_negation_words()) | set(default_stopwords())
    words = []
    while len(words) < count:
        n = int(rng.integers(2, 5))
        word = "".join(rng.choice(_SYLLABLES) for _ in range(n))
        if word in taken or word in blocked:
            continue
        taken.add(word)
        words.append(word)
    return words


def _zipf_probs(count: int, exponent: float = 1.2) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=float)
    probs = ranks**-exponent
    return probs / probs.sum()


# Share of a sentiment message's planted words drawn from the wrong side.
MESSAGE_NOISE = 0.1


def make_message_corpus(
    n: int = 1000,
    seed: int = 42,
) -> tuple[list[LabeledMessage], Lexicon]:
    """A message corpus plus the lexicon covering its planted signal.

    Positive and negative messages carry a few sentiment words from a
    600-word planted vocabulary (a :data:`MESSAGE_NOISE` share of them
    drawn from the wrong side); neutral messages are mostly filler.  The
    returned lexicon scores the full vocabulary, so lexicon features
    generalize to words an ngram model never saw.
    """
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    pos_words = _make_words(rng, 300, taken)
    neg_words = _make_words(rng, 300, taken)
    filler = _make_words(rng, 500, taken)
    sent_probs = _zipf_probs(300)
    filler_probs = _zipf_probs(500, exponent=1.05)
    lexicon = Lexicon.from_word_lists("planted", pos_words, neg_words)

    messages = []
    for i in range(n):
        u = rng.random()
        label = "positive" if u < 0.4 else ("negative" if u < 0.7 else "neutral")
        tokens = list(rng.choice(filler, size=int(rng.integers(6, 13)), p=filler_probs))
        if label == "positive":
            own, other = pos_words, neg_words
        elif label == "negative":
            own, other = neg_words, pos_words
        else:
            own = other = None
        if own is not None:
            for _ in range(int(rng.integers(2, 5))):
                source = other if rng.random() < MESSAGE_NOISE else own
                tokens.append(str(rng.choice(source, p=sent_probs)))
        elif rng.random() < 0.2:
            side = pos_words if rng.random() < 0.5 else neg_words
            tokens.append(str(rng.choice(side, p=sent_probs)))
        rng.shuffle(tokens)
        tokens.append(str(rng.choice([".", "!", "?"])))
        if rng.random() < 0.06:
            tokens.append(str(rng.choice([":)", ":("])))
        messages.append(
            LabeledMessage(id=f"m{i}", text=" ".join(tokens), label=label)
        )
    return messages, lexicon


def make_term_corpus(
    n: int = 600,
    seed: int = 7,
) -> tuple[list[TermInstance], Lexicon]:
    """A term corpus whose label lives mostly in the target span.

    The target is one or two words whose planted polarity sets the
    label.  A tenth of the sentiment targets are corrupted to neutral
    words while half of the sentiment instances get a same-polarity
    context word, so context carries a little signal and the target
    carries most of it.
    """
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    pos_words = _make_words(rng, 150, taken)
    neg_words = _make_words(rng, 150, taken)
    neu_words = _make_words(rng, 150, taken)
    filler = _make_words(rng, 300, taken)
    sent_probs = _zipf_probs(150)
    lexicon = Lexicon.from_word_lists("planted", pos_words, neg_words)

    instances = []
    for i in range(n):
        u = rng.random()
        if u < 0.4:
            label, source = "positive", pos_words
        elif u < 0.7:
            label, source = "negative", neg_words
        else:
            label, source = "neutral", neu_words
        target_source = source
        corrupted = label != "neutral" and rng.random() < 0.1
        if corrupted:
            target_source = neu_words
        target = [
            str(w)
            for w in rng.choice(target_source, size=int(rng.integers(1, 3)), p=sent_probs)
        ]
        before = [str(w) for w in rng.choice(filler, size=int(rng.integers(2, 6)))]
        after = [str(w) for w in rng.choice(filler, size=int(rng.integers(2, 6)))]
        # Corrupted targets always get flanking same-polarity words, so the
        # label stays recoverable, but only through the context window.
        if corrupted:
            before.append(str(rng.choice(source, p=sent_probs)))
            after.insert(0, str(rng.choice(source, p=sent_probs)))
        elif label != "neutral" and rng.random() < 0.3:
            hint = str(rng.choice(source, p=sent_probs))
            if rng.random() < 0.5:
                before.append(hint)
            else:
                after.insert(0, hint)
        tokens = before + target + after
        start = len(before)
        end = start + len(target) - 1
        instances.append(
            TermInstance(
                id=f"t{i}",
                text=" ".join(tokens),
                label=label,
                start=start,
                end=end,
            )
        )
    return instances, lexicon


def make_emoticon_corpus(
    n: int = 2000,
    seed: int = 11,
) -> tuple[list[tuple[str, str]], list[str], list[str]]:
    """Unlabeled (id, text) rows where emoticons track a hidden polarity.

    Returns the rows plus the positive and negative word lists that
    lexicon induction should recover.
    """
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    pos_words = _make_words(rng, 60, taken)
    neg_words = _make_words(rng, 60, taken)
    filler = _make_words(rng, 200, taken)
    rows = []
    for i in range(n):
        positive = rng.random() < 0.5
        source = pos_words if positive else neg_words
        tokens = list(rng.choice(filler, size=int(rng.integers(4, 9))))
        tokens += [str(w) for w in rng.choice(source, size=int(rng.integers(1, 4)))]
        rng.shuffle(tokens)
        tokens.append(":)" if positive else ":(")
        rows.append((f"r{i}", " ".join(tokens)))
    return rows, pos_words, neg_words
