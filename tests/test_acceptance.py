"""End-to-end acceptance suite.

One test per published behavior the package commits to: majority
baselines on the known class distributions, exact agreement of lexicon
induction and SVM training with brute-force reference implementations,
separation between full-feature, unigram and majority scoring on a
planted corpus, feature-group importance orderings, negation-scope
invariants, and byte-level determinism of every artifact.  Each test
also bounds its own wall-clock runtime.
"""

import time

import numpy as np
import pytest

from oracles import oracle_kkt_violation, oracle_lexicon, oracle_svm_dual
from tweetsent.cli import main
from tweetsent.corpus_io import write_message_corpus
from tweetsent.evaluation import macro_f_pos_neg, majority_baseline
from tweetsent.features_message import MessageFeatureConfig
from tweetsent.lexicon_builder import build_lexicon
from tweetsent.linear_model import train
from tweetsent.negation import (
    apply_negation_suffix,
    flip_term_polarity,
    mark_negation,
)
from tweetsent.pipeline import run_ablation, run_message_experiment
from tweetsent.synthetic import make_message_corpus, make_term_corpus
from tweetsent.wordlists import default_negation_words

from test_linear_model import BINARY, dense_rows, make_dictionary


def majority_score(counts):
    positive, negative, neutral = counts
    gold = (
        ["positive"] * positive + ["negative"] * negative + ["neutral"] * neutral
    )
    predicted = [majority_baseline(gold)] * len(gold)
    return macro_f_pos_neg(gold, predicted).macro_f


def test_message_majority_baselines_reproduce_known_scores():
    started = time.monotonic()
    assert majority_score((1572, 601, 1640)) == pytest.approx(29.19, abs=0.01)
    assert majority_score((492, 394, 1208)) == pytest.approx(19.03, abs=0.01)
    assert time.monotonic() - started < 1.0


def test_term_majority_baselines_reproduce_known_scores():
    started = time.monotonic()
    assert majority_score((2734, 1541, 160)) == pytest.approx(38.13, abs=0.01)
    # Negative is the majority class here.
    assert majority_score((1071, 1104, 159)) == pytest.approx(32.11, abs=0.01)
    assert time.monotonic() - started < 1.0


def _random_emoticon_corpus(rng):
    vocabulary = ["va", "be", "cu", "do", "el", "fi", "go", "hu"]
    n_messages = int(rng.integers(2, 31))
    streams = []
    for i in range(n_messages):
        words = [
            vocabulary[int(j)]
            for j in rng.integers(0, len(vocabulary), int(rng.integers(1, 7)))
        ]
        label = "positive" if rng.random() < 0.5 else "negative"
        streams.append((words, label))
    streams[0] = (streams[0][0], "positive")
    streams[1] = (streams[1][0], "negative")
    corpus = [
        (f"m{i}", " ".join(words + [":)" if label == "positive" else ":("]))
        for i, (words, label) in enumerate(streams)
    ]
    return corpus, streams


def _flip_labels(corpus):
    flipped = []
    for msg_id, text in corpus:
        if text.endswith(":)"):
            flipped.append((msg_id, text[:-2] + ":("))
        else:
            flipped.append((msg_id, text[:-2] + ":)"))
    return flipped


def test_induced_lexicons_match_exact_reference_on_random_corpora():
    started = time.monotonic()
    rng = np.random.default_rng(20130914)
    for _ in range(50):
        corpus, streams = _random_emoticon_corpus(rng)
        lexicon = build_lexicon(
            corpus, "emoticon", min_count=1, function_words=frozenset()
        )
        want = oracle_lexicon(streams, min_count=1)
        assert set(lexicon.entries) == set(want)
        for key, score in want.items():
            assert lexicon.entries[key]["positive"] == pytest.approx(
                score, abs=1e-9
            )

        # Swapping every label negates every score exactly.
        swapped = build_lexicon(
            _flip_labels(corpus), "emoticon", min_count=1,
            function_words=frozenset(),
        )
        assert set(swapped.entries) == set(lexicon.entries)
        for key, entry in lexicon.entries.items():
            assert swapped.entries[key]["positive"] == -entry["positive"]

        # Duplicating the corpus changes no score at all.
        doubled_corpus = corpus + [
            (f"d{i}", text) for i, (_, text) in enumerate(corpus)
        ]
        doubled = build_lexicon(
            doubled_corpus, "emoticon", min_count=1, function_words=frozenset()
        )
        assert doubled.entries == lexicon.entries
    assert time.monotonic() - started < 10.0


def test_trained_svms_match_reference_solver_on_random_problems():
    started = time.monotonic()
    rng = np.random.default_rng(5918)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 3)
        labels = [
            "positive" if rng.random() < 0.5 else "negative" for _ in range(n)
        ]
        labels[0], labels[-1] = "positive", "negative"
        C = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
        model = train(
            dense_rows(X.tolist()), labels, make_dictionary(d),
            C=C, tol=1e-7, max_epochs=500_000, classes=BINARY,
        )
        probe = np.hstack([X, np.ones((n, 1))])
        for position, cls in enumerate(BINARY):
            y = np.array([1.0 if l == cls else -1.0 for l in labels])
            _, w_oracle = oracle_svm_dual(X, y, C)
            np.testing.assert_allclose(
                probe @ model.weights[position], probe @ w_oracle, atol=1e-4
            )
            alpha = model.alphas[position]
            assert np.all(alpha >= 0.0) and np.all(alpha <= C)
            assert oracle_kkt_violation(X, y, C, alpha) < 1e-4
    assert time.monotonic() - started < 30.0


@pytest.fixture(scope="module")
def planted_messages():
    messages, lexicon = make_message_corpus(n=1000, seed=42)
    return messages[:700], messages[700:], lexicon


def test_full_features_beat_unigrams_beat_majority_on_planted_corpus(
    planted_messages,
):
    train_messages, test_messages, lexicon = planted_messages
    started = time.monotonic()
    full = run_message_experiment(
        train_messages, test_messages, lexicons=[lexicon]
    ).report.macro_f
    unigrams = run_message_experiment(
        train_messages, test_messages,
        config=MessageFeatureConfig.unigrams_only(),
    ).report.macro_f
    majority = majority_baseline([m.label for m in train_messages])
    majority_f = macro_f_pos_neg(
        [m.label for m in test_messages], [majority] * len(test_messages)
    ).macro_f
    assert full - unigrams >= 5.0
    assert unigrams - majority_f >= 5.0
    assert time.monotonic() - started < 120.0


def test_lexicons_are_the_most_important_message_feature_group(
    planted_messages,
):
    train_messages, test_messages, lexicon = planted_messages
    groups = [
        "lexicons", "ngrams", "word-ngrams", "char-ngrams",
        "negation", "pos", "clusters", "encodings",
    ]
    started = time.monotonic()
    rows = run_ablation(
        groups, train_messages, test_messages, lexicons=[lexicon]
    )
    deltas = {row.group: row.delta for row in rows[1:]}
    for group, delta in deltas.items():
        if group != "lexicons":
            assert deltas["lexicons"] < delta
    assert abs(deltas["encodings"]) < 1.0
    assert time.monotonic() - started < 300.0


def test_term_labels_live_in_the_target_span():
    instances, lexicon = make_term_corpus(n=600, seed=7)
    train_instances, test_instances = instances[:420], instances[420:]
    started = time.monotonic()
    rows = run_ablation(
        ["target", "context"], train_instances, test_instances,
        task="term", lexicons=[lexicon],
    )
    deltas = {row.group: row.delta for row in rows[1:]}
    assert deltas["target"] < deltas["context"]
    assert deltas["target"] <= -5.0
    assert time.monotonic() - started < 120.0


def test_negation_scoping_invariants_hold_on_random_inputs():
    started = time.monotonic()
    negation_words = default_negation_words()

    annotation = mark_negation(["i", "do", "n't", "like", "this", ",", "ok"])
    assert annotation.spans == ((3, 4),)
    assert mark_negation(["ok", "never"]).count == 0
    assert mark_negation(["no", "fun", "."]).spans == ((1, 1),)
    assert mark_negation(["all", "good", "here"]).count == 0

    pool = ["not", "no", "never", "n't", ",", ".", "!", "good", "bad", "day",
            "x,y", "Never"]
    rng = np.random.default_rng(77)
    for _ in range(1000):
        tokens = [pool[int(i)] for i in rng.integers(0, len(pool),
                                                     int(rng.integers(0, 13)))]
        annotation = mark_negation(tokens)
        previous_end = -1
        for start, end in annotation.spans:
            assert previous_end < start <= end < len(tokens)
            assert tokens[start - 1].lower() in negation_words
            previous_end = end
        suffixed = apply_negation_suffix(tokens, annotation)
        n_suffixed = sum(1 for s in suffixed if s.endswith("_NEG"))
        assert n_suffixed == sum(e - s + 1 for s, e in annotation.spans)

        scores = list(np.round(rng.normal(size=int(rng.integers(0, 6))), 3))
        position = int(rng.integers(-1, 6))
        assert flip_term_polarity(
            flip_term_polarity(scores, position), position
        ) == scores
    assert time.monotonic() - started < 5.0


def test_identical_flags_and_seed_give_byte_identical_outputs(
    tmp_path, capsys
):
    messages, _ = make_message_corpus(n=120, seed=6)
    train_path = tmp_path / "train.tsv"
    test_path = tmp_path / "test.tsv"
    write_message_corpus(messages[:90], train_path)
    write_message_corpus(messages[90:], test_path)
    model_path = tmp_path / "model.tsv"

    def run(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    train_args = (
        "train", "--input", str(train_path), "--model", str(model_path),
        "--seed", "13", "--cv", "2",
    )
    first_train_out = run(*train_args)
    first_model = model_path.read_bytes()
    evaluate_args = (
        "evaluate", "--input", str(test_path), "--model", str(model_path),
        "--kv",
    )
    first_evaluate = run(*evaluate_args)
    ablate_args = (
        "ablate", "--input", str(train_path), "--test", str(test_path),
        "--groups", "word-ngrams,negation", "--seed", "13", "--tsv",
    )
    first_ablate = run(*ablate_args)

    assert run(*train_args) == first_train_out
    assert model_path.read_bytes() == first_model
    assert run(*evaluate_args) == first_evaluate
    assert run(*ablate_args) == first_ablate
