import sys

import numpy as np
import pytest

from tweetsent import pipeline
from tweetsent.corpus_io import LabeledMessage, TermInstance, write_term_corpus
from tweetsent.linear_model import predict
from tweetsent.pipeline import (
    extract_message_vectors,
    extract_term_vectors,
    featurize,
    prepare,
    prepare_messages,
    prepare_raw,
    run_ablation,
    run_experiment,
    run_message_experiment,
)
from tweetsent.synthetic import (
    make_emoticon_corpus,
    make_message_corpus,
    make_term_corpus,
)
from tweetsent.tokenizer import tokenize


def test_prepare_messages_untagged():
    prepared = prepare_messages(
        [LabeledMessage(id="a", text="i don't like it , ok", label="negative")]
    )
    assert len(prepared) == 1
    assert prepared[0].id == "a"
    assert prepared[0].label == "negative"
    assert prepared[0].tokens.surfaces()[:3] == ["i", "do", "n't"]
    assert prepared[0].annotation.spans == ((3, 4),)


def test_prepare_messages_tagged_keeps_given_tokens():
    message = LabeledMessage(
        id="a",
        text="ignored",
        label="positive",
        tagged=(("Good", "A"), ("day", "N")),
    )
    prepared = prepare_messages([message])
    assert prepared[0].tokens.surfaces() == ["Good", "day"]
    assert [t.pos_tag for t in prepared[0].tokens.tokens] == ["A", "N"]


def test_prepare_raw_defaults_to_neutral():
    prepared = prepare_raw([("1", "hello there"), ("2", "bye")])
    assert [p.label for p in prepared] == ["neutral", "neutral"]
    assert [p.id for p in prepared] == ["1", "2"]


def test_vector_extraction_lengths():
    prepared = prepare_raw([("1", "hello"), ("2", "not fun ."), ("3", "")])
    assert len(extract_message_vectors(prepared)) == 3
    instances = [
        TermInstance(id="t", text="good stuff", label="positive", start=0, end=0)
    ]
    assert len(extract_term_vectors(instances)) == 1


TRAIN_MESSAGES = [
    LabeledMessage(id=f"p{i}", text=t, label="positive")
    for i, t in enumerate(["good great fun", "so good and great", "great fun day"])
] + [
    LabeledMessage(id=f"n{i}", text=t, label="negative")
    for i, t in enumerate(["bad sad loss", "so bad and sad", "sad loss day"])
] + [
    LabeledMessage(id=f"u{i}", text=t, label="neutral")
    for i, t in enumerate(["desk chair table", "the desk and chair", "table desk day"])
]
TEST_MESSAGES = [
    LabeledMessage(id="t1", text="good great stuff", label="positive"),
    LabeledMessage(id="t2", text="bad sad stuff", label="negative"),
    LabeledMessage(id="t3", text="desk chair stuff", label="neutral"),
]


def test_run_message_experiment_separable():
    result = run_message_experiment(TRAIN_MESSAGES, TEST_MESSAGES, C=1.0)
    assert result.report.macro_f == 100.0
    assert result.report.n == 3
    # The trained model is directly usable.
    vectors = extract_message_vectors(prepare_messages(TEST_MESSAGES))
    assert predict(result.model, vectors[0]) == "positive"


def test_run_message_experiment_deterministic():
    first = run_message_experiment(TRAIN_MESSAGES, TEST_MESSAGES, C=1.0)
    second = run_message_experiment(TRAIN_MESSAGES, TEST_MESSAGES, C=1.0)
    assert first.report == second.report
    np.testing.assert_array_equal(first.model.weights, second.model.weights)


def _term(i, text, label, start, end):
    return TermInstance(id=f"i{i}", text=text, label=label, start=start, end=end)


def test_run_experiment_term_separable():
    train = [
        _term(0, "the good stuff", "positive", 1, 1),
        _term(1, "a great catch there", "positive", 1, 1),
        _term(2, "the bad stuff", "negative", 1, 1),
        _term(3, "a sad catch there", "negative", 1, 1),
        _term(4, "the desk stuff", "neutral", 1, 1),
        _term(5, "a table catch there", "neutral", 1, 1),
    ]
    test = [
        _term(6, "very good here", "positive", 1, 1),
        _term(7, "very bad here", "negative", 1, 1),
        _term(8, "very desk here", "neutral", 1, 1),
    ]
    result = run_experiment("term", train, test, C=1.0)
    assert result.report.macro_f == 100.0


def test_featurize_returns_ids_labels_and_vectors():
    rows = prepare("message", TEST_MESSAGES)
    ids, labels, vectors = featurize("message", rows)
    assert ids == ["t1", "t2", "t3"]
    assert labels == ["positive", "negative", "neutral"]
    assert vectors == extract_message_vectors(rows)
    _, _, without = featurize("message", rows, removed="word-ngrams")
    assert not any(n.startswith("wng|") for v in without for n in v.entries)
    with pytest.raises(ValueError, match="unknown task 'tweet'"):
        featurize("tweet", rows)
    with pytest.raises(ValueError, match="unknown feature group 'target'"):
        featurize("message", rows, removed="target")


def test_ablation_prepares_each_corpus_once(monkeypatch):
    seen = []

    def counting_tokenize(text):
        seen.append(text)
        return tokenize(text)

    monkeypatch.setattr(pipeline, "tokenize", counting_tokenize)
    rows = run_ablation(["word-ngrams", "negation"], TRAIN_MESSAGES, TEST_MESSAGES)
    assert len(rows) == 3
    assert len(seen) == len(TRAIN_MESSAGES) + len(TEST_MESSAGES)


def test_term_instances_are_tokenized_once(tmp_path, monkeypatch):
    instances, lexicon = make_term_corpus(n=30, seed=2)
    path = tmp_path / "terms.tsv"
    write_term_corpus(instances, path)
    seen = []

    def counting_tokenize(text):
        seen.append(text)
        return tokenize(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("tweetsent") and getattr(module, "tokenize", None) is tokenize:
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
    rows = prepare("term", pipeline.load_corpus("term", path))
    _, _, vectors = featurize("term", rows, [lexicon])
    assert len(vectors) == len(seen) == len(instances)


def test_make_message_corpus():
    messages, lexicon = make_message_corpus(n=60, seed=3)
    assert len(messages) == 60
    assert [m.id for m in messages[:2]] == ["m0", "m1"]
    assert {m.label for m in messages} <= {"positive", "negative", "neutral"}
    assert lexicon.kind == "manual"
    assert lexicon.name == "planted"
    again, _ = make_message_corpus(n=60, seed=3)
    assert [m.text for m in again] == [m.text for m in messages]
    other, _ = make_message_corpus(n=60, seed=4)
    assert [m.text for m in other] != [m.text for m in messages]


def test_make_term_corpus():
    instances, lexicon = make_term_corpus(n=80, seed=5)
    assert len(instances) == 80
    for inst in instances:
        n_tokens = len(inst.text.split())
        assert 0 <= inst.start <= inst.end < n_tokens
    assert {inst.label for inst in instances} == {
        "positive", "negative", "neutral",
    }
    assert lexicon.kind == "manual"


def test_make_emoticon_corpus():
    rows, pos_words, neg_words = make_emoticon_corpus(n=40, seed=2)
    assert len(rows) == 40
    assert all(text.endswith((":)", ":(")) for _, text in rows)
    assert not set(pos_words) & set(neg_words)
