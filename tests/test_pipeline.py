import hashlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from tweetsent import features_message, pipeline
from tweetsent.corpus_io import (
    LabeledMessage,
    Lexicon,
    TermInstance,
    load_cluster_map,
    load_lexicon,
    write_term_corpus,
)
from tweetsent.features_message import MessageFeatureConfig, extract_message_features
from tweetsent.features_term import build_split_vocabulary
from tweetsent.linear_model import predict, train
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
    with pytest.raises(ValueError, match="unknown task 'tweet'"):
        featurize("tweet", rows)
    with pytest.raises(ValueError, match="the term task has no feature config"):
        featurize("term", [], config=MessageFeatureConfig())


def test_ablation_prepares_each_corpus_once(monkeypatch):
    seen = []

    def counting_tokenize(text):
        seen.append(text)
        return tokenize(text)

    monkeypatch.setattr(pipeline, "tokenize", counting_tokenize)
    rows = run_ablation(["word-ngrams", "negation"], TRAIN_MESSAGES, TEST_MESSAGES)
    assert len(rows) == 3
    assert len(seen) == len(TRAIN_MESSAGES) + len(TEST_MESSAGES)


DATA = Path(__file__).parent / "data"
# sha256 of each ablation run's weight bytes and dictionary names on the
# golden fixtures, by removed group ("all" is the full feature set).
ABLATION_MODEL_SHA256 = {
    "plain": {
        "all": (
            "20c2c87e6550551ef21131be75f33b048783b89e1403d52252d83c584e90ad34"
        ),
        "lexicons": (
            "c89502a7b73d41283f7af07e571c49522163ce0827b07a06e11fd4d0b6b92290"
        ),
        "manual-lex": (
            "5e3e2cc4b2aac10f32cf91955fc92e33f2f4e7b4884f3363b83ef46a5848b7e2"
        ),
        "auto-lex": (
            "721e57d889172d502501a470d6580468196036270769d388e6da248aeeaa7556"
        ),
        "ngrams": (
            "e5793ec0e1b10f145e16b73f625109ec794283eeed980990747234a75db685fc"
        ),
        "word-ngrams": (
            "23efd282b0829e8b8e96cddb64ca134ace8374fbcfc1ddb0ff996e0fa8d76202"
        ),
        "char-ngrams": (
            "6831a5f4dcd709ab0a98a58d19e4a9eff69980b3452b590c5e57669af50c0631"
        ),
        "negation": (
            "81e516613cadcb533441dead701e79dfffc1cf306cf63c35d404d39d169f80e3"
        ),
        "pos": (
            "20c2c87e6550551ef21131be75f33b048783b89e1403d52252d83c584e90ad34"
        ),
        "clusters": (
            "fb339b5e023395e2673fb7b634a35eac235098ac8a5ac8cf1e0b50871b12dfc3"
        ),
        "encodings": (
            "9d66572bfd3f8596718a9684b81e1a143886210fa4e14c2e69dd294bff43f604"
        ),
    },
    "tagged": {
        "all": (
            "b0ac90e19f5c0d74a81dae1ea08912ac4baf88fcee0664dff3e04fe37533c84c"
        ),
        "lexicons": (
            "b8dfa0bc40c1333d80b846d05cb1ac0f24cf2e941e09bc912a6aaccba53e4c22"
        ),
        "manual-lex": (
            "c7dbd714f70f18d1f35c7c67a6a578e515f71a82669cd09e9419ed5c028a0e14"
        ),
        "auto-lex": (
            "54fd9b01cfefd26b36d54bca2f9041e5ebce1a4de006cee3366f838cbd0ca262"
        ),
        "ngrams": (
            "cf9b7efd92ef847f5d7d93f3daced801f7b9277ee58ed3c3752ec35263b3c6ba"
        ),
        "word-ngrams": (
            "e77fa2d963cf8343b9114e8a5a7cd2ac1b689b86a5f89ce5450e25e5414f32cc"
        ),
        "char-ngrams": (
            "5757efe46f60a9b82befbf9a1f107cada5d8cd40895e8091811ec11c90f409cc"
        ),
        "negation": (
            "b643431ca056ca52f019a587fceb9e8246059890b36ab7b1a3e575c87f1dd732"
        ),
        "pos": (
            "43868a2b63c9a485f77e2d897785080bc7b544b2fa590a7d610e8dab4b72d719"
        ),
        "clusters": (
            "6e136505b2b64a27700790010782242d6e0a3c48fa9abb0ffd09ea07e8679fe3"
        ),
        "encodings": (
            "31288527b2b3410ef3ae9bb0929e4e702381a7e6b77745ce0feab0da188d8a81"
        ),
    },
    "term": {
        "all": (
            "99f92e10f1e2cadc047d6b9cfcc928cf0a86968786ed7a717315ec7dd027cd7c"
        ),
        "lexicons": (
            "b60ebf80708378a0b0aea563982238475f9888bea016e001a1646328ede72fc3"
        ),
        "manual-lex": (
            "b5665c36b74a629338fdaa63e872588bd3ea1daf123d7f762d976a7b065de930"
        ),
        "auto-lex": (
            "32ce08461021ed8507a90067c4106024c1490d3794c117541d76aae1af8fdfb2"
        ),
        "target": (
            "aa4322e14cf147f3cc0f90b34c33bcd630ea6ee8507d4753b864322ab4eb269d"
        ),
        "context": (
            "a091b4f668c9ad53e333af6037ead090da0a498b9faf3682709036f6f62a9312"
        ),
    },
}


def _golden(fixture):
    """Task, train and test corpora, lexicons and cluster map of a fixture."""
    task = "term" if fixture == "term" else "message"
    suffix = "_tagged" if fixture == "tagged" else ""
    folder = DATA / ("golden_term" if task == "term" else "golden_dump")
    manual = "manual.tsv" if task == "term" else "planted.tsv"
    lexicons = [
        load_lexicon(folder / manual, kind="manual"),
        load_lexicon(folder / "auto.tsv", kind="auto"),
    ]
    clusters = None if task == "term" else load_cluster_map(folder / "clusters.tsv")
    fmt = "tagged" if suffix else "plain"
    train_data, test_data = (
        pipeline.load_corpus(task, folder / f"{part}{suffix}.tsv", fmt)
        for part in ("train", "test")
    )
    return task, train_data, test_data, lexicons, clusters


@pytest.mark.parametrize("fixture", ["plain", "tagged", "term"])
def test_ablation_models_match_pinned_hashes(fixture, monkeypatch):
    task, train_data, test_data, lexicons, clusters = _golden(fixture)
    models = []

    def recording_train(*args, **kwargs):
        models.append(train(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(pipeline, "train", recording_train)
    groups = list(pipeline.TASKS[task].ablations)
    run_ablation(groups, train_data, test_data, task, lexicons, clusters, C=0.05)
    digests = {}
    for group, model in zip(["all", *groups], models, strict=True):
        digest = hashlib.sha256(model.weights.tobytes())
        digest.update("\n".join(model.dictionary.names).encode())
        digests[group] = digest.hexdigest()
    assert digests == ABLATION_MODEL_SHA256[fixture]


@pytest.mark.parametrize("fixture", ["plain", "tagged", "term"])
def test_every_feature_name_has_one_namespace(fixture):
    task, train_data, test_data, lexicons, clusters = _golden(fixture)
    namespaces = pipeline.TASKS[task].namespaces
    for data in (train_data, test_data):
        _, _, vectors = featurize(task, prepare(task, data), lexicons, clusters)
        names = {name for v in vectors for name in v.entries}
        assert names
        for name in names:
            assert sum(name.startswith(ns) for ns in namespaces) == 1, name


# sha256 of every entry extracted from a golden fixture's train and test
# corpora, in insertion order, as name and repr(value).  The golden feature
# dumps are sorted, so this pins the order in which extraction emits.
ENTRY_ORDER_SHA256 = {
    "plain": "5e35b46bf92562b99c9442391e7dae8f76616de55d666a61cfaaa121988481ef",
    "tagged": "07fc4e266a153b4800437970284c6f6376e0c46c5038dadb4df12bcf357b5e99",
    "term": "30c86d2128b87b01fbaf4f7fb1f1816cfc3e7499fc71b66ab570c75696b3e9c6",
}


@pytest.mark.parametrize("fixture", ["plain", "tagged", "term"])
def test_extracted_entries_match_pinned_hash(fixture):
    task, train_data, test_data, lexicons, clusters = _golden(fixture)
    digest = hashlib.sha256()
    for data in (train_data, test_data):
        _, _, vectors = featurize(task, prepare(task, data), lexicons, clusters)
        for vector in vectors:
            for name, value in vector.entries.items():
                digest.update(f"{name}\t{value!r}\n".encode())
    assert digest.hexdigest() == ENTRY_ORDER_SHA256[fixture]


def test_message_docstring_lists_the_declared_namespaces():
    doc = features_message.__doc__
    listed = re.findall(r"^  (\w+\|)", doc, flags=re.MULTILINE)
    assert listed == list(pipeline.TASKS["message"].namespaces)


# The lexicon kinds each lexicon group's run keeps.
KEPT_LEXICON_KINDS = {"lexicons": (), "manual-lex": ("auto",), "auto-lex": ("manual",)}


@pytest.mark.parametrize("fixture", ["plain", "tagged"])
def test_removing_a_group_equals_extracting_without_it(fixture, check_fit_without):
    task, train_data, _, lexicons, clusters = _golden(fixture)
    spec = pipeline.TASKS[task]
    assert set(KEPT_LEXICON_KINDS) == set(pipeline.LEXICON_GROUPS)
    rows = prepare(task, train_data)
    _, _, full = featurize(task, rows, lexicons, clusters)
    for group, kinds in KEPT_LEXICON_KINDS.items():
        kept = [lex for lex in lexicons if lex.kind in kinds]
        _, _, fresh = featurize(task, rows, kept, clusters)
        check_fit_without(full, spec.removal(group, lexicons), fresh)


def test_removing_a_term_lexicon_group_equals_extracting_without_it(
    check_fit_without,
):
    _, train_data, _, lexicons, _ = _golden("term")
    spec = pipeline.TASKS["term"]
    _, _, full = featurize("term", train_data, lexicons)
    # Hashtags keep splitting with the words of every lexicon given.
    split_words = build_split_vocabulary(lexicons)
    for group, kinds in KEPT_LEXICON_KINDS.items():
        kept = [lex for lex in lexicons if lex.kind in kinds]
        fresh = extract_term_vectors(train_data, kept, split_words)
        check_fit_without(full, spec.removal(group, lexicons), fresh)


@pytest.mark.parametrize(
    "groups, extractions",
    [
        (["word-ngrams", "lexicons", "encodings"], 1),
        (["negation"], 2),
        (list(pipeline.TASKS["message"].ablations), 2),
    ],
)
def test_ablation_extracts_each_row_once_and_again_only_for_negation(
    groups, extractions, monkeypatch
):
    seen = []

    def counting_extract(tokens, *args):
        seen.append(tokens)
        return extract_message_features(tokens, *args)

    monkeypatch.setattr(pipeline, "extract_message_features", counting_extract)
    rows = run_ablation(groups, TRAIN_MESSAGES, TEST_MESSAGES)
    assert len(rows) == len(groups) + 1
    assert len(seen) == extractions * (len(TRAIN_MESSAGES) + len(TEST_MESSAGES))


def test_vector_extractors_reject_clashing_lexicon_names():
    twins = [Lexicon(name="lex", affects=("positive",)) for _ in range(2)]
    rows = prepare_raw([("1", "good fun")])
    with pytest.raises(ValueError, match="two lexicons are named 'lex'"):
        extract_message_vectors(rows, twins)
    instances = [TermInstance(id="t", text="good", label="positive", start=0, end=0)]
    with pytest.raises(ValueError, match="two lexicons are named 'lex'"):
        extract_term_vectors(instances, twins)
    piped = [Lexicon(name="a|b", affects=("positive",))]
    with pytest.raises(ValueError, match=r"holds '\|'"):
        extract_term_vectors(instances, piped)


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
