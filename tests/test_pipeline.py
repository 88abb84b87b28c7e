import hashlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from tweetsent import cli, features_message, features_term, pipeline
from tweetsent.corpus_io import (
    LabeledMessage,
    Lexicon,
    TermInstance,
    load_cluster_map,
    load_lexicon,
    write_message_corpus,
    write_term_corpus,
)
from tweetsent.features_message import MessageFeatureConfig, extract_message_features
from tweetsent.features_term import build_split_vocabulary
from tweetsent.linear_model import predict, train
from tweetsent.pipeline import (
    extract_message_vectors,
    extract_term_vectors,
    featurize,
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
    vectors = extract_message_vectors(TEST_MESSAGES)
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
    ids, labels, vectors = featurize("message", TEST_MESSAGES)
    assert ids == ["t1", "t2", "t3"]
    assert labels == ["positive", "negative", "neutral"]
    assert vectors == extract_message_vectors(TEST_MESSAGES)
    with pytest.raises(ValueError, match="unknown task 'tweet'"):
        featurize("tweet", TEST_MESSAGES)
    with pytest.raises(ValueError, match="the term task has no feature config"):
        featurize("term", [], config=MessageFeatureConfig())


def _count_tokenize_calls(monkeypatch) -> list[str]:
    """Route ``tokenize`` in every tweetsent module through a recorder."""
    seen = []

    def counting_tokenize(text):
        seen.append(text)
        return tokenize(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("tweetsent") and getattr(module, "tokenize", None) is tokenize:
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
    return seen


def test_messages_are_tokenized_once(tmp_path, monkeypatch):
    write_message_corpus(TRAIN_MESSAGES, tmp_path / "train.tsv")
    write_message_corpus(TEST_MESSAGES, tmp_path / "test.tsv")
    seen = _count_tokenize_calls(monkeypatch)
    train_rows, test_rows = (
        pipeline.load_corpus("message", tmp_path / f"{part}.tsv")
        for part in ("train", "test")
    )
    featurize("message", train_rows)
    groups = list(pipeline.TASKS["message"].ablations)
    rows = run_ablation(groups, train_rows, test_rows)
    assert len(rows) == len(groups) + 1
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
            "e4429ba82bbdca3f8e28397f5316f518f8dbf12b8a921a70c009be0669758d00"
        ),
        "word-ngrams": (
            "0edbf9cc7cd6027585daa50544fc5e3895803785780ca8703a1953a0c9682e25"
        ),
        "char-ngrams": (
            "367ba780d003c4e37f43907fdad1824d9bf97e6362050b8aa619c17657cd2514"
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
            "02e8e4fc1a68b3537977fe7f3cc7afc8afb0065ca2148aba431233bd63b18edc"
        ),
        "word-ngrams": (
            "a244e30733db106714e30e2200b4d418467d7ecadce4a34a4ac73e43c58578dc"
        ),
        "char-ngrams": (
            "ce2a31248df4fdde48e5ecba81186460c300d2c3f8a1826895be60bca50a1111"
        ),
        "negation": (
            "8000427030932a2c0e79d1baf455342907d3d98ea226b48c92b07a5e85b43e62"
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
            "506ede8246eb0eed76dcc57490c578e5533666faa1f9c4ab5ff5b8ff40f0e458"
        ),
        "lexicons": (
            "d186540d28e54f49b001fcdb489015e2cb42c4fbd525d2f6cb046eaafaea27ec"
        ),
        "manual-lex": (
            "aa68098e5d088f0e9d53cd3de00c51fc8287110fc7bb208f53f78e39ef3d6415"
        ),
        "auto-lex": (
            "88440d87f5c76297466d44ffee7a5c1ba8fdc6ddad507e22bb57fcb15f5452b2"
        ),
        "target": (
            "2229fcf6c90e50d106d3dd957d971cbd76f1416e520a4f8703f909524fc5104c"
        ),
        "context": (
            "447f553d6ee8a502a4685dde91b15722189a24b99be76476bea5f97a0ceb9444"
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


def _record_models(monkeypatch) -> list:
    """The list that every model ``pipeline`` trains from now on joins."""
    models = []

    def recording_train(*args, **kwargs):
        models.append(train(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(pipeline, "train", recording_train)
    return models


def _model_digest(model) -> str:
    """sha256 of a model's weight bytes and dictionary names."""
    digest = hashlib.sha256(model.weights.tobytes())
    digest.update("\n".join(model.dictionary.names).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("fixture", ["plain", "tagged", "term"])
def test_ablation_models_match_pinned_hashes(fixture, monkeypatch):
    task, train_data, test_data, lexicons, clusters = _golden(fixture)
    models = _record_models(monkeypatch)
    groups = list(pipeline.TASKS[task].ablations)
    run_ablation(groups, train_data, test_data, task, lexicons, clusters, C=0.05)
    digests = {
        group: _model_digest(model)
        for group, model in zip(["all", *groups], models, strict=True)
    }
    assert digests == ABLATION_MODEL_SHA256[fixture]


# sha256 of each fold's model, as in ABLATION_MODEL_SHA256, when a golden
# fixture's training corpus is cross-validated with k=3, seed=5 and C=0.05.
CV_MODEL_SHA256 = {
    "plain": [
        "9a6e6ba802d160ea8aae2cb8f261d592c6a934a5b3090f6399f2f8106962426e",
        "f7632120dfa260f127737c8cae838c84683d0d3c322fe29086b8a229f7875fd1",
        "47dc50dcb5a6ff9ab0e160484ac50de2d6e32c931c4071253497eb60131ac2a0",
    ],
    "tagged": [
        "63484de1a7e4636828080fdc9c53dfd23d07aa655f3d01d72baad75f598f4631",
        "dba75b36c60449baf32b7f87340bbdd4d0245e8c9b90c9622bd0adef72289abc",
        "3780c5079633893fb791b7c680d50653ea783d47b1b9130206f057dc0d3eac29",
    ],
    "term": [
        "d9cc28e5868a6c42919db274a3e7bcbc1d31e5d72ba9ef15083cd6f3caf2a36d",
        "e360d22dd5dc422a0deedc33e9564452b912787d02566aebeb8a74897f414573",
        "1621fc1f7f2a271d2bc8f9f7805de7a852d776b549828621552ef56596273040",
    ],
}


@pytest.mark.parametrize("fixture", ["plain", "tagged", "term"])
def test_cross_validation_models_match_pinned_hashes(fixture, monkeypatch):
    task, train_data, _, lexicons, clusters = _golden(fixture)
    _, labels, vectors = featurize(task, train_data, lexicons, clusters)
    models = _record_models(monkeypatch)
    pipeline.cross_validate(*pipeline.index(vectors), labels, k=3, seed=5, C=0.05)
    assert [_model_digest(m) for m in models] == CV_MODEL_SHA256[fixture]


@pytest.mark.parametrize("fixture", ["plain", "tagged", "term"])
def test_every_feature_name_has_one_namespace(fixture):
    task, train_data, test_data, lexicons, clusters = _golden(fixture)
    namespaces = pipeline.TASKS[task].namespaces
    for data in (train_data, test_data):
        _, _, vectors = featurize(task, data, lexicons, clusters)
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


def _entry_order_digest(fixture):
    task, train_data, test_data, lexicons, clusters = _golden(fixture)
    digest = hashlib.sha256()
    for data in (train_data, test_data):
        _, _, vectors = featurize(task, data, lexicons, clusters)
        for vector in vectors:
            for name, value in vector.entries.items():
                digest.update(f"{name}\t{value!r}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("fixture", ["plain", "tagged", "term"])
def test_extracted_entries_match_pinned_hash(fixture):
    assert _entry_order_digest(fixture) == ENTRY_ORDER_SHA256[fixture]


# Each memo of names per token surface, with its bound, a key that no
# golden fixture uses, and the fixtures whose extraction reads it.
MEMOS = {
    "char-ngrams": (
        features_message._char_ngrams,
        features_message.CHAR_NGRAM_MEMO,
        lambda k: (f"filler{k}", features_message.CHAR_NGRAM_SIZES),
        ("plain", "tagged"),
    ),
    "affixes": (
        features_term._affixes,
        features_term.AFFIX_MEMO,
        lambda k: ("tgt", f"filler{k}", features_term.PREFIX_SIZES),
        ("term",),
    ),
}


@pytest.mark.parametrize("name", MEMOS)
def test_extracted_entries_do_not_depend_on_a_memo(name):
    memo, bound, filler, fixtures = MEMOS[name]
    assert memo.cache_info().maxsize == bound

    def overfill():
        for k in range(bound + 100):
            memo(*filler(k))
        assert memo.cache_info().currsize == bound

    # Cleared, then warm from the cleared pass, then full of other keys.
    for state in (memo.cache_clear, lambda: None, overfill):
        state()
        for fixture in fixtures:
            assert _entry_order_digest(fixture) == ENTRY_ORDER_SHA256[fixture]
            assert memo.cache_info().currsize <= bound


def test_message_docstring_lists_the_declared_namespaces():
    doc = features_message.__doc__
    listed = re.findall(r"^  (\w+\|)", doc, flags=re.MULTILINE)
    assert listed == list(pipeline.TASKS["message"].namespaces)


# The lexicon kinds each lexicon group's run keeps.
KEPT_LEXICON_KINDS = {"lexicons": (), "manual-lex": ("auto",), "auto-lex": ("manual",)}


@pytest.mark.parametrize("fixture", ["plain", "tagged"])
def test_removing_a_group_equals_extracting_without_it(fixture, check_select_columns):
    task, train_data, _, lexicons, clusters = _golden(fixture)
    spec = pipeline.TASKS[task]
    assert set(KEPT_LEXICON_KINDS) == set(pipeline.LEXICON_GROUPS)
    _, _, full = featurize(task, train_data, lexicons, clusters)
    for group, kinds in KEPT_LEXICON_KINDS.items():
        kept = [lex for lex in lexicons if lex.kind in kinds]
        _, _, fresh = featurize(task, train_data, kept, clusters)
        prefixes = spec.removal(group, lexicons)
        check_select_columns(full, lambda name: not name.startswith(prefixes), fresh)


def test_removing_a_term_lexicon_group_equals_extracting_without_it(
    check_select_columns,
):
    _, train_data, _, lexicons, _ = _golden("term")
    spec = pipeline.TASKS["term"]
    _, _, full = featurize("term", train_data, lexicons)
    # Hashtags keep splitting with the words of every lexicon given.
    split_words = build_split_vocabulary(lexicons)
    for group, kinds in KEPT_LEXICON_KINDS.items():
        kept = [lex for lex in lexicons if lex.kind in kinds]
        fresh = extract_term_vectors(train_data, kept, split_words)
        prefixes = spec.removal(group, lexicons)
        check_select_columns(full, lambda name: not name.startswith(prefixes), fresh)


def _stratified_folds(labels, k, seed):
    """The folds ``cross_validate`` draws when every class has ``k`` rows."""
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for label in sorted(set(labels)):
        ids = [i for i, other in enumerate(labels) if other == label]
        for j, i in enumerate(rng.permutation(ids)):
            folds[j % k].append(int(i))
    return folds


@pytest.mark.parametrize("fixture", ["plain", "tagged", "term"])
def test_fold_and_edge_masks_equal_a_fresh_index(
    fixture, check_select_columns, monkeypatch
):
    """Each fold of the golden 3-fold split keeps the names its training
    rows use; keeping no column and keeping every column are the edges."""
    task, train_data, _, lexicons, clusters = _golden(fixture)
    _, labels, vectors = featurize(task, train_data, lexicons, clusters)
    models = _record_models(monkeypatch)
    pipeline.cross_validate(*pipeline.index(vectors), labels, k=3, seed=5, C=0.05)
    folds = _stratified_folds(labels, 3, 5)
    for held, model in zip(folds, models, strict=True):
        used = [i for i in range(len(vectors)) if i not in held]
        names = {name for i in used for name in vectors[i].entries}
        kept = check_select_columns(vectors, names.__contains__, vectors, used)
        assert kept.names == model.dictionary.names
    empty = [features_message.FeatureVector() for _ in vectors]
    assert check_select_columns(vectors, lambda name: False, empty).size == 0
    check_select_columns(vectors, lambda name: True, vectors)


def _count_index_calls(monkeypatch) -> dict[str, int]:
    """Calls of ``pipeline``'s dictionary builder and ``vectorize`` from now on."""
    calls = {"build_feature_dictionary": 0, "vectorize": 0}

    def counting(name):
        wrapped = getattr(pipeline, name)

        def call(*args):
            calls[name] += 1
            return wrapped(*args)

        return call

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    return calls


def test_ablation_and_cross_validation_index_each_corpus_once(monkeypatch, tmp_path):
    """Only the ``negation`` run builds a second dictionary and indexes
    the training corpus again; ``train --cv K --model`` indexes its
    corpus once for both."""
    calls = _count_index_calls(monkeypatch)
    groups = list(pipeline.TASKS["message"].ablations)
    run_ablation(groups, TRAIN_MESSAGES, TEST_MESSAGES)
    n, m = len(TRAIN_MESSAGES), len(TEST_MESSAGES)
    assert calls == {"build_feature_dictionary": 2, "vectorize": 2 * n + m}
    calls.update(build_feature_dictionary=0, vectorize=0)
    _, labels, vectors = featurize("message", TRAIN_MESSAGES)
    pipeline.cross_validate(*pipeline.index(vectors), labels, k=3, C=1.0)
    assert calls == {"build_feature_dictionary": 1, "vectorize": n}
    calls.update(build_feature_dictionary=0, vectorize=0)
    corpus, model = tmp_path / "train.tsv", tmp_path / "model.tsv"
    write_message_corpus(TRAIN_MESSAGES, corpus)
    argv = ["train", "--input", str(corpus), "--cv", "3", "--model", str(model)]
    assert cli.main(argv) == 0
    assert calls == {"build_feature_dictionary": 1, "vectorize": n}


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


def test_message_vectors_reject_an_affect_named_like_a_negated_one():
    # Negated "positive" scores would be written as "positive_NEG"'s.
    lexicon = Lexicon(
        name="lex",
        affects=("positive", "positive_NEG"),
        entries={"good": {"positive": 1.0, "positive_NEG": 2.0}},
    )
    rows = prepare_raw([("1", "good day , not good")])
    with pytest.raises(
        ValueError,
        match="lexicon 'lex' has affects 'positive' and 'positive_NEG'",
    ):
        extract_message_vectors(rows, [lexicon])
    # Terms carry no negation suffix, so the term task takes the lexicon.
    instances = [TermInstance(id="t", text="good", label="positive", start=0, end=0)]
    assert extract_term_vectors(instances, [lexicon])


def test_term_instances_are_tokenized_once(tmp_path, monkeypatch):
    instances, lexicon = make_term_corpus(n=30, seed=2)
    path = tmp_path / "terms.tsv"
    write_term_corpus(instances, path)
    seen = _count_tokenize_calls(monkeypatch)
    rows = pipeline.load_corpus("term", path)
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
