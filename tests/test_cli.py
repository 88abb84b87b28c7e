import hashlib
import re
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tweetsent import pipeline
from tweetsent.cli import main
from tweetsent.corpus_io import (
    LabeledMessage,
    TermInstance,
    load_lexicon,
    write_message_corpus,
    write_raw_corpus,
    write_term_corpus,
)
from tweetsent.evaluation import format_report, macro_f_pos_neg, report_kv
from tweetsent.features_message import format_feature_dump
from tweetsent.linear_model import load_model, predict
from tweetsent.pipeline import extract_message_vectors
from tweetsent.synthetic import make_emoticon_corpus

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

TRAIN_TERMS = [
    TermInstance(id="i0", text="the good stuff", label="positive", start=1, end=1),
    TermInstance(id="i1", text="a great catch there", label="positive", start=1, end=1),
    TermInstance(id="i2", text="the bad stuff", label="negative", start=1, end=1),
    TermInstance(id="i3", text="a sad catch there", label="negative", start=1, end=1),
    TermInstance(id="i4", text="the desk stuff", label="neutral", start=1, end=1),
    TermInstance(id="i5", text="a table catch there", label="neutral", start=1, end=1),
]
TEST_TERMS = [
    TermInstance(id="i6", text="very good here", label="positive", start=1, end=1),
    TermInstance(id="i7", text="very bad here", label="negative", start=1, end=1),
    TermInstance(id="i8", text="very desk here", label="neutral", start=1, end=1),
]


@pytest.fixture
def message_files(tmp_path):
    train = tmp_path / "train.tsv"
    test = tmp_path / "test.tsv"
    write_message_corpus(TRAIN_MESSAGES, train)
    write_message_corpus(TEST_MESSAGES, test)
    return train, test


@pytest.fixture
def term_files(tmp_path):
    train = tmp_path / "train_terms.tsv"
    test = tmp_path / "test_terms.tsv"
    write_term_corpus(TRAIN_TERMS, train)
    write_term_corpus(TEST_TERMS, test)
    return train, test


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_and_evaluate_message(message_files, tmp_path, capsys):
    train, test = message_files
    model_path = tmp_path / "model.tsv"
    code, out, err = run(
        capsys, "train", "--input", str(train), "--model", str(model_path),
        "--C", "1",
    )
    assert code == 0
    assert err == ""
    assert out.startswith("wrote model (")
    assert str(model_path) in out
    assert model_path.exists()

    code, out, err = run(
        capsys, "evaluate", "--input", str(test), "--model", str(model_path)
    )
    assert code == 0
    # The printed report is exactly the library's formatting.
    model = load_model(model_path)
    vectors = extract_message_vectors(TEST_MESSAGES)
    predicted = [predict(model, v) for v in vectors]
    report = macro_f_pos_neg([m.label for m in TEST_MESSAGES], predicted)
    assert out == format_report(report)
    assert "macro_f  100.00" in out

    code, kv_out, _ = run(
        capsys, "evaluate", "--input", str(test), "--model", str(model_path),
        "--kv",
    )
    assert code == 0
    assert kv_out == report_kv(report)
    assert "macro_f\t100.00" in kv_out


def test_predict_message(message_files, tmp_path, capsys):
    train, test = message_files
    model_path = tmp_path / "model.tsv"
    run(capsys, "train", "--input", str(train), "--model", str(model_path),
        "--C", "1")
    code, out, err = run(
        capsys, "predict", "--input", str(test), "--model", str(model_path)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == ["t1\tpositive", "t2\tnegative", "t3\tneutral"]


def test_predict_raw_with_feature_dump(message_files, tmp_path, capsys):
    train, _ = message_files
    model_path = tmp_path / "model.tsv"
    run(capsys, "train", "--input", str(train), "--model", str(model_path),
        "--C", "1")
    raw = tmp_path / "raw.tsv"
    write_raw_corpus([("r1", "good great news"), ("r2", "bad sad news")], raw)
    dump = tmp_path / "features.txt"
    code, out, _ = run(
        capsys, "predict", "--input", str(raw), "--model", str(model_path),
        "--raw", "--dump-features", str(dump),
    )
    assert code == 0
    assert out.splitlines() == ["r1\tpositive", "r2\tnegative"]
    from tweetsent.pipeline import prepare_raw

    vectors = extract_message_vectors(
        prepare_raw([("r1", "good great news"), ("r2", "bad sad news")])
    )
    expected = (
        "# r1\n" + format_feature_dump(vectors[0])
        + "# r2\n" + format_feature_dump(vectors[1])
    )
    assert dump.read_text() == expected


def test_train_and_evaluate_term(term_files, tmp_path, capsys):
    train, test = term_files
    model_path = tmp_path / "model.tsv"
    code, out, _ = run(
        capsys, "train", "--task", "term", "--input", str(train),
        "--model", str(model_path), "--C", "1",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "evaluate", "--task", "term", "--input", str(test),
        "--model", str(model_path),
    )
    assert code == 0
    assert "macro_f  100.00" in out
    code, out, _ = run(
        capsys, "predict", "--task", "term", "--input", str(test),
        "--model", str(model_path),
    )
    assert code == 0
    assert out.splitlines() == ["i6\tpositive", "i7\tnegative", "i8\tneutral"]


@pytest.mark.parametrize(
    "argv,option",
    [
        (("predict", "--raw"), "--raw"),
        (("train", "--format", "tagged"), "--format"),
        (("train", "--clusters", "CLUSTERS"), "--clusters"),
        (("evaluate", "--clusters", "CLUSTERS"), "--clusters"),
    ],
    ids=["predict-raw", "train-tagged", "train-clusters", "evaluate-clusters"],
)
def test_term_task_rejects_message_options(argv, option, term_files, tmp_path, capsys):
    train, test = term_files
    model = tmp_path / "model.tsv"
    run(capsys, "train", "--task", "term", "--input", str(train), "--model", str(model))
    command, *flags = argv
    flags = [str(GOLDEN / "clusters.tsv") if f == "CLUSTERS" else f for f in flags]
    corpus = train if command == "train" else test
    code, out, err = run(
        capsys, command, "--task", "term", "--input", str(corpus),
        "--model", str(model), *flags,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: the term task ")
    assert f"({option})" in err


def test_raw_input_rejects_the_tagged_format(message_files, tmp_path, capsys):
    train, _ = message_files
    model = tmp_path / "model.tsv"
    run(capsys, "train", "--input", str(train), "--model", str(model))
    raw = tmp_path / "raw.tsv"
    write_raw_corpus([("r1", "Good/A day/N")], raw)
    code, out, err = run(
        capsys, "predict", "--input", str(raw), "--model", str(model),
        "--raw", "--format", "tagged",
    )
    assert (code, out) == (1, "")
    assert err == "error: raw input has no 'tagged' format (--format)\n"


def test_train_cv_deterministic(message_files, capsys):
    train, _ = message_files
    args = ("train", "--input", str(train), "--cv", "2", "--C", "1", "--seed", "9")
    code, first, _ = run(capsys, *args)
    assert code == 0
    lines = first.splitlines()
    assert lines[0].startswith("fold 0\t")
    assert lines[1].startswith("fold 1\t")
    assert lines[2].startswith("mean\t")
    code, second, _ = run(capsys, *args)
    assert second == first


def test_train_requires_model_or_cv(message_files, capsys):
    train, _ = message_files
    code, out, err = run(capsys, "train", "--input", str(train))
    assert code == 1
    assert "error: nothing to do: pass --model and/or --cv" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["train"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--input", "x", "--task", "bogus", "--model", "m"])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(["no-such-command"])
    assert exit_info.value.code == 2


def test_missing_input_file_exits_1(tmp_path, capsys):
    code, out, err = run(
        capsys, "train", "--input", str(tmp_path / "absent.tsv"), "--model",
        str(tmp_path / "m.tsv"),
    )
    assert code == 1
    assert err.startswith("error: ")


def test_corrupt_model_exits_1(message_files, tmp_path, capsys):
    _, test = message_files
    bad_model = tmp_path / "bad.tsv"
    bad_model.write_text("junk\n")
    code, out, err = run(
        capsys, "evaluate", "--input", str(test), "--model", str(bad_model)
    )
    assert code == 1
    assert f"error: expected '# linear model' at line 1 of {bad_model}" in err


def test_truncated_model_exits_1(message_files, tmp_path, capsys):
    train, test = message_files
    model_path = tmp_path / "model.tsv"
    run(capsys, "train", "--input", str(train), "--model", str(model_path))
    lines = model_path.read_text().splitlines(keepends=True)
    model_path.write_text("".join(lines[:-1]))
    code, out, err = run(
        capsys, "predict", "--input", str(test), "--model", str(model_path)
    )
    assert code == 1
    assert out == ""
    assert "error: expected" in err
    assert "weight rows" in err


def test_non_utf8_model_exits_1(message_files, tmp_path, capsys):
    _, test = message_files
    bad_model = tmp_path / "latin1.tsv"
    bad_model.write_bytes("classes\tn\u00e9gative\n".encode("latin-1"))
    code, out, err = run(
        capsys, "predict", "--input", str(test), "--model", str(bad_model)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: not valid UTF-8 text in ")
    assert str(bad_model) in err
    assert "Traceback" not in err


def test_non_utf8_corpus_exits_1(tmp_path, capsys):
    latin1 = tmp_path / "latin1.tsv"
    latin1.write_bytes("m1\tpositive\tcaf\u00e9 ok\n".encode("latin-1"))
    code, out, err = run(
        capsys, "train", "--input", str(latin1), "--model", str(tmp_path / "m.tsv")
    )
    assert code == 1
    assert out == ""
    assert err == f"error: not valid UTF-8 text in {latin1}\n"
    assert "Traceback" not in err


def test_missing_class_exits_1(tmp_path, capsys):
    only_two = tmp_path / "two.tsv"
    write_message_corpus(
        [m for m in TRAIN_MESSAGES if m.label != "neutral"], only_two
    )
    code, out, err = run(
        capsys, "train", "--input", str(only_two), "--model",
        str(tmp_path / "m.tsv"),
    )
    assert code == 1
    assert "error: class 'neutral' absent from training data" in err


def test_cross_validation_fold_missing_a_class_exits_1(tmp_path, capsys, monkeypatch):
    """The lone neutral row is held out by one fold, whose training rows
    then lack the class; no fold trains before the error."""
    monkeypatch.setattr(pipeline, "train", lambda *args, **kwargs: pytest.fail())
    seven = tmp_path / "seven.tsv"
    labels = ["positive"] * 3 + ["negative"] * 3 + ["neutral"]
    write_message_corpus(
        [LabeledMessage(i, f"row {i}", label) for i, label in zip("abcdefg", labels)],
        seven,
    )
    with pytest.warns(UserWarning, match="fewer than 3"):
        code, out, err = run(capsys, "train", "--input", str(seven), "--cv", "3")
    assert (code, out) == (1, "")
    assert err == "error: fold 2: class 'neutral' absent from training rows\n"


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--C", "nan", "C must be finite and positive, got nan"),
        ("--C", "inf", "C must be finite and positive, got inf"),
        ("--C", "-1", "C must be finite and positive, got -1.0"),
        ("--C", "0", "C must be finite and positive, got 0.0"),
        ("--tol", "nan", "tol must be finite and positive, got nan"),
        ("--max-epochs", "0", "max_epochs must be at least 1, got 0"),
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
    ],
)
def test_bad_hyperparameters_exit_1(flag, value, message, message_files, tmp_path, capsys):
    train, _ = message_files
    model_path = tmp_path / "model.tsv"
    code, out, err = run(
        capsys, "train", "--input", str(train), "--model", str(model_path),
        flag, value,
    )
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    assert not model_path.exists()


def test_tab_in_tagged_column_exits_1(tmp_path, capsys):
    tagged = tmp_path / "tagged.tsv"
    tagged.write_text("a\tpositive\tgood day\tgood/A\tday/N\n", encoding="utf-8")
    model_path = tmp_path / "model.tsv"
    code, out, err = run(
        capsys, "train", "--format", "tagged", "--input", str(tagged),
        "--model", str(model_path),
    )
    assert (code, out) == (1, "")
    assert err == f"error: expected 4 tab-separated fields at line 1 of {tagged}, got 5\n"
    assert not model_path.exists()


@pytest.mark.parametrize(
    "score,message",
    [
        ("nan", "non-finite score 'nan' at line 2 of {lexicon}"),
        ("inf", "non-finite score 'inf' at line 2 of {lexicon}"),
        ("1e400", "non-finite score '1e400' at line 2 of {lexicon}"),
        # Finite, but "good good" squares past the largest float.
        ("1e308", "training row 0 has a non-finite squared norm"),
    ],
)
def test_non_finite_lexicon_values_exit_1(score, message, message_files, tmp_path, capsys):
    train, _ = message_files
    lexicon = tmp_path / "big.tsv"
    lexicon.write_text(f"bad\tnegative\t-1\ngood\tpositive\t{score}\n")
    model_path = tmp_path / "model.tsv"
    code, out, err = run(
        capsys, "train", "--input", str(train), "--lexicon", str(lexicon),
        "--model", str(model_path),
    )
    assert (code, out) == (1, "")
    assert err == f"error: {message.format(lexicon=lexicon)}\n"
    assert not model_path.exists()


def test_lexicons_sharing_a_name_exit_1(message_files, tmp_path, capsys):
    """Two lexicons named alike would overwrite each other's features."""
    train, _ = message_files
    paths = []
    for folder in ("a", "b"):
        (tmp_path / folder).mkdir()
        paths.append(tmp_path / folder / "lex.tsv")
        paths[-1].write_text("good\tpositive\t1\nbad\tnegative\t-1\n")
    model_path = tmp_path / "model.tsv"
    code, out, err = run(
        capsys, "train", "--input", str(train), "--lexicon", str(paths[0]),
        "--auto-lexicon", str(paths[1]), "--model", str(model_path),
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: two lexicons are named 'lex' "
        "(a lexicon read from a file is named after the file's stem)\n"
    )
    assert not model_path.exists()


@pytest.mark.parametrize("stem", ["a|b", "t\tb", "t\rb"])
def test_lexicon_names_that_split_feature_names_exit_1(
    stem, message_files, tmp_path, capsys
):
    train, _ = message_files
    lexicon = tmp_path / f"{stem}.tsv"
    lexicon.write_text("good\tpositive\t1\n")
    model_path = tmp_path / "model.tsv"
    code, out, err = run(
        capsys, "train", "--input", str(train), "--lexicon", str(lexicon),
        "--model", str(model_path),
    )
    assert (code, out) == (1, "")
    assert err == f"error: lexicon name {stem!r} holds '|', a tab or a line break\n"
    assert not model_path.exists()


def test_lexicon_affect_named_like_a_negated_one_exits_1(
    message_files, tmp_path, capsys
):
    train, _ = message_files
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("good\tpositive\t1\ngood\tpositive_NEG\t2\n")
    model_path = tmp_path / "model.tsv"
    code, out, err = run(
        capsys, "train", "--input", str(train), "--lexicon", str(lexicon),
        "--model", str(model_path),
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: lexicon 'lex' has affects 'positive' and 'positive_NEG': the "
        "negated features of the first would take the names of the second\n"
    )
    assert not model_path.exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_lexicon_affect_named_like_a_negated_one_exits_1_on_empty_input(
    command, message_files, tmp_path, capsys
):
    train, _ = message_files
    model_path = tmp_path / "model.tsv"
    run(capsys, "train", "--input", str(train), "--model", str(model_path))
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_text("good\tpositive\t1\ngood\tpositive_NEG\t2\n")
    code, out, err = run(
        capsys, command, "--input", str(empty), "--model", str(model_path),
        "--lexicon", str(lexicon),
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: lexicon 'lex' has affects 'positive' and ")


def test_cv_with_more_folds_than_rows_exits_1(message_files, capsys):
    train, _ = message_files
    code, out, err = run(capsys, "train", "--input", str(train), "--cv", "10")
    assert (code, out) == (1, "")
    assert err == "error: k = 10 folds but only 9 rows\n"


def test_build_lexicon(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    rows = [
        ("1", "good fun :)"), ("2", "good day :)"), ("3", "fun time :)"),
        ("4", "bad loss :("), ("5", "bad day :("), ("6", "sad loss :("),
    ]
    write_raw_corpus(rows, raw)
    out_path = tmp_path / "induced.tsv"
    code, out, err = run(
        capsys, "build-lexicon", "--input", str(raw), "--labeling", "emoticon",
        "--min-count", "1", "--out", str(out_path),
    )
    assert code == 0
    lexicon = load_lexicon(out_path, kind="auto")
    assert out.strip() == f"wrote {len(lexicon.entries)} terms to {out_path}"
    assert lexicon.name == "induced"
    assert lexicon.entries["uni:good"]["positive"] > 0
    assert lexicon.entries["uni:bad"]["positive"] < 0


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--alpha", "nan", "alpha must be finite and positive, got nan"),
        ("--alpha", "0", "alpha must be finite and positive, got 0.0"),
        ("--pair-window", "0", "pair_window must be at least 1, got 0"),
        ("--min-count", "0", "min_count must be at least 1, got 0"),
        ("--min-count", "-3", "min_count must be at least 1, got -3"),
    ],
)
def test_build_lexicon_bad_settings_exit_1(tmp_path, capsys, flag, value, message):
    raw = tmp_path / "raw.tsv"
    write_raw_corpus([("1", "good fun :)"), ("2", "bad day :(")], raw)
    out_path = tmp_path / "induced.tsv"
    code, out, err = run(
        capsys, "build-lexicon", "--input", str(raw), "--labeling", "emoticon",
        "--min-count", "1", "--out", str(out_path), flag, value,
    )
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out_path.exists()


def test_build_lexicon_errors(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    write_raw_corpus([("1", "nothing here")], raw)
    code, _, err = run(
        capsys, "build-lexicon", "--input", str(raw), "--labeling", "emoticon",
        "--out", str(tmp_path / "o.tsv"),
    )
    assert code == 1
    assert "error: no labeled messages" in err
    code, _, err = run(
        capsys, "build-lexicon", "--input", str(raw), "--labeling", "hashtag",
        "--out", str(tmp_path / "o.tsv"),
    )
    assert code == 1
    assert "error: hashtag labeling requires a seed set" in err


def test_build_lexicon_emoticon_labeling_rejects_seeds(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    write_raw_corpus([("1", "good fun :)"), ("2", "bad day :(")], raw)
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text("happy\tpositive\n", encoding="utf-8")
    out_path = tmp_path / "induced.tsv"
    code, out, err = run(
        capsys, "build-lexicon", "--input", str(raw), "--labeling", "emoticon",
        "--seeds", str(seeds), "--min-count", "1", "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == "error: emoticon labeling takes no seed set (--seeds)\n"
    assert not out_path.exists()


def test_build_lexicon_seed_listed_under_both_polarities_exits_1(tmp_path, capsys):
    raw = tmp_path / "raw.tsv"
    write_raw_corpus([("1", "good day #happy"), ("2", "bad day #sad")], raw)
    seeds = tmp_path / "seeds.tsv"
    seeds.write_text(
        "happy\tpositive\nhappy\tnegative\njoy\tpositive\nsad\tnegative\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "induced.tsv"
    code, out, err = run(
        capsys, "build-lexicon", "--input", str(raw), "--labeling", "hashtag",
        "--seeds", str(seeds), "--min-count", "1", "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == (
        f"error: seed 'happy' is listed as both positive and negative at line 2 "
        f"of {seeds}\n"
    )
    assert not out_path.exists()


def test_ablate_tsv(message_files, capsys):
    train, test = message_files
    code, out, err = run(
        capsys, "ablate", "--input", str(train), "--test", str(test),
        "--groups", "clusters,pos", "--C", "1", "--tsv",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("all\t")
    assert lines[1].endswith("\t0.00")
    assert lines[2].endswith("\t0.00")


def test_ablate_table_output(message_files, capsys):
    train, test = message_files
    code, out, _ = run(
        capsys, "ablate", "--input", str(train), "--test", str(test),
        "--groups", "word-ngrams", "--C", "1",
    )
    assert code == 0
    assert out.splitlines()[0].split() == ["removed", "macro_f", "delta"]


@pytest.mark.parametrize(
    "golden,groups,warned",
    [
        # pos on the plain golden fixture, which carries no POS tags.
        (
            True,
            "pos,encodings,negation",
            {"pos": "no training feature starts with 'pos|'"},
        ),
        (
            False,
            "negation,auto-lex,clusters,word-ngrams",
            {
                "negation": "no training or test message has a negated context",
                "auto-lex": "no lexicon of its kind was given",
                "clusters": "no training feature starts with 'cls|'",
            },
        ),
    ],
)
def test_ablation_groups_that_remove_nothing_warn(
    message_files, capsys, golden, groups, warned
):
    """Such a group keeps its row with delta 0.00 and warns once, naming
    the group and why; a group that removes something does not warn."""
    train, test = message_files
    if golden:
        train, test = GOLDEN / "train.tsv", GOLDEN / "test.tsv"
    with pytest.warns(UserWarning, match="removes nothing") as record:
        code, out, err = run(
            capsys, "ablate", "--input", str(train), "--test", str(test),
            "--groups", groups, "--lexicon", str(GOLDEN / "planted.tsv"),
            "--C", "0.05", "--tsv",
        )
    assert (code, err) == (0, "")
    rows = dict(line.split("\t", 1) for line in out.splitlines())
    assert list(rows) == ["all", *groups.split(",")]
    assert [str(w.message) for w in record] == [
        f"ablation group '{group}' removes nothing: {reason}"
        for group, reason in warned.items()
    ]
    assert all(rows[group].endswith("\t0.00") for group in warned)


def test_ablate_unknown_group_exits_1(message_files, capsys):
    train, test = message_files
    code, _, err = run(
        capsys, "ablate", "--input", str(train), "--test", str(test),
        "--groups", "bogus",
    )
    assert code == 1
    assert "unknown feature group 'bogus'" in err


def test_evaluate_byte_deterministic(message_files, tmp_path, capsys):
    train, test = message_files
    model_path = tmp_path / "model.tsv"
    run(capsys, "train", "--input", str(train), "--model", str(model_path),
        "--C", "1", "--seed", "3")
    first_model = model_path.read_bytes()
    args = ("evaluate", "--input", str(test), "--model", str(model_path), "--kv")
    _, first, _ = run(capsys, *args)
    run(capsys, "train", "--input", str(train), "--model", str(model_path),
        "--C", "1", "--seed", "3")
    assert model_path.read_bytes() == first_model
    _, second, _ = run(capsys, *args)
    assert second == first


GOLDEN = Path(__file__).parent / "data" / "golden_dump"
# sha256 of the model files that train writes from the golden fixture.
GOLDEN_MODEL_SHA256 = {
    "plain": "6976df44734f3b6aee4846bf6367b14b27b45c7c2c28ac44ebaab9ba4bbac9fc",
    "tagged": "b5aaf250fde9893d6bced05b657aab8f987c1d3669b9275c1b99b3a6f6bdf191",
}


@pytest.mark.parametrize("fmt", ["plain", "tagged"])
def test_train_then_dump_features_matches_golden(fmt, tmp_path, capsys):
    """Models, predictions and --dump-features output stay byte-identical.

    The fixture has plain or tagged messages with negations, hashtags,
    caps, elongations, emoticons, urls, mentions and non-ASCII letters,
    and a planted lexicon with uni, bi and pair terms.
    """
    suffix = "" if fmt == "plain" else "_tagged"
    lexicon = str(GOLDEN / "planted.tsv")
    model = tmp_path / "model.tsv"
    dump = tmp_path / "features.txt"
    code, _, err = run(
        capsys, "train", "--input", str(GOLDEN / f"train{suffix}.tsv"),
        "--model", str(model), "--lexicon", lexicon, "--format", fmt, "--C", "1",
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(model.read_bytes()).hexdigest() == GOLDEN_MODEL_SHA256[fmt]
    code, out, err = run(
        capsys, "predict", "--input", str(GOLDEN / f"test{suffix}.tsv"),
        "--model", str(model), "--lexicon", lexicon, "--format", fmt,
        "--dump-features", str(dump),
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"expected_predictions{suffix}.txt").read_bytes()
    assert dump.read_bytes() == (GOLDEN / f"expected_features{suffix}.txt").read_bytes()


@pytest.mark.parametrize("fmt", ["plain", "tagged"])
def test_evaluate_kv_matches_golden(fmt, tmp_path, capsys):
    suffix = "" if fmt == "plain" else "_tagged"
    lexicon = str(GOLDEN / "planted.tsv")
    model = tmp_path / "model.tsv"
    common = ("--lexicon", lexicon, "--format", fmt)
    run(capsys, "train", "--input", str(GOLDEN / f"train{suffix}.tsv"),
        "--model", str(model), "--C", "1", *common)
    code, out, err = run(
        capsys, "evaluate", "--input", str(GOLDEN / f"test{suffix}.tsv"),
        "--model", str(model), "--kv", *common,
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"expected_eval_kv{suffix}.txt").read_bytes()


MESSAGE_GROUPS = (
    "lexicons,manual-lex,auto-lex,ngrams,word-ngrams,char-ngrams,"
    "negation,pos,clusters,encodings"
)


@pytest.mark.parametrize("fmt", ["plain", "tagged"])
def test_message_ablate_and_cv_match_golden(fmt, capsys):
    """Every message ablation variant and the CV folds stay byte-identical.

    Both runs use a manual and an auto lexicon and a cluster map, so
    each group removes something, except ``pos`` on plain input.
    """
    suffix = "" if fmt == "plain" else "_tagged"
    resources = (
        "--format", fmt, "--lexicon", str(GOLDEN / "planted.tsv"),
        "--auto-lexicon", str(GOLDEN / "auto.tsv"),
        "--clusters", str(GOLDEN / "clusters.tsv"), "--C", "0.05",
    )
    code, out, err = run(
        capsys, "ablate", "--input", str(GOLDEN / f"train{suffix}.tsv"),
        "--test", str(GOLDEN / f"test{suffix}.tsv"), "--groups", MESSAGE_GROUPS,
        "--tsv", *resources,
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"expected_ablation{suffix}.tsv").read_bytes()
    code, out, err = run(
        capsys, "train", "--input", str(GOLDEN / f"train{suffix}.tsv"),
        "--cv", "3", "--seed", "5", *resources,
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"expected_cv{suffix}.txt").read_bytes()


def _cli_in_child(blas_threads: str, *argv: str, warning: str = "") -> bytes:
    """stdout of ``python -m tweetsent.cli argv`` run in a child process
    whose OpenBLAS uses ``blas_threads`` threads.  Its stderr must be
    empty, or hold only ``warning`` as a UserWarning when one is given."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-m", "tweetsent.cli", *argv],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0
    if warning:
        pattern = rf"[^\n]*: UserWarning: {re.escape(warning)}\n[^\n]*\n"
        assert re.fullmatch(pattern, done.stderr.decode())
    else:
        assert done.stderr == b""
    return done.stdout


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Models, reports, and the ablation tables and cross-validation folds
    of both tasks keep their bytes whether numpy's BLAS runs on one
    thread or on two."""
    lexicon = ("--lexicon", str(GOLDEN / "planted.tsv"))
    term_lexicons = (
        "--lexicon", str(GOLDEN_TERM / "manual.tsv"),
        "--auto-lexicon", str(GOLDEN_TERM / "auto.tsv"),
    )
    term_train = ("train", "--task", "term", "--input", str(GOLDEN_TERM / "train.tsv"))
    outputs = {}
    for threads in ("1", "2"):
        model = tmp_path / f"model{threads}.tsv"
        _cli_in_child(
            threads, "train", "--input", str(GOLDEN / "train.tsv"),
            "--model", str(model), "--C", "1", *lexicon,
        )
        kv = _cli_in_child(
            threads, "evaluate", "--input", str(GOLDEN / "test.tsv"),
            "--model", str(model), "--kv", *lexicon,
        )
        table = _cli_in_child(
            threads, "ablate", "--input", str(GOLDEN / "train.tsv"),
            "--test", str(GOLDEN / "test.tsv"), "--groups", MESSAGE_GROUPS,
            "--tsv", *lexicon, "--auto-lexicon", str(GOLDEN / "auto.tsv"),
            "--clusters", str(GOLDEN / "clusters.tsv"), "--C", "0.05",
            warning="ablation group 'pos' removes nothing: "
            "no training feature starts with 'pos|'",
        )
        folds = _cli_in_child(
            threads, "train", "--input", str(GOLDEN / "train.tsv"),
            "--cv", "3", "--seed", "5", *lexicon,
            "--auto-lexicon", str(GOLDEN / "auto.tsv"),
            "--clusters", str(GOLDEN / "clusters.tsv"), "--C", "0.05",
        )
        term_folds = _cli_in_child(
            threads, *term_train, "--cv", "3", "--seed", "5", *term_lexicons,
            "--C", "0.05",
        )
        term_table = _cli_in_child(
            threads, "ablate", *term_train[1:], "--test",
            str(GOLDEN_TERM / "test.tsv"), *term_lexicons,
            "--groups", "lexicons,manual-lex,auto-lex,target,context",
            "--C", "0.05", "--tsv",
        )
        outputs[threads] = (
            model.read_bytes(), kv, table, folds, term_folds, term_table
        )
    assert outputs["1"] == outputs["2"]
    model, kv, table, folds, term_folds, term_table = outputs["1"]
    assert hashlib.sha256(model).hexdigest() == GOLDEN_MODEL_SHA256["plain"]
    assert kv == (GOLDEN / "expected_eval_kv.txt").read_bytes()
    assert table == (GOLDEN / "expected_ablation.tsv").read_bytes()
    assert folds == (GOLDEN / "expected_cv.txt").read_bytes()
    assert term_folds == (GOLDEN_TERM / "expected_cv.txt").read_bytes()
    assert term_table == (GOLDEN_TERM / "expected_ablation.tsv").read_bytes()


GOLDEN_TERM = Path(__file__).parent / "data" / "golden_term"
GOLDEN_TERM_MODEL_SHA256 = (
    "bd18406095e5e4e86461ea8e0de8cc98c1c290c8b0c279c4972bb6e4a479ce66"
)


def test_term_task_matches_golden(tmp_path, capsys):
    """Term models, reports, dumps, CV folds and ablations stay byte-identical.

    Some test hashtags split only with words from the lexicons, so the
    ``lexicons`` ablation row pins that the split vocabulary comes from
    every lexicon given, not from the ones left active.
    """
    lexicons = (
        "--lexicon", str(GOLDEN_TERM / "manual.tsv"),
        "--auto-lexicon", str(GOLDEN_TERM / "auto.tsv"),
    )
    train = ("--task", "term", "--input", str(GOLDEN_TERM / "train.tsv"))
    test = ("--task", "term", "--input", str(GOLDEN_TERM / "test.tsv"))
    model = tmp_path / "model.tsv"
    dump = tmp_path / "features.txt"
    code, _, err = run(
        capsys, "train", *train, *lexicons, "--C", "0.05", "--model", str(model)
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(model.read_bytes()).hexdigest() == GOLDEN_TERM_MODEL_SHA256
    code, out, err = run(
        capsys, "evaluate", *test, *lexicons, "--model", str(model), "--kv"
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_TERM / "expected_eval_kv.txt").read_bytes()
    code, out, err = run(
        capsys, "predict", *test, *lexicons, "--model", str(model),
        "--dump-features", str(dump),
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_TERM / "expected_predictions.txt").read_bytes()
    assert dump.read_bytes() == (GOLDEN_TERM / "expected_features.txt").read_bytes()
    code, out, err = run(
        capsys, "train", *train, *lexicons, "--C", "0.05", "--cv", "3", "--seed", "5"
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_TERM / "expected_cv.txt").read_bytes()
    code, out, err = run(
        capsys, "ablate", *train, "--test", str(GOLDEN_TERM / "test.tsv"), *lexicons,
        "--groups", "lexicons,manual-lex,auto-lex,target,context", "--C", "0.05",
        "--tsv",
    )
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_TERM / "expected_ablation.tsv").read_bytes()


SOLVER_DEFAULTS = (
    "--C", "0.005", "--tol", "0.1", "--max-epochs", "1000", "--seed", "42"
)


def test_left_out_flags_take_the_library_defaults(tmp_path, capsys):
    """Without solver or induction flags, each command gives the bytes of
    a run that spells out the library defaults."""
    resources = (
        "--input", str(GOLDEN / "train.tsv"), "--lexicon", str(GOLDEN / "planted.tsv"),
        "--auto-lexicon", str(GOLDEN / "auto.tsv"),
        "--clusters", str(GOLDEN / "clusters.tsv"),
    )
    ablate = (
        "ablate", *resources, "--test", str(GOLDEN / "test.tsv"),
        "--groups", MESSAGE_GROUPS, "--tsv",
    )
    for argv in (("train", *resources, "--cv", "3"), ablate):
        outputs = [run(capsys, *argv, *flags) for flags in ((), SOLVER_DEFAULTS)]
        assert outputs[0][0] == 0
        assert outputs[0][1:] == outputs[1][1:]
    models = [tmp_path / "implicit.tsv", tmp_path / "explicit.tsv"]
    for model, flags in zip(models, ((), SOLVER_DEFAULTS)):
        code, _, err = run(capsys, "train", *resources, "--model", str(model), *flags)
        assert (code, err) == (0, "")
    assert models[0].read_bytes() == models[1].read_bytes()

    raw = tmp_path / "raw.tsv"
    write_raw_corpus(make_emoticon_corpus(n=200, seed=3)[0], raw)
    lexicons = [tmp_path / side / "induced.tsv" for side in ("implicit", "explicit")]
    for out_path, flags in zip(lexicons, ((), ("--min-count", "5", "--alpha", "0.5"))):
        out_path.parent.mkdir()
        code, _, err = run(
            capsys, "build-lexicon", "--input", str(raw), "--labeling", "emoticon",
            "--out", str(out_path), *flags,
        )
        assert (code, err) == (0, "")
    assert lexicons[0].read_bytes() == lexicons[1].read_bytes()
    assert len(load_lexicon(lexicons[0], kind="auto").entries) > 0
