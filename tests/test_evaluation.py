import random

import pytest
from hypothesis import given, strategies as st

from tweetsent.corpus_io import LabeledMessage
from tweetsent.evaluation import (
    format_ablation_table,
    format_ablation_tsv,
    format_report,
    macro_f_pos_neg,
    majority_baseline,
    report_kv,
)
from tweetsent.pipeline import TASKS, AblationRow, run_ablation

LABELS = ("negative", "neutral", "positive")


def distribution(positive, negative, neutral):
    return (
        ["positive"] * positive + ["negative"] * negative + ["neutral"] * neutral
    )


@pytest.mark.parametrize(
    "counts,expected",
    [
        # (positive, negative, neutral) gold counts and the all-majority score.
        ((1572, 601, 1640), 29.19),
        ((492, 394, 1208), 19.03),
        ((2734, 1541, 160), 38.13),
        ((1071, 1104, 159), 32.11),
    ],
)
def test_majority_scores_on_known_distributions(counts, expected):
    gold = distribution(*counts)
    predicted = [majority_baseline(gold)] * len(gold)
    assert macro_f_pos_neg(gold, predicted).macro_f == pytest.approx(
        expected, abs=0.01
    )


def test_negative_majority_distribution_predicts_negative():
    gold = distribution(1071, 1104, 159)
    assert majority_baseline(gold) == "negative"


def test_perfect_predictions_score_100():
    gold = distribution(3, 2, 1)
    report = macro_f_pos_neg(gold, gold)
    assert report.macro_f == 100.0
    assert report.precision["positive"] == 1.0
    assert report.recall["negative"] == 1.0


def test_all_neutral_predictions_score_0():
    gold = distribution(2, 2, 2)
    report = macro_f_pos_neg(gold, ["neutral"] * 6)
    assert report.macro_f == 0.0
    assert report.precision["positive"] == 0.0
    assert report.f_score["negative"] == 0.0


def test_empty_input_scores_0():
    report = macro_f_pos_neg([], [])
    assert report.n == 0
    assert report.macro_f == 0.0


def test_neutral_errors_steal_precision():
    gold = ["positive", "neutral"]
    predicted = ["positive", "positive"]
    report = macro_f_pos_neg(gold, predicted)
    assert report.precision["positive"] == 0.5
    assert report.recall["positive"] == 1.0
    assert report.macro_f == pytest.approx(100 * (2 * 0.5 / 1.5) / 2)


def test_majority_rules():
    assert majority_baseline(["positive", "negative"]) == "positive"
    assert majority_baseline(["negative"] * 5 + ["positive"] * 2) == "negative"
    assert majority_baseline(["neutral", "neutral"]) == "positive"
    assert majority_baseline([]) == "positive"


def test_errors():
    with pytest.raises(ValueError, match="3 gold labels but 2 predictions"):
        macro_f_pos_neg(["positive"] * 3, ["positive"] * 2)
    with pytest.raises(ValueError, match="unknown gold label 'pos'"):
        macro_f_pos_neg(["pos"], ["positive"])
    with pytest.raises(ValueError, match="unknown predicted label 'x'"):
        macro_f_pos_neg(["positive"], ["x"])


@given(
    st.lists(
        st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)),
        min_size=1,
        max_size=30,
    )
)
def test_confusion_margins_and_permutation_invariance(pairs):
    gold = [g for g, _ in pairs]
    predicted = [p for _, p in pairs]
    report = macro_f_pos_neg(gold, predicted)
    for i, label in enumerate(LABELS):
        assert sum(report.confusion[i]) == gold.count(label)
        column = sum(report.confusion[j][i] for j in range(3))
        assert column == predicted.count(label)
    shuffled = pairs[:]
    random.Random(0).shuffle(shuffled)
    again = macro_f_pos_neg([g for g, _ in shuffled], [p for _, p in shuffled])
    assert again == report


def test_report_kv_golden():
    report = macro_f_pos_neg(["positive", "neutral"], ["positive", "positive"])
    expected = (
        "n\t2\n"
        "macro_f\t33.33\n"
        "precision_negative\t0.0000\n"
        "recall_negative\t0.0000\n"
        "f_negative\t0.0000\n"
        "precision_neutral\t0.0000\n"
        "recall_neutral\t0.0000\n"
        "f_neutral\t0.0000\n"
        "precision_positive\t0.5000\n"
        "recall_positive\t1.0000\n"
        "f_positive\t0.6667\n"
        "confusion_negative_negative\t0\n"
        "confusion_negative_neutral\t0\n"
        "confusion_negative_positive\t0\n"
        "confusion_neutral_negative\t0\n"
        "confusion_neutral_neutral\t0\n"
        "confusion_neutral_positive\t1\n"
        "confusion_positive_negative\t0\n"
        "confusion_positive_neutral\t0\n"
        "confusion_positive_positive\t1\n"
    )
    assert report_kv(report) == expected


def test_format_report_structure():
    report = macro_f_pos_neg(["positive", "neutral"], ["positive", "positive"])
    text = format_report(report)
    assert text.startswith("n        2\nmacro_f  33.33\n")
    lines = text.splitlines()
    assert any(line.startswith("confusion") for line in lines)
    for label in LABELS:
        assert any(line.startswith(label) for line in lines)
    # Stable across identical calls.
    assert format_report(report) == text


def _tiny_message_corpus():
    texts = {
        "positive": ["good great fun", "so good and great", "great fun day"],
        "negative": ["bad sad loss", "so bad and sad", "sad loss day"],
        "neutral": ["desk chair table", "the desk and chair", "table desk day"],
    }
    train = [
        LabeledMessage(id=f"{label[:3]}{i}", text=text, label=label)
        for label, rows in texts.items()
        for i, text in enumerate(rows)
    ]
    test = [
        LabeledMessage(id="t1", text="good great stuff", label="positive"),
        LabeledMessage(id="t2", text="bad sad stuff", label="negative"),
        LabeledMessage(id="t3", text="desk chair stuff", label="neutral"),
    ]
    return train, test


def test_ablation_shape_and_noop_groups():
    train, test = _tiny_message_corpus()
    with pytest.warns(UserWarning, match="removes nothing"):
        rows = run_ablation(["clusters", "pos"], train, test, C=1.0)
    assert [r.group for r in rows] == ["all", "clusters", "pos"]
    assert rows[0].delta == 0.0
    # Nothing tagged and no clusters loaded: removal changes nothing.
    assert rows[1].macro_f == rows[0].macro_f
    assert rows[1].delta == 0.0
    assert rows[2].delta == 0.0


def test_ablation_deterministic():
    train, test = _tiny_message_corpus()
    first = run_ablation(["word-ngrams", "char-ngrams"], train, test, C=1.0)
    second = run_ablation(["word-ngrams", "char-ngrams"], train, test, C=1.0)
    assert first == second


def test_ablation_group_names_case_insensitive():
    train, test = _tiny_message_corpus()
    with pytest.warns(UserWarning, match="'clusters' removes nothing"):
        rows = run_ablation(["Clusters"], train, test, C=1.0)
    assert rows[1].group == "clusters"


def test_ablation_errors():
    train, test = _tiny_message_corpus()
    with pytest.raises(ValueError, match="unknown task 'foo'"):
        run_ablation(["clusters"], train, test, task="foo")
    with pytest.raises(ValueError) as err:
        run_ablation(["bogus"], train, test)
    assert "unknown feature group 'bogus' for message task" in str(err.value)
    for group in TASKS["message"].ablations:
        assert group in str(err.value)
    with pytest.raises(ValueError) as err:
        run_ablation(["bogus"], [], [], task="term")
    for group in TASKS["term"].ablations:
        assert group in str(err.value)
    for groups in (["ngrams", "NGRAMS"], ["pos", "clusters", "pos"]):
        with pytest.raises(ValueError, match=f"group '{groups[0]}' is given twice"):
            run_ablation(groups, train, test)


def test_format_ablation_tsv_golden():
    rows = [
        AblationRow(group="all", macro_f=50.0, delta=0.0),
        AblationRow(group="lexicons", macro_f=45.5, delta=-4.5),
    ]
    assert format_ablation_tsv(rows) == "all\t50.00\t0.00\nlexicons\t45.50\t-4.50\n"


def test_format_ablation_table_alignment():
    rows = [
        AblationRow(group="all", macro_f=50.0, delta=0.0),
        AblationRow(group="lexicons", macro_f=45.5, delta=-4.5),
    ]
    lines = format_ablation_table(rows).splitlines()
    assert lines[0].split() == ["removed", "macro_f", "delta"]
    assert lines[1].split() == ["all", "50.00", "+0.00"]
    assert lines[2].split() == ["lexicons", "45.50", "-4.50"]
