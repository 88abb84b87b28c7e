"""Message-level experiment on the planted synthetic corpus.

Trains the full feature set, a unigram baseline and the majority
baseline, then runs a feature-group ablation.
"""

import argparse

from tweetsent.evaluation import (
    format_ablation_table,
    format_report,
    macro_f_pos_neg,
    majority_baseline,
)
from tweetsent.features_message import MessageFeatureConfig
from tweetsent.pipeline import run_ablation, run_message_experiment
from tweetsent.synthetic import make_message_corpus

GROUPS = [
    "lexicons", "ngrams", "word-ngrams", "char-ngrams",
    "negation", "pos", "clusters", "encodings",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    messages, lexicon = make_message_corpus(n=args.messages, seed=args.seed)
    split = int(len(messages) * 0.7)
    train, test = messages[:split], messages[split:]

    full = run_message_experiment(train, test, lexicons=[lexicon])
    print("full feature set")
    print(format_report(full.report))

    unigrams = run_message_experiment(
        train, test, config=MessageFeatureConfig.unigrams_only()
    )
    majority = majority_baseline([m.label for m in train])
    majority_f = macro_f_pos_neg(
        [m.label for m in test], [majority] * len(test)
    ).macro_f
    print(f"unigrams  {unigrams.report.macro_f:.2f}")
    print(f"majority  {majority_f:.2f}  (always '{majority}')")
    print()

    rows = run_ablation(GROUPS, train, test, lexicons=[lexicon])
    print(format_ablation_table(rows), end="")


if __name__ == "__main__":
    main()
