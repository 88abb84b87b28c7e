"""Term-level experiment: how much of the label lives in the target span.

Trains the full extractor on a synthetic term corpus, then removes the
target features, the context features and the lexicons in turn.
"""

import argparse

from tweetsent.evaluation import format_ablation_table, format_report
from tweetsent.pipeline import run_ablation, run_experiment
from tweetsent.synthetic import make_term_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=600)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    instances, lexicon = make_term_corpus(n=args.instances, seed=args.seed)
    split = int(len(instances) * 0.7)
    train, test = instances[:split], instances[split:]

    result = run_experiment("term", train, test, lexicons=[lexicon])
    print("full feature set")
    print(format_report(result.report))

    rows = run_ablation(
        ["target", "context", "lexicons"], train, test,
        task="term", lexicons=[lexicon],
    )
    print(format_ablation_table(rows), end="")


if __name__ == "__main__":
    main()
