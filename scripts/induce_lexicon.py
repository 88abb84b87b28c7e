"""Induce a lexicon from emoticon-labeled text and check sign recovery.

Builds a corpus where emoticons track a hidden word polarity, induces
a PMI lexicon, and reports how many planted words come back with the
right sign.
"""

import argparse

from tweetsent.lexicon_builder import build_lexicon
from tweetsent.synthetic import make_emoticon_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--messages", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=11)
    # Left out, it stays out of args and build_lexicon's default applies.
    parser.add_argument("--min-count", type=int, default=argparse.SUPPRESS)
    args = parser.parse_args()
    induction = {"min_count": args.min_count} if "min_count" in args else {}

    rows, pos_words, neg_words = make_emoticon_corpus(
        n=args.messages, seed=args.seed
    )
    lexicon = build_lexicon(rows, "emoticon", **induction)
    print(f"{len(lexicon.entries)} entries")

    right = wrong = missing = 0
    for word, expected_sign in [(w, 1) for w in pos_words] + [
        (w, -1) for w in neg_words
    ]:
        entry = lexicon.entries.get(f"uni:{word}")
        if entry is None:
            missing += 1
        elif entry["positive"] * expected_sign > 0:
            right += 1
        else:
            wrong += 1
    print(f"planted words: {right} right, {wrong} wrong, {missing} unseen")

    scored = sorted(
        ((e["positive"], term) for term, e in lexicon.entries.items()),
        reverse=True,
    )
    print("\nstrongest positive")
    for score, term in scored[:5]:
        print(f"  {score:+.3f}  {term}")
    print("strongest negative")
    for score, term in scored[-5:]:
        print(f"  {score:+.3f}  {term}")


if __name__ == "__main__":
    main()
