"""Command-line interface.

Subcommands: ``build-lexicon``, ``train``, ``predict``, ``evaluate``
and ``ablate``.  Exit codes: 0 on success, 1 on processing errors
(missing files, malformed input, impossible requests), 2 on usage
errors.  All randomness flows through ``--seed``; no environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus_io import (
    load_cluster_map,
    load_lexicon,
    load_raw_corpus,
    load_seed_set,
    write_lexicon,
)
from .evaluation import (
    format_ablation_table,
    format_ablation_tsv,
    format_report,
    macro_f_pos_neg,
    report_kv,
)
from .features_message import format_feature_dump
from .lexicon_builder import build_lexicon
from .linear_model import load_model, predict, save_model, train
from .pipeline import (
    TASKS,
    cross_validate,
    featurize,
    index,
    load_corpus,
    run_ablation,
)


def _add_task_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", choices=tuple(TASKS), default="message")
    parser.add_argument(
        "--lexicon",
        action="append",
        default=[],
        metavar="FILE",
        help="hand-built lexicon TSV; repeatable",
    )
    parser.add_argument(
        "--auto-lexicon",
        action="append",
        default=[],
        metavar="FILE",
        help="corpus-induced lexicon TSV; repeatable",
    )
    parser.add_argument("--clusters", metavar="FILE", help="token cluster map TSV")
    parser.add_argument("--format", choices=("plain", "tagged"), default="plain")


def _load_lexicons(args) -> list:
    lexicons = [load_lexicon(p, kind="manual") for p in args.lexicon]
    lexicons += [load_lexicon(p, kind="auto") for p in args.auto_lexicon]
    return lexicons


# Solver and induction flags stay out of the parsed arguments unless
# given, so a left-out flag takes the default of the library function
# it goes to: linear_model.train or lexicon_builder.build_lexicon.
_SOLVER_FLAGS = ("C", "tol", "max_epochs", "seed")
_INDUCTION_FLAGS = ("min_count", "alpha", "per_message", "pair_window")


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--C", type=float, default=argparse.SUPPRESS)
    parser.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    parser.add_argument("--max-epochs", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)


def _given(args, flags: tuple[str, ...]) -> dict:
    """The values of the ``flags`` given on the command line, by name."""
    return {flag: getattr(args, flag) for flag in flags if hasattr(args, flag)}


def _clusters(args):
    return load_cluster_map(args.clusters) if args.clusters else None


def _featurize(args, path: str, raw: bool = False):
    """Ids, labels and feature vectors of the ``--task`` corpus at ``path``."""
    lexicons, clusters = _load_lexicons(args), _clusters(args)
    data = load_corpus(args.task, path, args.format, raw)
    return featurize(args.task, data, lexicons, clusters)


def cmd_build_lexicon(args) -> int:
    corpus = load_raw_corpus(args.input)
    seeds = load_seed_set(args.seeds) if args.seeds else None
    lexicon = build_lexicon(
        corpus,
        labeling=args.labeling,
        seeds=seeds,
        name=Path(args.out).stem,
        **_given(args, _INDUCTION_FLAGS),
    )
    write_lexicon(lexicon, args.out)
    print(f"wrote {len(lexicon.entries)} terms to {args.out}")
    return 0


def cmd_train(args) -> int:
    if not (args.cv or args.model):
        raise ValueError("nothing to do: pass --model and/or --cv")
    _, labels, vectors = _featurize(args, args.input)
    if not labels:
        raise ValueError(f"no rows in {args.input}")
    dictionary, rows = index(vectors)
    del vectors
    solver = _given(args, _SOLVER_FLAGS)
    if args.cv:
        scores = cross_validate(dictionary, rows, labels, k=args.cv, **solver)
        for i, s in enumerate(scores):
            print(f"fold {i}\t{s:.2f}")
        print(f"mean\t{sum(scores) / len(scores):.2f}")
    if args.model:
        model = train(rows, labels, dictionary, **solver)
        written = save_model(model, args.model)
        print(
            f"wrote model ({written} of {model.dictionary.size} features) "
            f"to {args.model}"
        )
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ids, _, vectors = _featurize(args, args.input, raw=args.raw)
    if args.dump_features:
        with Path(args.dump_features).open(
            "w", encoding="utf-8", newline="\n"
        ) as fh:
            for row_id, v in zip(ids, vectors):
                fh.write(f"# {row_id}\n")
                fh.write(format_feature_dump(v))
    for row_id, v in zip(ids, vectors):
        print(f"{row_id}\t{predict(model, v)}")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    _, labels, vectors = _featurize(args, args.input)
    if not labels:
        raise ValueError(f"no rows in {args.input}")
    report = macro_f_pos_neg(labels, [predict(model, v) for v in vectors])
    if args.kv:
        print(report_kv(report), end="")
    else:
        print(format_report(report), end="")
    return 0


def cmd_ablate(args) -> int:
    train_data = load_corpus(args.task, args.input, args.format)
    test_data = load_corpus(args.task, args.test, args.format)
    for path, data in ((args.input, train_data), (args.test, test_data)):
        if not data:
            raise ValueError(f"no rows in {path}")
    groups = [g for g in args.groups.split(",") if g]
    rows = run_ablation(
        groups,
        train_data,
        test_data,
        task=args.task,
        lexicons=_load_lexicons(args),
        clusters=_clusters(args),
        **_given(args, _SOLVER_FLAGS),
    )
    if args.tsv:
        print(format_ablation_tsv(rows), end="")
    else:
        print(format_ablation_table(rows), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetsent",
        description="Sentiment analysis over short informal text",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-lexicon", help="induce a lexicon from raw text")
    p.add_argument("--input", required=True, help="id<TAB>text corpus")
    p.add_argument("--labeling", choices=("hashtag", "emoticon"), required=True)
    p.add_argument("--seeds", help="hashtag<TAB>polarity seed file")
    p.add_argument("--min-count", type=int, default=argparse.SUPPRESS)
    p.add_argument("--alpha", type=float, default=argparse.SUPPRESS)
    p.add_argument("--per-message", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--pair-window", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_lexicon)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--input", required=True)
    _add_task_args(p)
    _add_train_args(p)
    p.add_argument("--cv", type=int, default=0, metavar="K")
    p.add_argument("--model", help="output model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label a corpus with a trained model")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    _add_task_args(p)
    p.add_argument("--raw", action="store_true", help="input is id<TAB>text")
    p.add_argument("--dump-features", metavar="FILE")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model on a labeled corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--model", required=True)
    _add_task_args(p)
    p.add_argument("--kv", action="store_true", help="key/value output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="score feature-group removals")
    p.add_argument("--input", required=True, help="training corpus")
    p.add_argument("--test", required=True, help="evaluation corpus")
    p.add_argument("--groups", required=True, help="comma-separated group names")
    _add_task_args(p)
    _add_train_args(p)
    p.add_argument("--tsv", action="store_true", help="TSV output")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
