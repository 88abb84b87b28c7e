"""Sentiment analysis toolkit for short informal text.

The package covers the full pipeline: tokenization and normalization
of tweets and SMS, negation scoping, lexicon induction from weakly
labeled corpora, sparse feature extraction at message and term level,
a small linear SVM trained by dual coordinate descent, and evaluation
with the macro-averaged F score over the positive and negative
classes.
"""

from .corpus_io import (
    CLASS_ORDER,
    ClusterMap,
    CorpusFormatError,
    LabeledMessage,
    Lexicon,
    TermInstance,
    load_cluster_map,
    load_lexicon,
    load_message_corpus,
    load_raw_corpus,
    load_term_corpus,
    write_lexicon,
)
from .evaluation import (
    EvalReport,
    format_report,
    macro_f_pos_neg,
    majority_baseline,
    run_ablation,
)
from .features_message import (
    DEFAULT_MESSAGE_CONFIG,
    FeatureDictionary,
    FeatureVector,
    IndexedVector,
    MessageFeatureConfig,
    build_feature_dictionary,
    extract_message_features,
    vectorize,
)
from .features_term import (
    TermFeatureConfig,
    extract_term_features,
    term_context,
)
from .lexicon_builder import (
    SeedSet,
    build_lexicon,
    count_cooccurrences,
    extract_candidates,
    pmi_score,
)
from .linear_model import (
    LinearModel,
    ModelFormatError,
    cross_validate,
    load_model,
    predict,
    save_model,
    train,
)
from .negation import (
    NegationAnnotation,
    apply_negation_suffix,
    flip_term_polarity,
    mark_negation,
)
from .pipeline import run_message_experiment, run_term_experiment
from .tokenizer import (
    Token,
    TokenizedMessage,
    emoticon_polarity,
    normalize,
    split_hashtag,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "CLASS_ORDER",
    "ClusterMap",
    "CorpusFormatError",
    "DEFAULT_MESSAGE_CONFIG",
    "EvalReport",
    "FeatureDictionary",
    "FeatureVector",
    "IndexedVector",
    "LabeledMessage",
    "Lexicon",
    "LinearModel",
    "MessageFeatureConfig",
    "ModelFormatError",
    "NegationAnnotation",
    "SeedSet",
    "TermFeatureConfig",
    "TermInstance",
    "Token",
    "TokenizedMessage",
    "apply_negation_suffix",
    "build_feature_dictionary",
    "build_lexicon",
    "count_cooccurrences",
    "cross_validate",
    "emoticon_polarity",
    "extract_candidates",
    "extract_message_features",
    "extract_term_features",
    "flip_term_polarity",
    "format_report",
    "load_cluster_map",
    "load_lexicon",
    "load_message_corpus",
    "load_model",
    "load_raw_corpus",
    "load_term_corpus",
    "macro_f_pos_neg",
    "majority_baseline",
    "mark_negation",
    "normalize",
    "pmi_score",
    "predict",
    "run_ablation",
    "run_message_experiment",
    "run_term_experiment",
    "save_model",
    "split_hashtag",
    "term_context",
    "tokenize",
    "train",
    "vectorize",
    "write_lexicon",
]
