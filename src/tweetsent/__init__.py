"""Sentiment analysis toolkit for short informal text.

The package covers the full pipeline: tokenization and normalization
of tweets and SMS, negation scoping, lexicon induction from weakly
labeled corpora, sparse feature extraction at message and term level,
a small linear SVM trained by dual coordinate descent, and evaluation
with the macro-averaged F score over the positive and negative
classes.
"""

__version__ = "0.1.0"
