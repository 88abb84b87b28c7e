"""Loaders for the word lists bundled with the package."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources


def _read_words(text: str) -> frozenset[str]:
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


@lru_cache(maxsize=None)
def _bundled(filename: str) -> frozenset[str]:
    text = (resources.files("tweetsent") / "data" / filename).read_text("utf-8")
    return _read_words(text)


def default_negation_words() -> frozenset[str]:
    return _bundled("negation_words.txt")


def default_function_words() -> frozenset[str]:
    return _bundled("function_words.txt")


def default_stopwords() -> frozenset[str]:
    return _bundled("stopwords.txt")


def default_hashtag_words() -> frozenset[str]:
    return _bundled("hashtag_words.txt")
