import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from tweetsent import pipeline
from tweetsent.features_message import build_feature_dictionary, vectorize

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def check_fit_without(monkeypatch):
    """``check(full, prefixes, fresh)`` for ``pipeline.fit(..., without=prefixes)``.

    With training stubbed out, ``check`` asserts that the dictionary
    ``fit`` builds from ``full`` has the names of a fresh dictionary
    built from ``fresh``, and that ``fit`` indexes each ``full`` row to
    the indices and values of its ``fresh`` row under that fresh
    dictionary.  It returns ``fit``'s dictionary.
    """
    monkeypatch.setattr(
        pipeline, "train", lambda indexed, labels, dictionary: (indexed, dictionary)
    )

    def check(full, prefixes, fresh):
        indexed, dictionary = pipeline.fit(full, [None] * len(full), without=prefixes)
        want = build_feature_dictionary(fresh)
        assert dictionary.names == want.names
        for got, vector in zip(indexed, fresh, strict=True):
            expected = vectorize(vector, want)
            assert got.indices.tobytes() == expected.indices.tobytes()
            assert got.values.tobytes() == expected.values.tobytes()
        return dictionary

    return check
