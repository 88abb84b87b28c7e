import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from tweetsent.features_message import (
    build_feature_dictionary,
    select_columns,
    vectorize,
)

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def check_select_columns():
    """``check(full, keep, fresh, fit_rows=None)`` for ``select_columns``.

    ``check`` indexes the vectors ``full`` against a dictionary of all
    their names and selects the columns whose name ``keep`` accepts.  It
    asserts that the kept names equal a fresh dictionary built from the
    vectors ``fresh`` (only those at the positions ``fit_rows``, when
    given), and that each selected row has the dtypes and bytes of its
    ``fresh`` row vectorized against that fresh dictionary.  It returns
    the kept dictionary.
    """

    def check(full, keep, fresh, fit_rows=None):
        dictionary = build_feature_dictionary(full)
        rows = [vectorize(v, dictionary) for v in full]
        mask = np.array([keep(name) for name in dictionary.names], dtype=bool)
        kept, selected = select_columns(dictionary, rows, mask)
        fit = fresh if fit_rows is None else [fresh[i] for i in fit_rows]
        want = build_feature_dictionary(fit)
        assert kept.names == want.names
        for got, vector in zip(selected, fresh, strict=True):
            expected = vectorize(vector, want)
            for array, wanted in (
                (got.indices, expected.indices),
                (got.values, expected.values),
            ):
                assert array.dtype == wanted.dtype
                assert array.tobytes() == wanted.tobytes()
        return kept

    return check
