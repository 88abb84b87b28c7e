import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from oracles import (
    oracle_kkt_violation,
    oracle_svm_dual,
    oracle_train_binary,
    oracle_train_binary_unshrunk,
)
from tweetsent import linear_model
from tweetsent.corpus_io import CLASS_ORDER
from tweetsent.features_message import (
    FeatureDictionary,
    FeatureVector,
    IndexedVector,
    vectorize,
)
from tweetsent.linear_model import (
    ConvergenceWarning,
    LinearModel,
    ModelFormatError,
    decision_values,
    load_model,
    predict,
    save_model,
    train,
)
from tweetsent.pipeline import cross_validate, featurize, index
from tweetsent.synthetic import make_message_corpus

BINARY = ("negative", "positive")


def make_dictionary(dim):
    names = tuple(f"f{i}" for i in range(dim))
    return FeatureDictionary(names)


def iv(dense):
    idx = [i for i, v in enumerate(dense) if v != 0]
    return IndexedVector(
        indices=np.array(idx, dtype=np.int64),
        values=np.array([dense[i] for i in idx], dtype=np.float64),
    )


def dense_rows(X):
    return [iv(row) for row in X]


def test_two_point_separable_is_exact():
    model = train(
        dense_rows([[1.0], [-1.0]]),
        ["positive", "negative"],
        make_dictionary(1),
        C=10.0,
        tol=1e-8,
        max_epochs=1000,
        classes=BINARY,
    )
    np.testing.assert_array_equal(
        model.weights, np.array([[-1.0, 0.0], [1.0, 0.0]])
    )


def test_duplicating_points_with_halved_c_gives_same_weights():
    X = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.5, -1.0]]
    labels = ["positive", "positive", "negative", "negative"]
    base = train(
        dense_rows(X), labels, make_dictionary(2),
        C=1.0, tol=1e-6, max_epochs=50_000, classes=BINARY,
    )
    doubled = train(
        dense_rows(X * 2), labels * 2, make_dictionary(2),
        C=0.5, tol=1e-6, max_epochs=50_000, classes=BINARY,
    )
    np.testing.assert_allclose(doubled.weights, base.weights, atol=1e-4)


_FIXTURE_X = [
    [1.0, 0.2],
    [0.8, -0.4],
    [0.1, 1.0],
    [-1.0, -0.3],
    [-0.6, 0.9],
    [0.0, -1.0],
]
_FIXTURE_LABELS = [
    "positive", "positive", "positive", "negative", "negative", "negative",
]


def _capped(fit, *args, max_epochs, **solver):
    """``fit(*args, max_epochs=max_epochs, **solver)``'s model, where a
    run capped on purpose may warn: each :class:`ConvergenceWarning` must
    name a class that ran all ``max_epochs`` sweeps."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always", ConvergenceWarning)
        model = fit(*args, max_epochs=max_epochs, **solver)
    stopped = {c for c, e in zip(model.class_order, model.epochs) if e == max_epochs}
    for w in record:
        assert w.category is ConvergenceWarning
        assert str(w.message).split("'")[1] in stopped
    return model


def _fixture_model(C=1.0, max_epochs=100_000):
    return train(
        dense_rows(_FIXTURE_X), _FIXTURE_LABELS, make_dictionary(2),
        C=C, tol=1e-6, max_epochs=max_epochs, classes=BINARY,
    )


def test_fixture_matches_projected_gradient_oracle():
    model = _fixture_model()
    X = np.array(_FIXTURE_X)
    for position, cls in enumerate(BINARY):
        y = np.array([1.0 if l == cls else -1.0 for l in _FIXTURE_LABELS])
        _, w_oracle = oracle_svm_dual(X, y, C=1.0)
        np.testing.assert_allclose(model.weights[position], w_oracle, atol=1e-4)


def test_fixture_satisfies_kkt_and_dual_feasibility():
    model = _fixture_model()
    X = np.array(_FIXTURE_X)
    for position, cls in enumerate(BINARY):
        y = np.array([1.0 if l == cls else -1.0 for l in _FIXTURE_LABELS])
        alpha = model.alphas[position]
        assert np.all(alpha >= 0.0)
        assert np.all(alpha <= 1.0)
        assert oracle_kkt_violation(X, y, 1.0, alpha) < 1e-4


def test_weights_equal_dual_expansion():
    model = _fixture_model()
    X = np.hstack([np.array(_FIXTURE_X), np.ones((6, 1))])
    for position, cls in enumerate(BINARY):
        y = np.array([1.0 if l == cls else -1.0 for l in _FIXTURE_LABELS])
        expansion = (model.alphas[position] * y) @ X
        np.testing.assert_allclose(model.weights[position], expansion, atol=1e-8)


def test_dual_objective_nondecreasing_per_epoch():
    # A run capped at k epochs draws the same permutations as the full run,
    # so it stops exactly after the full run's epoch k.
    full = _fixture_model()
    for position, epochs_run in enumerate(full.epochs):
        history = []
        for k in range(1, epochs_run + 1):
            model = _capped(_fixture_model, max_epochs=k)
            assert model.epochs[position] == k
            w = model.weights[position]
            history.append(model.alphas[position].sum() - 0.5 * (w * w).sum())
        assert np.array_equal(model.weights[position], full.weights[position])
        assert np.all(np.diff(np.array(history)) >= -1e-9)


def test_empty_feature_vector_uses_bias_only():
    model = train(
        [iv([1.0]), iv([0.0])],
        ["positive", "negative"],
        make_dictionary(1),
        C=1.0, tol=1e-8, max_epochs=10_000, classes=BINARY,
    )
    scores = decision_values(model, iv([0.0]))
    np.testing.assert_allclose(scores, model.weights[:, -1])


def test_train_errors():
    d = make_dictionary(2)
    with pytest.raises(ValueError, match="empty training data"):
        train([], [], d, classes=BINARY)
    with pytest.raises(ValueError, match="2 vectors but 1 labels"):
        train(dense_rows([[1, 0], [0, 1]]), ["positive"], d, classes=BINARY)
    with pytest.raises(ValueError, match="label 'neutral' not in classes"):
        train(dense_rows([[1, 0]]), ["neutral"], d, classes=BINARY)
    with pytest.raises(ValueError, match="class 'neutral' absent"):
        train(
            dense_rows([[1, 0], [0, 1]]), ["positive", "negative"], d,
            classes=CLASS_ORDER,
        )
    bad = IndexedVector(
        indices=np.array([5], dtype=np.int64), values=np.array([1.0])
    )
    with pytest.raises(ValueError, match="feature index 5 out of range"):
        train([bad, iv([1, 0])], ["positive", "negative"], d, classes=BINARY)


@pytest.mark.parametrize(
    "setting,message",
    [
        ({"C": float("nan")}, "C must be finite and positive, got nan"),
        ({"C": float("inf")}, "C must be finite and positive, got inf"),
        ({"C": -1.0}, "C must be finite and positive, got -1.0"),
        ({"C": 0.0}, "C must be finite and positive, got 0.0"),
        ({"tol": float("nan")}, "tol must be finite and positive, got nan"),
        ({"tol": 0.0}, "tol must be finite and positive, got 0.0"),
        ({"max_epochs": 0}, "max_epochs must be at least 1, got 0"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
    ],
)
def test_train_rejects_bad_hyperparameters(setting, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        train(
            dense_rows([[1, 0], [0, 1]]), ["positive", "negative"],
            make_dictionary(2), classes=BINARY, **setting,
        )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e308])
def test_train_rejects_rows_with_non_finite_squared_norm(value):
    # 1e308 is finite, but its square overflows.
    with pytest.raises(ValueError, match="training row 1 has a non-finite squared norm"):
        train(
            dense_rows([[1, 0], [value, 1]]), ["positive", "negative"],
            make_dictionary(2), classes=BINARY,
        )


def test_predict_tie_breaks_to_first_class():
    d = make_dictionary(1)
    model = LinearModel(
        class_order=CLASS_ORDER,
        weights=np.zeros((3, 2)),
        dictionary=d,
        C=1.0,
        tol=0.1,
    )
    assert predict(model, FeatureVector({"f0": 1.0})) == "negative"


def test_decision_values_golden():
    d = make_dictionary(2)
    model = LinearModel(
        class_order=BINARY,
        weights=np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]]),
        dictionary=d,
        C=1.0,
        tol=0.1,
    )
    scores = decision_values(model, iv([2.0, 1.0]))
    np.testing.assert_array_equal(scores, [2.0 + 2.0 + 3.0, -1.0 + 1.0])
    too_large = IndexedVector(
        indices=np.array([2], dtype=np.int64), values=np.array([1.0])
    )
    with pytest.raises(ValueError, match="larger dictionary"):
        decision_values(model, too_large)


def _one_hot_corpus():
    vectors = [
        FeatureVector(entries={"f_pos": 1.0}),
        FeatureVector(entries={"f_pos": 1.0}),
        FeatureVector(entries={"f_neg": 1.0}),
        FeatureVector(entries={"f_neg": 1.0}),
        FeatureVector(entries={"f_neu": 1.0}),
        FeatureVector(entries={"f_neu": 1.0}),
    ]
    labels = ["positive"] * 2 + ["negative"] * 2 + ["neutral"] * 2
    return vectors, labels


def test_cross_validate_separable():
    vectors, labels = _one_hot_corpus()
    scores = cross_validate(*index(vectors), labels, k=2, C=1.0, tol=0.01)
    assert scores == [100.0, 100.0]


def test_cross_validate_deterministic_per_seed():
    vectors, labels = _one_hot_corpus()
    first = cross_validate(*index(vectors), labels, k=2, seed=7, C=1.0, tol=0.01)
    second = cross_validate(*index(vectors), labels, k=2, seed=7, C=1.0, tol=0.01)
    assert first == second


def test_cross_validate_small_class_fallback():
    vectors, labels = _one_hot_corpus()
    with pytest.warns(UserWarning, match="fewer than 3"):
        scores = cross_validate(*index(vectors), labels, k=3, C=1.0, tol=0.01)
    assert len(scores) == 3


def test_cross_validate_errors():
    vectors, labels = _one_hot_corpus()
    with pytest.raises(ValueError, match="k must be at least 2"):
        cross_validate(*index(vectors), labels, k=1)
    with pytest.raises(ValueError, match="6 vectors but 5 labels"):
        cross_validate(*index(vectors), labels[:-1], k=2)
    with pytest.raises(ValueError, match="k = 7 folds but only 6 rows"):
        cross_validate(*index(vectors), labels, k=7)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        cross_validate(*index(vectors), labels, k=2, seed=-1)
    # As many folds as rows is leave-one-out.
    with pytest.warns(UserWarning, match="fewer than 6"):
        assert len(cross_validate(*index(vectors), labels, k=6, C=1.0)) == 6


def test_save_load_round_trip(tmp_path):
    model = _fixture_model()
    path = tmp_path / "model.tsv"
    save_model(model, path)
    first = path.read_bytes()
    loaded = load_model(path)
    assert loaded.class_order == model.class_order
    assert loaded.dictionary == model.dictionary
    assert loaded.C == model.C
    assert loaded.tol == model.tol
    np.testing.assert_allclose(loaded.weights, model.weights, rtol=1e-8)
    save_model(loaded, path)
    assert path.read_bytes() == first


@settings(max_examples=20, deadline=None)
@given(
    st.integers(30, 90),
    st.integers(0, 2**16),
    st.sampled_from([0.005, 0.1, 1.0]),
)
def test_saved_model_predicts_like_the_model_in_memory(tmp_path_factory, n, seed, C):
    """Reloading costs at most the 9-digit rounding of the weights.

    A prediction may change only where the in-memory decision values of
    the two classes involved are closer than that rounding can move them.
    """
    messages, lexicon = make_message_corpus(n=n, seed=seed)
    split = 2 * n // 3
    _, labels, vectors = featurize("message", messages[:split], [lexicon])
    assume(set(labels) == set(CLASS_ORDER))
    dictionary, rows = index(vectors)
    model = train(rows, labels, dictionary, C=C, seed=seed)
    path = tmp_path_factory.mktemp("model") / "model.tsv"
    save_model(model, path)
    loaded = load_model(path)
    _, _, test_vectors = featurize("message", messages[split:], [lexicon])
    for v in test_vectors:
        # The saved file holds only the features with a non-zero weight,
        # so each model indexes the row by its own dictionary.
        x = vectorize(v, model.dictionary)
        before = decision_values(model, x)
        after = decision_values(loaded, vectorize(v, loaded.dictionary))
        # %.9g leaves each weight a relative error of at most 5e-9; the
        # bound doubles that to cover the float arithmetic.
        scale = np.abs(model.weights[:, x.indices]) @ np.abs(x.values)
        bound = 1e-8 * (scale + np.abs(model.weights[:, -1]))
        assert (np.abs(after - before) <= bound).all()
        want, got = int(np.argmax(before)), int(np.argmax(after))
        if got != want:
            assert before[want] - before[got] <= bound[want] + bound[got]
        assert predict(loaded, v) == model.class_order[got]


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_pruned_file_decides_like_the_model_in_memory(tmp_path, seed):
    """Dropping all-zero features moves no decision value beyond 1e-12.

    The in-memory weights are first rounded to 9 digits as the file
    rounds them, so only the pruning can differ.
    """
    messages, lexicon = make_message_corpus(n=240, seed=seed)
    _, labels, vectors = featurize("message", messages[:160], [lexicon])
    dictionary, rows = index(vectors)
    model = train(rows, labels, dictionary, seed=seed)
    path = tmp_path / "model.tsv"
    written = save_model(model, path)
    loaded = load_model(path)
    assert loaded.dictionary.size == written < model.dictionary.size
    rounded = replace(
        model, weights=np.vectorize(lambda w: float(f"{w:.9g}"))(model.weights)
    )
    _, _, test_vectors = featurize("message", messages[160:], [lexicon])
    for v in test_vectors:
        want = decision_values(rounded, vectorize(v, rounded.dictionary))
        got = decision_values(loaded, vectorize(v, loaded.dictionary))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert predict(loaded, v) == predict(rounded, v)


_MODEL_TEXT = (
    "# linear model\n"
    "classes\tnegative\tpositive\n"
    "dim\t1\n"
    "C\t1\n"
    "tol\t0.1\n"
    "feat\t0\tf0\n"
    "w\t0\t0.5\t-0.5\n"
    "w\t1\t0.1\t-0.1\n"
)


def test_load_golden_file(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(_MODEL_TEXT)
    model = load_model(path)
    assert model.class_order == ("negative", "positive")
    np.testing.assert_array_equal(model.weights, [[0.5, 0.1], [-0.5, -0.1]])
    assert predict(model, FeatureVector({"f0": 1.0})) == "negative"


def test_load_rejects_truncated_model(tmp_path):
    model = _fixture_model()
    path = tmp_path / "model.tsv"
    save_model(model, path)
    # Cut the file after the first weight row.
    text = path.read_text()
    path.write_text(text[: text.index("\nw\t1\t") + 1])
    with pytest.raises(
        ModelFormatError, match=r"expected 3 weight rows \(0\.\.2\), found 1"
    ):
        load_model(path)


# Each body follows the "# linear model" line and breaks the layout once.
@pytest.mark.parametrize(
    "text,message",
    [
        ("classes\tnegative\ndim\t0\nC\t1\ntol\t0.1\nbogus\t0\t1\n",
         "expected weight row 0 at line 6"),
        ("classes\tnegative\ndim\tx\nC\t1\ntol\t0.1\n", "malformed record at line 3"),
        ("classes\tnegative\ndim\t0\nC\t1\n", "expected record 'tol' at line 5"),
        ("classes\tnegative\ndim\t2\nC\t1\ntol\t0.1\nfeat\t0\tf0\n",
         r"expected 2 features \(0\.\.1\), found 1"),
        ("classes\tnegative\ndim\t2\nC\t1\ntol\t0.1\nfeat\t0\tf0\nfeat\t1\tf0\n"
         "w\t0\t0.5\nw\t1\t0.5\nw\t2\t0.5\n", "duplicate feature name at line 7"),
        ("classes\tnegative\ndim\t1\nC\t1\ntol\t0.1\nfeat\t0\tf0\nw\t0\t0.0\n"
         "w\t99\t0.0\n", "expected weight row 1 at line 8"),
        ("classes\tnegative\tpositive\ndim\t1\nC\t1\ntol\t0.1\nfeat\t0\tf0\n"
         "w\t0\t1.0\nw\t1\t1.0\t2.0\n", "malformed record at line 7"),
        ("classes\tnegative\tpositive\ndim\t1\nC\t1\ntol\t0.1\nfeat\t0\tf0\n",
         r"expected 2 weight rows \(0\.\.1\), found 0"),
        ("classes\tnegative\ndim\t1\nC\t1\ntol\t0.1\nfeat\t0\tf0\nw\t1\t0.5\n"
         "w\t1\t0.5\n", "expected weight row 0 at line 7"),
        ("classes\tnegative\ndim\t1\nC\t1\ntol\t0.1\nfeat\t0\tf0\nfeat\t0\tf1\n"
         "w\t0\t0.5\nw\t1\t0.5\n", "expected weight row 0 at line 7"),
        ("classes\tnegative\ndim\t0\nC\t1\nC\t2\ntol\t0.1\nw\t0\t0.5\n",
         "expected record 'tol' at line 5"),
        ("classes\tnegative\ndim\t1\nC\t1\ntol\t0.1\nfeat\t0\tf0\textra\n"
         "w\t0\t0.5\nw\t1\t0.5\n", "malformed record at line 6"),
        ("classes\tnegative\ndim\t1\nC\t1\ntol\t0.1\nfeat\t0\tf0\nw\t0\t0.5\n"
         "w\t1\t0.5\nw\t1\t0.5\n", "line after the last weight row at line 9"),
        ("classes\tnegative\ndim\t1\nC\t1\ntol\t0.1\nfeat\t0\tf0\nw\t0\t0.5\n"
         "w\t1\t0.5\n\n", "line after the last weight row at line 9"),
        ("classes\tnegative\ndim\t1\nC\t1\ntol\t0.1\nfeat\t00\tf0\nw\t0\t0.5\n"
         "w\t1\t0.5\n", "expected feature 0 at line 6"),
        ("classes\ndim\t0\nC\t1\ntol\t0.1\nw\t0\n", "no class names at line 2"),
        ("classes\tnegative\tnegative\ndim\t0\nC\t1\ntol\t0.1\nw\t0\t1\t2\n",
         "duplicate class names at line 2"),
        ("classes\tnegative\ndim\t-1\nC\t1\ntol\t0.1\n", "negative dim at line 3"),
        ("classes\tnegative\ndim\t0\nC\t1\ntol\t0.1\nw\t0\tnan\n",
         "non-finite weight at line 6"),
        ("classes\tnegative\ndim\t0\nC\tinf\ntol\t0.1\nw\t0\t1\n",
         "non-finite C at line 4"),
        ("classes\tnegative\ndim\t0\nC\t1\ntol\tnan\nw\t0\t1\n",
         "non-finite tol at line 5"),
        ("classes\tnegative\ndim\t0\textra\nC\t1\ntol\t0.1\nw\t0\t1\n",
         "malformed record at line 3"),
        ("classes\tnegative\ndim\t0\nC\tabc\ntol\t0.1\nw\t0\t1\n",
         "malformed record at line 4"),
        ("classes\tnegative\ndim\t0\nC\t1\ntol\t0.1\t0.2\nw\t0\t1\n",
         "malformed record at line 5"),
        # A huge dim allocates nothing: its first missing feature is the fault.
        ("classes\tnegative\ndim\t1000000000000000\nC\t1\ntol\t0.1\nw\t0\t1\n",
         "expected feature 0 at line 6"),
    ],
)
def test_load_error_cases(tmp_path, text, message):
    path = tmp_path / "m.tsv"
    path.write_text("# linear model\n" + text)
    with pytest.raises(ModelFormatError, match=message) as err:
        load_model(path)
    assert str(path) in str(err.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="no such file"):
        load_model(tmp_path / "absent.tsv")


def test_random_problems_match_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(1, 4))
        X = np.round(rng.normal(size=(n, d)), 3)
        labels = ["positive" if rng.random() < 0.5 else "negative" for _ in range(n)]
        labels[0], labels[1] = "positive", "negative"
        C = float(rng.choice([0.1, 1.0]))
        model = train(
            dense_rows(X.tolist()), labels, make_dictionary(d),
            C=C, tol=1e-6, max_epochs=200_000, classes=BINARY,
        )
        probe = np.hstack([X, np.ones((n, 1))])
        for position, cls in enumerate(BINARY):
            y = np.array([1.0 if l == cls else -1.0 for l in labels])
            _, w_oracle = oracle_svm_dual(X, y, C)
            got = probe @ model.weights[position]
            want = probe @ w_oracle
            np.testing.assert_allclose(got, want, atol=1e-4)
            assert oracle_kkt_violation(X, y, C, model.alphas[position]) < 1e-4


def _assert_matches_loop_oracle(vectors, labels, dim, C, tol, max_epochs, seed):
    """Train, then check every class against the numpy-scalar loop, bit for bit."""
    model = _capped(
        train, vectors, labels, make_dictionary(dim),
        C=C, tol=tol, max_epochs=max_epochs, seed=seed,
    )
    rows = [(v.indices, v.values) for v in vectors]
    for position, cls in enumerate(CLASS_ORDER):
        targets = np.where(np.array(labels) == cls, 1.0, -1.0)
        w, epochs, alpha = oracle_train_binary(
            rows, targets, dim, C, tol, max_epochs,
            np.random.default_rng([seed, position]),
        )
        assert np.array_equal(model.weights[position], w)
        assert model.weights[position].tobytes() == w.tobytes()
        assert np.array_equal(model.alphas[position], alpha)
        assert model.alphas[position].tobytes() == alpha.tobytes()
        assert model.epochs[position] == epochs
    return model


@st.composite
def sparse_problems(draw):
    n = draw(st.integers(3, 20))
    dim = draw(st.integers(1, 10))
    vectors = []
    for _ in range(n):
        indices = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=5)))
        values = draw(
            st.lists(
                st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
                min_size=len(indices),
                max_size=len(indices),
            )
        )
        vectors.append(
            IndexedVector(
                indices=np.array(indices, dtype=np.int64),
                values=np.array(values, dtype=np.float64),
            )
        )
    labels = draw(st.lists(st.sampled_from(CLASS_ORDER), min_size=n, max_size=n))
    labels[:3] = CLASS_ORDER
    return vectors, labels, dim


@settings(max_examples=150, deadline=None)
@given(
    sparse_problems(),
    st.sampled_from([0.001, 0.005, 0.1, 1.0, 10.0]),
    st.sampled_from([0.1, 1e-4]),
    st.sampled_from([1, 2, 3, 1000]),
    st.integers(0, 2**16),
)
def test_solver_matches_numpy_scalar_loop(problem, C, tol, max_epochs, seed):
    vectors, labels, dim = problem
    _assert_matches_loop_oracle(vectors, labels, dim, C, tol, max_epochs, seed)


def _problem_at_bound():
    """30 sparse rows in 6 dimensions, labels cycling through the classes."""
    rng = np.random.default_rng(7)
    X = np.round(rng.normal(size=(30, 6)), 3) * (rng.random((30, 6)) < 0.5)
    return X, [CLASS_ORDER[i % 3] for i in range(30)]


@pytest.mark.parametrize("C,max_epochs", [(0.001, 1000), (10.0, 2)])
def test_solver_matches_numpy_scalar_loop_at_bound_and_epoch_cap(C, max_epochs):
    X, labels = _problem_at_bound()
    model = _assert_matches_loop_oracle(
        dense_rows(X.tolist()), labels, 6, C, 1e-6, max_epochs, 3
    )
    if max_epochs == 2:
        assert max(model.epochs) == 2
    else:
        assert any((alpha == C).any() for alpha in model.alphas)


class CountingRows(list):
    """A row list that counts the rows read from it: one per coordinate visit."""

    visits = 0

    def __getitem__(self, i):
        self.visits += 1
        return super().__getitem__(i)


def test_shrinking_visits_fewer_rows_than_full_sweeps(monkeypatch):
    # At C=0.001 every dual reaches C in the first sweep and the second
    # ends the run, so nothing is left to shrink; at C=0.1 most duals
    # still end at C but take many sweeps.
    X, labels = _problem_at_bound()
    solve = linear_model._train_binary
    counted = []

    def counting(rows, *args):
        counted.append(CountingRows(rows))
        return solve(counted[-1], *args)

    monkeypatch.setattr(linear_model, "_train_binary", counting)
    model = train(
        dense_rows(X.tolist()), labels, make_dictionary(6),
        C=0.1, tol=1e-6, max_epochs=1000, seed=3,
    )
    assert any((alpha == 0.1).any() for alpha in model.alphas)
    assert max(model.epochs) < 1000
    assert sum(rows.visits for rows in counted) < sum(model.epochs) * len(X)


def _nearly_parallel_rows():
    """An 11-row, 1-feature problem whose ``neutral`` class does not reach
    tol 1e-6 within 2,000 sweeps at C=10, shrinking or not."""
    X = np.zeros((11, 1))
    X[[2, 7, 8, 9], 0] = [-2.0, 1.0, 1e-5, -2.0]
    labels = ["negative", "neutral", "positive", *["negative"] * 4, "neutral"]
    labels += ["negative"] * 3
    return X, labels


def test_shrinking_does_not_stall_on_nearly_parallel_rows():
    # Without a limit on shrunk sweeps in a row, "negative" shrinks rows
    # that the optimum moves off their bound, and the rows left in the
    # set (empty ones and the one at 1e-5) never get below tol: after
    # 2,000 sweeps one shrunk row's projected gradient is still 2.0.
    X, labels = _nearly_parallel_rows()
    model = _capped(
        train, dense_rows(X.tolist()), labels, make_dictionary(1),
        C=10.0, tol=1e-6, max_epochs=2000, seed=0,
    )
    assert model.epochs[0] < 2000
    for position, cls in enumerate(CLASS_ORDER):
        y = np.where(np.array(labels) == cls, 1.0, -1.0)
        assert oracle_kkt_violation(X, y, 10.0, model.alphas[position]) < 1e-4


def test_a_class_stopped_short_of_tol_warns():
    X, labels = _nearly_parallel_rows()
    rows = dense_rows(X.tolist())
    with pytest.warns(ConvergenceWarning) as record:
        model = train(
            rows, labels, make_dictionary(1), C=10.0, tol=1e-6, max_epochs=2000, seed=0
        )
    assert model.epochs[1] == 2000
    assert [str(w.message) for w in record] == [
        "class 'neutral' did not converge in 2000 sweeps (max_epochs): "
        "max |projected gradient| 2e-05 over a shrunk set of 6 of 11 rows; "
        "the full set was not checked against tol 1e-06"
    ]
    # pyproject.toml turns RuntimeWarnings into errors; this one stays a warning.
    assert not issubclass(ConvergenceWarning, RuntimeWarning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = train(
            rows, labels, make_dictionary(1), C=10.0, tol=1e-3, max_epochs=2000, seed=0
        )
    assert max(model.epochs) < 2000


def test_a_class_stopped_after_a_shrunk_sweep_warns():
    # At tol 1e-3, "positive" converges in 8 sweeps: its 7th goes over a
    # shrunk set and sees nothing as large as tol, and its 8th checks
    # every row.  Stopped after the 7th, it has not converged.
    X, labels = _problem_at_bound()
    rows = dense_rows(X.tolist())
    with pytest.warns(ConvergenceWarning) as record:
        model = train(
            rows, labels, make_dictionary(6), C=0.1, tol=1e-3, max_epochs=7, seed=3
        )
    assert model.epochs == (7, 7, 7)
    assert [str(w.message) for w in record][-1] == (
        "class 'positive' did not converge in 7 sweeps (max_epochs): max "
        "|projected gradient| 0.000869 over a shrunk set of 3 of 30 rows; the "
        "full set was not checked against tol 0.001"
    )
    with pytest.warns(ConvergenceWarning) as record:
        model = train(
            rows, labels, make_dictionary(6), C=0.1, tol=1e-3, max_epochs=8, seed=3
        )
    assert model.epochs == (8, 8, 8)
    assert [str(w.message).split("'")[1] for w in record] == ["negative", "neutral"]


@settings(max_examples=100, deadline=None)
@given(
    sparse_problems(),
    st.sampled_from([0.001, 0.005, 0.1, 1.0, 10.0]),
    st.integers(0, 2**16),
)
def test_shrinking_reaches_the_unshrunk_solution(problem, C, seed):
    """Where the loop without shrinking converges at tol 1e-6, the
    shrinking solver converges too, to the same decision values.

    Duals whose projected gradients are at most g lie within n*C*g of
    the optimal dual objective, so their weights lie within
    sqrt(2*n*C*g) of the optimal ones.  On ill-conditioned rows that
    distance can exceed 1e-4 for two converged solvers, so the decision
    values are compared within 1e-4 plus that bound for both.
    """
    vectors, labels, dim = problem
    cap = 10_000
    model = _capped(
        train, vectors, labels, make_dictionary(dim),
        C=C, tol=1e-6, max_epochs=cap, seed=seed,
    )
    X = np.zeros((len(vectors), dim))
    for row, v in zip(X, vectors):
        row[v.indices] = v.values
    probe = np.hstack([X, np.ones((len(X), 1))])
    rows = [(v.indices, v.values) for v in vectors]
    for position, cls in enumerate(CLASS_ORDER):
        y = np.where(np.array(labels) == cls, 1.0, -1.0)
        w, epochs, alpha = oracle_train_binary_unshrunk(
            rows, y, dim, C, 1e-6, cap, np.random.default_rng([seed, position])
        )
        # Nearly parallel rows can hold both loops short of tol for good.
        assume(epochs < cap)
        assert model.epochs[position] < cap
        shrunk = oracle_kkt_violation(X, y, C, model.alphas[position])
        assert shrunk < 1e-4
        unshrunk = oracle_kkt_violation(X, y, C, alpha)
        radius = sum(np.sqrt(2 * len(X) * C * g) for g in (shrunk, unshrunk))
        gap = np.abs(probe @ model.weights[position] - probe @ w)
        assert (gap <= 1e-4 + radius * np.linalg.norm(probe, axis=1)).all()
