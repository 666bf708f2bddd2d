"""Base-learner contracts: worked examples, determinism, optimizer checks."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from telkit.learners import (
    KINDS,
    BinarySvm,
    ClassifierSpec,
    KnnModel,
    LogitModel,
    Scaler,
    SvmModel,
    TreeModel,
    TreeNode,
    VectorDataset,
    accuracy,
    fit,
    grid_search_cv,
    kernel_matrix,
    kfold_indices,
    majority_labels,
)
from telkit.learners.logit import logit_gradient, logit_loss
from telkit.learners.svm import _MIN_ALPHA_STEP, _SWEEP_CAP, _smo
from telkit.learners.tree import _best_split
from telkit.seeding import mix_seed


def blobs(rng, centers, per_class, spread=0.3):
    """Well-separated Gaussian clusters, one per class."""
    rows, labels = [], []
    for label, center in enumerate(centers):
        rows.append(center + spread * rng.standard_normal((per_class, len(center))))
        labels.extend([label] * per_class)
    return VectorDataset(np.vstack(rows), np.array(labels))


def cv_accuracy(spec, data, folds, seed):
    """Mean held-out accuracy of ``spec`` over the ``kfold_indices``
    blocks, fold f fitted on the other blocks with seed mix_seed(seed, f):
    the score ``grid_search_cv`` gives one dataset."""
    scores = []
    for f, block in enumerate(kfold_indices(data.n_samples, folds, seed)):
        train = np.setdiff1d(np.arange(data.n_samples), block)
        model = fit(spec, data.subset(train), mix_seed(seed, f))
        scores.append(accuracy(model.predict(data.features[block]), data.labels[block]))
    return float(np.mean(scores))


# Reference implementations: the direct O(n^2)-per-feature split search and
# the direct SMO loop.  The library versions must reproduce them bit for bit.


def reference_gini(labels):
    _, counts = np.unique(labels, return_counts=True)
    p = counts / labels.size
    return 1.0 - float(np.sum(p * p))


def reference_best_split(X, y):
    n = y.size
    best = None  # (weighted_gini, feature, threshold)
    for feature in range(X.shape[1]):
        column = X[:, feature]
        uniques = np.unique(column)
        if uniques.size < 2:
            continue
        for lo, hi in zip(uniques[:-1], uniques[1:]):
            threshold = (lo + hi) / 2.0
            mask = column <= threshold
            n_left = int(mask.sum())
            weighted = (
                n_left * reference_gini(y[mask])
                + (n - n_left) * reference_gini(y[~mask])
            ) / n
            if n_left in (0, n):  # scored as no split, but splits at lo
                threshold = lo
            key = (weighted, feature, threshold)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[1], best[2]


def reference_leaf(y):
    """A leaf of the plurality label of ``y``, each label one voter."""
    return TreeNode(label=int(majority_labels(y[:, None])[0]))


def reference_grow(X, y, depth, spec):
    if (
        np.unique(y).size == 1
        or depth >= spec["max_depth"]
        or y.size < spec["min_samples_split"]
    ):
        return reference_leaf(y)
    split = reference_best_split(X, y)
    if split is None:
        return reference_leaf(y)
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=reference_grow(X[mask], y[mask], depth + 1, spec),
        right=reference_grow(X[~mask], y[~mask], depth + 1, spec),
    )


def reference_smo(K, y, C, tolerance, max_passes, rng):
    m = y.size
    alphas = np.zeros(m)
    b = 0.0
    quiet_passes = 0
    sweeps = 0
    while quiet_passes < max_passes and sweeps < _SWEEP_CAP:
        changed = 0
        for i in range(m):
            E_i = float(np.dot(alphas * y, K[:, i])) + b - y[i]
            violates = (y[i] * E_i < -tolerance and alphas[i] < C) or (
                y[i] * E_i > tolerance and alphas[i] > 0
            )
            if not violates:
                continue
            j = int(rng.integers(0, m - 1))
            if j >= i:
                j += 1
            E_j = float(np.dot(alphas * y, K[:, j])) + b - y[j]
            a_i_old, a_j_old = alphas[i], alphas[j]
            if y[i] != y[j]:
                L = max(0.0, a_j_old - a_i_old)
                H = min(C, C + a_j_old - a_i_old)
            else:
                L = max(0.0, a_i_old + a_j_old - C)
                H = min(C, a_i_old + a_j_old)
            if L == H:
                continue
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if eta >= 0:
                continue
            a_j = a_j_old - y[j] * (E_i - E_j) / eta
            a_j = min(H, max(L, a_j))
            if abs(a_j - a_j_old) < _MIN_ALPHA_STEP:
                continue
            a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
            alphas[i], alphas[j] = a_i, a_j
            b1 = (
                b
                - E_i
                - y[i] * (a_i - a_i_old) * K[i, i]
                - y[j] * (a_j - a_j_old) * K[i, j]
            )
            b2 = (
                b
                - E_j
                - y[i] * (a_i - a_i_old) * K[i, j]
                - y[j] * (a_j - a_j_old) * K[j, j]
            )
            if 0 < a_i < C:
                b = b1
            elif 0 < a_j < C:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            changed += 1
        quiet_passes = quiet_passes + 1 if changed == 0 else 0
        sweeps += 1
    return alphas, b


def split_case(kind, seed):
    """Features and labels of one split-search case."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    d = int(rng.integers(1, 9))
    classes = 2 + seed % 4
    if kind == "gaussian":
        X = rng.standard_normal((n, d))
    elif kind == "integer-ties":
        X = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif kind == "many-classes":
        X = rng.integers(0, 6, size=(n, d)) * 0.1
        classes = 8 + seed % 12
    elif kind == "adjacent-floats":  # midpoints round onto the upper value
        X = 1.0 + rng.integers(0, 4, size=(n, d)) * np.spacing(1.0)
    else:  # extreme magnitudes: midpoints overflow to +-inf
        X = rng.choice([-1.7e308, -1e308, 0.0, 1e308, 1.7e308], size=(n, d))
    y = rng.integers(0, classes, size=n) * 2 + 1
    return X, y


ONE_UP = np.nextafter(1.0, 2.0)
TWO_UP = np.nextafter(ONE_UP, 2.0)  # (ONE_UP + TWO_UP) / 2 rounds to TWO_UP

SPLIT_KINDS = [
    "gaussian",
    "integer-ties",
    "many-classes",
    "adjacent-floats",
    "extreme-magnitudes",
]


class TestSplitSearchExactness:
    @pytest.mark.parametrize("kind", SPLIT_KINDS)
    def test_best_split_matches_reference(self, kind):
        for seed in range(60):
            X, y = split_case(kind, seed)
            with np.errstate(over="ignore"):
                assert _best_split(X, y) == reference_best_split(X, y), seed

    @pytest.mark.parametrize("kind", SPLIT_KINDS)
    def test_grown_tree_matches_reference(self, kind):
        spec = ClassifierSpec("tree", {"max_depth": 6})
        for seed in range(12):
            X, y = split_case(kind, seed)
            if np.unique(y).size < 2:
                continue
            data = VectorDataset(X, y)
            with np.errstate(over="ignore"):
                expected = reference_grow(X, y, 0, spec)
                assert fit(spec, data, seed=0).root == expected, seed

    @pytest.mark.parametrize(
        "X",
        [
            [[1.7e308], [1.79e308]],  # the midpoint overflows to inf
            [[ONE_UP], [TWO_UP]],  # the midpoint rounds onto the largest value
            [[-1.79e308], [-1.7e308]],  # the midpoint overflows to -inf
        ],
        ids=["overflow", "adjacent-floats", "negative-overflow"],
    )
    def test_midpoint_past_every_value_splits_at_lower(self, X):
        X = np.array(X)
        y = np.array([0, 1])
        with np.errstate(over="ignore"):
            assert _best_split(X, y) == reference_best_split(X, y) == (0, X[0, 0])
            model = fit(ClassifierSpec("tree", {"max_depth": 3}), VectorDataset(X, y), 0)
        assert model.root.threshold == X[0, 0]
        assert model.predict(X).tolist() == [0, 1]

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 30),
        d=st.integers(1, 5),
        classes=st.integers(2, 12),
    )
    def test_best_split_property(self, data, n, d, classes):
        values = st.one_of(
            st.integers(-3, 3).map(float),
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        )
        X = data.draw(hnp.arrays(np.float64, (n, d), elements=values))
        y = np.array(data.draw(st.lists(st.integers(0, classes - 1),
                                        min_size=n, max_size=n)))
        assert _best_split(X, y) == reference_best_split(X, y)


class CountingRng:
    """A seeded generator that records the ``size`` of every draw."""

    def __init__(self, seed):
        self.generator = np.random.default_rng(seed)
        self.sizes = []

    def integers(self, low, high, size=None):
        self.sizes.append(size)
        return self.generator.integers(low, high, size=size)


def assert_smo_matches_reference(kernel, C, X, y, seed):
    """``_smo`` equals ``reference_smo`` bit for bit and draws its partners
    m at a time: one block per m violations, the generator left advanced
    to the end of the last block.  Returns the library run's recorder."""
    spec = ClassifierSpec("svm", {"kernel": kernel, "C": C, "degree": 2})
    K = kernel_matrix(spec, X, X)
    args = (K, y, C, spec["tolerance"], spec["max_passes"])
    rng, ref_rng = CountingRng(seed), CountingRng(seed)
    alphas, bias = _smo(*args, rng)
    ref_alphas, ref_bias = reference_smo(*args, ref_rng)
    assert np.array_equal(alphas, ref_alphas), seed
    assert alphas.tobytes() == ref_alphas.tobytes(), seed  # signed zeros
    assert bias == ref_bias, seed
    m, violations = y.size, len(ref_rng.sizes)
    assert set(ref_rng.sizes) <= {None}
    assert rng.sizes == [m] * -(-violations // m), seed
    for _ in range(m * len(rng.sizes) - violations):
        ref_rng.generator.integers(0, m - 1)
    assert rng.generator.bit_generator.state == ref_rng.generator.bit_generator.state
    return rng


def overlapping_case(seed, m, d=3):
    """Features and +-1 labels of overlapping classes, so that many
    multipliers reach the bound C."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    y = np.where(X[:, 0] + 0.8 * rng.standard_normal(m) > 0, 1.0, -1.0)
    return X, y


class TestSmoExactness:
    @pytest.mark.parametrize("kernel", ["rbf", "poly"])
    @pytest.mark.parametrize("C", [0.5, 1, 10.0])
    def test_matches_reference_bit_for_bit(self, kernel, C):
        for seed in range(3):
            X, y = overlapping_case(seed, 24 + 6 * seed)
            assert_smo_matches_reference(kernel, C, X, y, seed)

    @pytest.mark.parametrize("kernel", ["rbf", "poly"])
    @pytest.mark.parametrize("C", [0.5, 1, 10.0])
    def test_two_samples(self, kernel, C):
        # m - 1 = 1: every partner draw is integers(0, 1), always 0
        for seed in range(3):
            X = np.random.default_rng(seed).standard_normal((2, 3))
            rng = assert_smo_matches_reference(
                kernel, C, X, np.array([1.0, -1.0]), seed
            )
            assert rng.sizes, seed

    @pytest.mark.parametrize("kernel", ["rbf", "poly"])
    @pytest.mark.parametrize("C", [0.5, 1, 10.0])
    def test_duplicate_rows(self, kernel, C):
        # a row and its copy give eta = 2 K_ij - K_ii - K_jj = 0
        for seed in range(3):
            X, y = overlapping_case(seed, 12)
            order = np.random.default_rng(seed).permutation(24)
            X, y = np.vstack([X, X])[order], np.concatenate([y, y])[order]
            assert_smo_matches_reference(kernel, C, X, y, seed)

    @pytest.mark.parametrize("kernel", ["rbf", "poly"])
    def test_identical_rows_leave_every_alpha_at_zero(self, kernel):
        # every pair exits at L == H (same label) or eta >= 0 (opposite)
        X = np.ones((6, 2))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        rng = assert_smo_matches_reference(kernel, 1.0, X, y, seed=0)
        assert len(rng.sizes) >= 2  # every sweep violates everywhere
        spec = ClassifierSpec("svm", {"kernel": kernel})
        K = kernel_matrix(spec, X, X)
        alphas, bias = _smo(K, y, 1.0, 1e-3, 10, np.random.default_rng(0))
        assert not alphas.any() and bias == 0.0

    def test_partner_buffer_refills_many_times(self):
        # a small m and a large C: hundreds of violations, m per block
        for seed in range(3):
            X, y = overlapping_case(seed, 8)
            rng = assert_smo_matches_reference("rbf", 10.0, X, y, seed)
            assert len(rng.sizes) >= 5, seed

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 63, 79, 999]),
        k=st.integers(1, 120),
        blocks=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_draws_equal_single_draws(self, n, k, blocks, seed):
        # the numpy property _smo's partner buffer rests on
        block_rng = np.random.default_rng(seed)
        single_rng = np.random.default_rng(seed)
        drawn = [
            x for _ in range(blocks)
            for x in block_rng.integers(0, n, size=k).tolist()
        ]
        assert drawn == [int(single_rng.integers(0, n)) for _ in range(blocks * k)]
        assert block_rng.bit_generator.state == single_rng.bit_generator.state


class TestClassifierSpec:
    def test_defaults_filled_in(self):
        spec = ClassifierSpec("knn")
        assert spec["k"] == 5
        assert spec["distance"] == "euclidean"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown classifier kind"):
            ClassifierSpec("forest")

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ValueError, match="unknown hyperparameter"):
            ClassifierSpec("knn", {"neighbors": 3})

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ClassifierSpec("svm", {"C": 0})

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("svm", "C", "1"),
            ("svm", "gamma", True),
            ("svm", "tolerance", None),
            ("svm", "max_passes", False),
            ("knn", "k", "3"),
            ("tree", "max_depth", "5"),
            ("logit", "learning_rate", [0.5]),
        ],
    )
    def test_non_number_rejected(self, kind, key, value):
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            ClassifierSpec(kind, {key: value})
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            ClassifierSpec.from_dict({"kind": kind, "hyperparameters": {key: value}})

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("svm", "C", float("nan")),
            ("svm", "gamma", float("inf")),
            ("knn", "k", float("inf")),
            ("knn", "k", float("nan")),
        ],
    )
    def test_non_finite_rejected(self, kind, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value!r}$"):
            ClassifierSpec(kind, {key: value})

    def test_integers_beyond_float_range_accepted(self):
        assert ClassifierSpec("knn", {"k": 10**400})["k"] == 10**400

    def test_numpy_numbers_accepted(self):
        spec = ClassifierSpec("knn", {"k": np.int64(3)})
        assert spec["k"] == 3 and type(spec["k"]) is int

    def test_bad_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            ClassifierSpec("svm", {"kernel": "sigmoid"})

    def test_round_trip(self):
        spec = ClassifierSpec("tree", {"max_depth": 3})
        assert ClassifierSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "payload, message",
        [
            (5, "classifier spec must be an object, got 5"),
            (["knn"], "classifier spec must be an object, got ['knn']"),
            ({"kind": 3}, "kind must be a string, got 3"),
            ({"kind": None}, "kind must be a string, got None"),
            ({"kind": "knn", "hyperparameters": None},
             "hyperparameters must be an object, got None"),
            ({"kind": "knn", "hyperparameters": [1]},
             "hyperparameters must be an object, got [1]"),
            ({"kind": "knn", "hyperparameters": "k=3"},
             "hyperparameters must be an object, got 'k=3'"),
        ],
        ids=["int", "list", "kind-int", "kind-null", "params-null", "params-list",
             "params-str"],
    )
    def test_mistyped_spec_rejected_naming_the_key(self, payload, message):
        # these failed with TypeError or AttributeError, naming no key
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ClassifierSpec.from_dict(payload)
        if isinstance(payload, dict):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ClassifierSpec(**payload)


class TestKnn:
    def test_k1_returns_own_label_on_training_points(self):
        rng = np.random.default_rng(211)
        data = blobs(rng, [(0.0, 0.0), (5.0, 5.0), (-5.0, 5.0)], 8)
        model = fit(ClassifierSpec("knn", {"k": 1}), data, seed=0)
        assert np.array_equal(model.predict(data.features), data.labels)

    def test_empty_feature_matrix(self):
        # every kind: an empty (k, 0) neighbour vote or (0, classes) argmax
        data = VectorDataset(np.eye(3), np.array([0, 1, 2]))
        for kind in KINDS:
            model = fit(ClassifierSpec(kind), data, seed=0)
            predicted = model.predict(np.empty((0, 3)))
            assert predicted.dtype == np.int64 and predicted.shape == (0,), kind

    def test_distance_tie_goes_to_lower_index(self):
        # two training points equidistant from the query
        data = VectorDataset(np.array([[1.0], [-1.0]]), np.array([1, 0]))
        model = fit(ClassifierSpec("knn", {"k": 1}), data, seed=0)
        assert model.predict(np.array([[0.0]]))[0] == 1  # index 0 wins

    def test_vote_tie_goes_to_lower_label(self):
        data = VectorDataset(
            np.array([[0.0], [1.0], [10.0], [11.0]]), np.array([3, 3, 1, 1])
        )
        model = fit(ClassifierSpec("knn", {"k": 4}), data, seed=0)
        assert model.predict(np.array([[5.5]]))[0] == 1

    def test_single_class_accepted(self):
        data = VectorDataset(np.array([[0.0], [1.0]]), np.array([2, 2]))
        model = fit(ClassifierSpec("knn", {"k": 1}), data, seed=0)
        assert model.predict(np.array([[9.0]]))[0] == 2

    def test_width_mismatch(self):
        data = VectorDataset(np.eye(3), np.array([0, 1, 2]))
        model = fit(ClassifierSpec("knn"), data, seed=0)
        with pytest.raises(ValueError, match="width"):
            model.predict(np.ones((1, 2)))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"train_features": np.empty((0, 2))}, r"^knn train_features has shape \[0, 2\]"),
            ({"train_features": np.zeros(3)}, r"^knn train_features has shape \[3\]"),
            ({"train_labels": np.array([0, 1])}, r"^knn train_labels has shape \[2\]"),
            ({"class_labels": np.array([0, 1, 2])}, r"^knn class_labels \[0, 1, 2\] are not"),
        ],
        ids=["no-rows", "one-dimensional", "short-labels", "extra-class"],
    )
    def test_model_fields_checked(self, fields, message):
        valid = {
            "spec": ClassifierSpec("knn"),
            "class_labels": np.array([0, 1]),
            "train_features": np.eye(3)[:, :2],
            "train_labels": np.array([0, 1, 1]),
        }
        KnnModel(**valid)
        with pytest.raises(ValueError, match=message):
            KnnModel(**{**valid, **fields})

    @pytest.mark.parametrize(
        "train, queries, expected",
        [
            # differences past ~1e154 overflow the squared distances
            ([[1e200], [2e200], [-3e200]], [[1.9e200], [-2e200], [1.4e200]], [1, 2, 0]),
            # and past ~1.8e308 the differences themselves
            (
                [[1e308, -1e308], [-1e308, 1e308], [5e307, 0.0]],
                [[1e308, -1e308], [-9e307, 1e308], [4e307, -1e307], [-1e308, -1e308]],
                [0, 1, 2, 2],
            ),
        ],
        ids=["1e200", "1e308"],
    )
    def test_nearest_past_overflow(self, train, queries, expected):
        data = VectorDataset(np.array(train), np.arange(len(train)))
        model = fit(ClassifierSpec("knn", {"k": 1}), data, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning escapes
            assert model.predict(np.array(queries)).tolist() == expected

    def test_far_rows_rank_after_finite_ones(self):
        # rows 1 and 3 overflow, row 2 does not: finite first, then far by distance
        train = np.array([[0.0], [-3e200], [1e100], [2e200], [5.0]])
        data = VectorDataset(train, np.arange(5))
        model = fit(ClassifierSpec("knn", {"k": 5}), data, seed=0)
        assert model.neighbours(np.array([[1.0]]))[:, 0].tolist() == [0, 4, 2, 3, 1]


# Reference KNN and vote: a full stable sort of each row's distances and the
# np.unique inverse.  The library versions must give the same neighbour
# indices and labels.  Distances that overflow to inf sort after the finite
# ones, by their norm with every row scaled by one power of two.


def reference_neighbours(train, X, k):
    k = min(k, train.shape[0])
    nearest = np.empty((k, X.shape[0]), dtype=np.int64)
    for i, row in enumerate(X):
        dists = np.linalg.norm(train - row, axis=1)
        exponent = np.frexp(max(np.abs(train).max(), np.abs(row).max()))[1]
        scaled = np.linalg.norm(
            np.ldexp(train, -exponent) - np.ldexp(row, -exponent), axis=1
        )
        far = np.isinf(dists)
        nearest[:, i] = np.lexsort((np.where(far, scaled, dists), far))[:k]
    return nearest


def reference_majority_labels(votes):
    n_voters, n_samples = np.shape(votes)
    values, codes = np.unique(votes, return_inverse=True)
    cells = codes.reshape(n_voters, n_samples) + values.size * np.arange(n_samples)
    counts = np.bincount(cells.ravel(), minlength=n_samples * values.size)
    return values[np.argmax(counts.reshape(n_samples, values.size), axis=1)]


def knn_case(n, width, scale, seed):
    """Tie-heavy training rows (rounded, half of them duplicates) and
    queries: every training row, rows on the same grid and rows off it."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(-2, 3, size=(n, width)).astype(np.float64)
    grid[n // 2 :] = grid[: n - n // 2]
    train = grid[rng.permutation(n)] * scale
    queries = np.vstack([
        train,
        rng.integers(-2, 3, size=(4, width)) * scale,
        np.round(rng.standard_normal((4, width)), 1) * scale,
    ])
    return VectorDataset(train, rng.integers(0, 3, size=n)), queries


def assert_knn_matches_reference(data, queries, k):
    model = fit(ClassifierSpec("knn", {"k": k}), data, seed=0)
    with np.errstate(over="ignore"):  # distances of 1e200 rows overflow to inf
        nearest = model.neighbours(queries)
        expected = reference_neighbours(data.features, queries, k)
        labels = model.predict(queries)
    assert np.array_equal(nearest, expected)
    assert np.array_equal(labels, reference_majority_labels(data.labels[expected]))


class TestKnnExactness:
    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150, 1e200])
    @pytest.mark.parametrize("width", [1, 3, 32])
    def test_matches_full_sort_reference(self, width, scale):
        for n in (1, 2, 9, 40):
            for k in sorted({1, 3, n}):
                data, queries = knn_case(n, width, scale, seed=n + 7 * k)
                assert_knn_matches_reference(data, queries, k)

    def test_all_rows_equidistant(self):
        # every distance ties: the k lowest indices in order
        data = VectorDataset(np.zeros((6, 2)), np.array([2, 1, 1, 0, 0, 0]))
        model = fit(ClassifierSpec("knn", {"k": 3}), data, seed=0)
        assert model.neighbours(np.ones((1, 2)))[:, 0].tolist() == [0, 1, 2]
        assert model.predict(np.ones((1, 2))).tolist() == [1]

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 12),
        width=st.integers(1, 4),
        scale=st.sampled_from([1.0, 1e-160, 1e150, 1e200]),
    )
    def test_matches_full_sort_reference_property(self, data, n, width, scale):
        values = st.one_of(
            st.integers(-2, 2).map(float),
            st.floats(-3, 3, allow_nan=False, allow_infinity=False),
        )
        train = data.draw(hnp.arrays(np.float64, (n, width), elements=values))
        extra = data.draw(hnp.arrays(np.float64, (3, width), elements=values))
        labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        k = data.draw(st.integers(1, n + 1))
        queries = np.vstack([train, extra]) * scale
        assert_knn_matches_reference(VectorDataset(train * scale, labels), queries, k)


class TestMajorityLabelsExactness:
    @pytest.mark.parametrize(
        "votes",
        [
            [[0]],
            [[3, 1, 2]],
            [[1, 2], [2, 1]],
            [[5, 5, 0], [0, 1, 0], [1, 1, 5], [0, 5, 5]],
            [[-4, 2**62], [2**62, -4], [7, 7]],
        ],
        ids=["one-vote", "one-voter", "even-split", "tie-heavy", "extreme-labels"],
    )
    def test_matches_unique_inverse_reference(self, votes):
        votes = np.array(votes, dtype=np.int64)
        assert np.array_equal(majority_labels(votes), reference_majority_labels(votes))

    @settings(max_examples=100, deadline=None)
    @given(
        votes=hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 7), st.integers(1, 6)),
            elements=st.one_of(st.integers(-3, 5), st.sampled_from([-(2**62), 2**62])),
        )
    )
    def test_matches_unique_inverse_reference_property(self, votes):
        assert np.array_equal(majority_labels(votes), reference_majority_labels(votes))


class TestTree:
    def test_single_split_separates_two_groups(self):
        data = VectorDataset(
            np.array([[0.0], [1.0], [10.0], [11.0]]), np.array([0, 0, 1, 1])
        )
        model = fit(ClassifierSpec("tree", {"max_depth": 1}), data, seed=0)
        assert accuracy(model.predict(data.features), data.labels) == 1.0
        assert model.root.threshold == pytest.approx(5.5)

    def test_training_accuracy_monotone_in_depth(self):
        rng = np.random.default_rng(223)
        data = blobs(rng, [(0, 0), (2, 2), (0, 3), (3, 0)], 15, spread=1.0)
        scores = []
        for depth in range(1, 8):
            model = fit(ClassifierSpec("tree", {"max_depth": depth}), data, 0)
            scores.append(accuracy(model.predict(data.features), data.labels))
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))

    def test_single_class_rejected(self):
        data = VectorDataset(np.eye(3), np.array([1, 1, 1]))
        with pytest.raises(ValueError, match="two classes"):
            fit(ClassifierSpec("tree"), data, seed=0)

    @pytest.mark.parametrize(
        "root, message",
        [
            (TreeNode(feature=-1, threshold=0.0, left=TreeNode(label=0),
                      right=TreeNode(label=1)),
             r"^tree split feature -1 is outside \[0, 2\)$"),
            (TreeNode(feature=0, threshold=0.0, left=TreeNode(label=0),
                      right=TreeNode(feature=2, threshold=1.0, left=TreeNode(label=0),
                                     right=TreeNode(label=1))),
             r"^tree split feature 2 is outside \[0, 2\)$"),
            (TreeNode(feature=1, threshold=0.0, left=TreeNode(label=0),
                      right=TreeNode(label=-1)),
             r"^tree leaf label -1 is not one of the class_labels \[0, 1\]$"),
        ],
        ids=["negative-feature", "feature-past-width", "unknown-leaf-label"],
    )
    def test_model_fields_checked(self, root, message):
        spec, labels = ClassifierSpec("tree"), np.array([0, 1])
        leaf = TreeNode(label=1)
        TreeModel(spec=spec, class_labels=labels, root=leaf, n_features=2)
        with pytest.raises(ValueError, match=message):
            TreeModel(spec=spec, class_labels=labels, root=root, n_features=2)

    def test_pure_leaves_on_separable_data(self):
        rng = np.random.default_rng(227)
        data = blobs(rng, [(0.0,), (10.0,)], 10, spread=0.5)
        model = fit(ClassifierSpec("tree", {"max_depth": 4}), data, seed=0)
        assert accuracy(model.predict(data.features), data.labels) == 1.0


class TestLogit:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(229)
        X = rng.standard_normal((12, 4))
        labels = rng.integers(0, 3, size=12)
        Y = (labels[:, None] == np.arange(3)[None, :]).astype(float)
        W = rng.standard_normal((4, 3)) * 0.3
        b = rng.standard_normal(3) * 0.3
        l2 = 0.01
        gW, gb = logit_gradient(W, b, X, Y, l2)
        h = 1e-6
        for flat in range(W.size):
            i, j = divmod(flat, 3)
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            numeric = (logit_loss(Wp, b, X, Y, l2) - logit_loss(Wm, b, X, Y, l2)) / (2 * h)
            assert numeric == pytest.approx(gW[i, j], rel=1e-5, abs=1e-8)
        for j in range(b.size):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            numeric = (logit_loss(W, bp, X, Y, l2) - logit_loss(W, bm, X, Y, l2)) / (2 * h)
            assert numeric == pytest.approx(gb[j], rel=1e-5, abs=1e-8)

    def test_separable_blobs_reach_full_training_accuracy(self):
        rng = np.random.default_rng(233)
        data = blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], 20)
        model = fit(ClassifierSpec("logit"), data, seed=0)
        assert accuracy(model.predict(data.features), data.labels) == 1.0

    def test_multiclass(self):
        rng = np.random.default_rng(239)
        data = blobs(rng, [(0, 6), (6, 0), (-6, 0)], 15)
        model = fit(ClassifierSpec("logit"), data, seed=0)
        assert accuracy(model.predict(data.features), data.labels) == 1.0

    def test_single_class_rejected(self):
        data = VectorDataset(np.eye(2), np.array([0, 0]))
        with pytest.raises(ValueError, match="two classes"):
            fit(ClassifierSpec("logit"), data, seed=0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"class_labels": np.array([0, 1])}, r"^logit weights has shape \[2, 3\], expected \[2, 2\]$"),
            ({"bias": np.zeros(2)}, r"^logit bias has shape \[2\], expected \[3\]$"),
            ({"weights": np.zeros(6)}, r"^logit weights has shape \[6\], expected \[6, 3\]$"),
            ({"scaler": Scaler(np.zeros(2), np.ones(1))}, r"^logit scaler std has shape \[1\], expected \[2\]$"),
            ({"scaler": Scaler(np.zeros(3), np.ones(2))}, r"^logit scaler mean has shape \[3\], expected \[2\]$"),
        ],
        ids=["class-labels", "bias", "weights-flat", "scaler-std", "scaler-mean"],
    )
    def test_model_fields_checked(self, fields, message):
        valid = {
            "spec": ClassifierSpec("logit"),
            "class_labels": np.array([0, 1, 2]),
            "scaler": Scaler(np.zeros(2), np.ones(2)),
            "weights": np.zeros((2, 3)),
            "bias": np.zeros(3),
        }
        LogitModel(**valid)
        with pytest.raises(ValueError, match=message):
            LogitModel(**{**valid, **fields})


class TestSvm:
    def test_polynomial_kernel_solves_xor(self):
        data = VectorDataset(
            np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            np.array([0, 0, 1, 1]),
        )
        spec = ClassifierSpec(
            "svm", {"kernel": "poly", "degree": 2, "C": 10.0, "max_passes": 20}
        )
        model = fit(spec, data, seed=5)
        assert np.array_equal(model.predict(data.features), data.labels)

    def test_rbf_on_blobs(self):
        rng = np.random.default_rng(241)
        data = blobs(rng, [(-2.0, 0.0), (2.0, 0.0)], 15)
        spec = ClassifierSpec("svm", {"kernel": "rbf", "C": 5.0})
        model = fit(spec, data, seed=1)
        assert accuracy(model.predict(data.features), data.labels) >= 0.95

    def test_dual_feasibility_at_convergence(self):
        rng = np.random.default_rng(251)
        data = blobs(rng, [(-2.0, 1.0), (2.0, -1.0), (0.0, 3.0)], 12)
        spec = ClassifierSpec("svm", {"kernel": "rbf", "C": 2.0})
        model = fit(spec, data, seed=3)
        assert isinstance(model, SvmModel)
        for binary in model.binaries:
            alphas = np.abs(binary.dual_coefs)  # |alpha*y| = alpha
            assert np.all(alphas >= 0)
            assert np.all(alphas <= 2.0 + 1e-12)
            assert abs(np.sum(binary.dual_coefs)) <= 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(257)
        data = blobs(rng, [(-1.5, 0.0), (1.5, 0.0)], 10)
        spec = ClassifierSpec("svm", {"kernel": "poly", "degree": 3})
        a = fit(spec, data, seed=11)
        b = fit(spec, data, seed=11)
        for x, y in zip(a.binaries, b.binaries):
            assert np.array_equal(x.dual_coefs, y.dual_coefs)
            assert x.bias == y.bias

    def test_single_class_rejected(self):
        data = VectorDataset(np.eye(2), np.array([1, 1]))
        with pytest.raises(ValueError, match="two classes"):
            fit(ClassifierSpec("svm"), data, seed=0)

    @pytest.mark.parametrize("query", [1e160, 1e200, -1e200])
    def test_overflowing_decision_values_rejected(self, query):
        # the poly kernel gives inf - inf = NaN, and argmax took label 0
        rng = np.random.default_rng(263)
        data = VectorDataset(rng.standard_normal((30, 2)), np.repeat([0, 1, 2], 10))
        model = fit(ClassifierSpec("svm", {"kernel": "poly"}), data, seed=0)
        rows = np.array([[0.5, -0.5], [query, query]])
        with pytest.raises(
            ValueError, match=r"^svm decision values of row 1 are not finite$"
        ):
            model.predict(rows)
        # finite rows keep their values
        before = np.column_stack(
            [b.decision_values(model.spec, model.scaler.transform(rows[:1]))
             for b in model.binaries]
        )
        assert np.array_equal(model.decision_values(rows[:1]), before)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"class_labels": np.array([0, 1, 2])},
                r"^svm has 2 binaries, expected one per class of class_labels \[0, 1, 2\]$",
            ),
            (
                {"binaries": [BinarySvm(np.zeros((0, 2)), np.zeros(0), 0.5)]},
                r"^svm has 1 binaries, expected one per class of class_labels \[0, 1\]$",
            ),
            (
                {"binaries": [BinarySvm(np.zeros((0, 2)), np.zeros(0), 0.5),
                              BinarySvm(np.zeros((2, 3)), np.ones(2), 0.0)]},
                r"^svm binary 1 support_vectors has shape \[2, 3\], expected \[2, 2\]$",
            ),
            (
                {"binaries": [BinarySvm(np.zeros((0, 2)), np.zeros(0), 0.5),
                              BinarySvm(np.zeros((2, 2)), np.ones(1), 0.0)]},
                r"^svm binary 1 dual_coefs has shape \[1\], expected \[2\]$",
            ),
            (
                {"scaler": Scaler(np.zeros(1), np.ones(2))},
                r"^svm scaler mean has shape \[1\], expected \[2\]$",
            ),
            (
                {"scaler": Scaler(np.zeros(2), np.ones(3))},
                r"^svm scaler std has shape \[3\], expected \[2\]$",
            ),
        ],
        ids=["class-labels", "binaries", "support-vectors", "dual-coefs",
             "scaler-mean", "scaler-std"],
    )
    def test_model_fields_checked(self, fields, message):
        valid = {
            "spec": ClassifierSpec("svm"),
            "class_labels": np.array([0, 1]),
            "scaler": Scaler(np.zeros(2), np.ones(2)),
            "binaries": [BinarySvm(np.zeros((0, 2)), np.zeros(0), 0.5),
                         BinarySvm(np.eye(2), np.array([1.0, -1.0]), 0.0)],
            "n_features": 2,
        }
        SvmModel(**valid)
        with pytest.raises(ValueError, match=message):
            SvmModel(**{**valid, **fields})


class TestPredictContracts:
    @pytest.mark.parametrize(
        "spec",
        [
            ClassifierSpec("knn", {"k": 3}),
            ClassifierSpec("tree", {"max_depth": 4}),
            ClassifierSpec("logit", {"max_iterations": 100}),
            ClassifierSpec("svm", {"kernel": "rbf", "max_passes": 3}),
        ],
        ids=["knn", "tree", "logit", "svm"],
    )
    def test_predictions_stay_inside_training_labels(self, spec):
        rng = np.random.default_rng(263)
        data = blobs(rng, [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)], 8, spread=1.5)
        model = fit(spec, data, seed=7)
        probes = rng.standard_normal((40, 2)) * 4
        out = model.predict(probes)
        assert set(out.tolist()) <= set(model.class_labels.tolist())

    @pytest.mark.parametrize(
        "spec",
        [
            ClassifierSpec("knn", {"k": 3}),
            ClassifierSpec("tree", {"max_depth": 4}),
            ClassifierSpec("logit", {"max_iterations": 100}),
            ClassifierSpec("svm", {"kernel": "rbf", "max_passes": 5}),
        ],
        ids=["knn", "tree", "logit", "svm"],
    )
    def test_fit_is_deterministic(self, spec):
        rng = np.random.default_rng(269)
        data = blobs(rng, [(0.0, 0.0), (3.0, 3.0)], 10)
        probes = rng.standard_normal((25, 2)) * 3
        a = fit(spec, data, seed=42).predict(probes)
        b = fit(spec, data, seed=42).predict(probes)
        assert np.array_equal(a, b)


class TestDatasetValidation:
    def test_empty_dataset_rejected_by_fit(self):
        data = VectorDataset(np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            fit(ClassifierSpec("knn"), data, seed=0)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="label count"):
            VectorDataset(np.eye(3), np.array([0, 1]))

    def test_accuracy_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy(np.empty(0), np.empty(0))


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("kind", ["knn", "tree", "logit", "svm"])
    def test_fit_names_first_non_finite_row(self, kind):
        # separable 1-D set with one NaN row
        features = np.array([[0.0], [0.1], [np.nan], [1.0], [1.1], [np.inf]])
        data = VectorDataset(features, np.array([0, 0, 0, 1, 1, 1]))
        with pytest.raises(ValueError, match="row 2 "):
            fit(ClassifierSpec(kind, {"k": 1} if kind == "knn" else {}), data, 0)

    @pytest.mark.parametrize("kind", ["knn", "tree", "logit", "svm"])
    def test_predict_names_first_non_finite_row(self, kind):
        data = VectorDataset(
            np.array([[0.0], [0.1], [1.0], [1.1]]), np.array([0, 0, 1, 1])
        )
        model = fit(ClassifierSpec(kind, {"k": 1} if kind == "knn" else {}), data, 0)
        with pytest.raises(ValueError, match="row 1 "):
            model.predict(np.array([[0.05], [-np.inf], [np.nan]]))


class TestGridSearch:
    def test_single_spec_grid_returns_it(self):
        rng = np.random.default_rng(271)
        data = blobs(rng, [(0.0,), (4.0,)], 6)
        spec = ClassifierSpec("knn", {"k": 1})
        assert grid_search_cv([spec], [data], folds=3, seed=0) is spec

    def test_small_k_beats_degenerate_large_k(self):
        # each class is one point duplicated; a huge k only ever votes
        # the training majority, so it loses the minority class
        features = np.vstack(
            [np.zeros((12, 2)), np.ones((8, 2)) * 10.0]
        )
        labels = np.array([0] * 12 + [1] * 8)
        data = VectorDataset(features, labels)
        grid = [
            ClassifierSpec("knn", {"k": 999}),
            ClassifierSpec("knn", {"k": 1}),
        ]
        winner = grid_search_cv(grid, [data], folds=4, seed=13)
        assert winner["k"] == 1

    def test_identical_specs_tie_to_first(self):
        rng = np.random.default_rng(277)
        data = blobs(rng, [(0.0,), (5.0,)], 8)
        grid = [ClassifierSpec("knn", {"k": 3}), ClassifierSpec("knn", {"k": 3})]
        assert grid_search_cv(grid, [data], folds=4, seed=1) is grid[0]

    def test_too_many_folds_rejected(self):
        rng = np.random.default_rng(281)
        data = blobs(rng, [(0.0,), (5.0,)], 2)
        with pytest.raises(ValueError, match="folds"):
            grid_search_cv([ClassifierSpec("knn")], [data], folds=5, seed=0)

    def test_scores_the_mean_over_datasets(self):
        rng = np.random.default_rng(283)
        # a stump beats 1-NN on a threshold with three flipped labels...
        x = np.sort(rng.uniform(-1.0, 1.0, 24))
        y = (x > 0).astype(int)
        y[[2, 9, 20]] ^= 1
        threshold = VectorDataset(x[:, None], y)
        # ...and loses to it on XOR clusters, which no single split separates
        corners = 4.0 * np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
        xor = VectorDataset(
            np.vstack([c + 0.3 * rng.standard_normal((6, 2)) for c in corners]),
            np.repeat([0, 0, 1, 1], 6),
        )
        grid = [
            ClassifierSpec("tree", {"max_depth": 1}), ClassifierSpec("knn", {"k": 1})
        ]
        assert grid_search_cv(grid, [threshold], folds=4, seed=5) is grid[0]
        assert grid_search_cv(grid, [threshold, xor], folds=4, seed=5) is grid[1]
        means = [
            np.mean([cv_accuracy(s, d, 4, 5) for d in (threshold, xor)])
            for s in grid
        ]
        assert means[1] > means[0]

    def test_empty_dataset_list_rejected(self):
        with pytest.raises(ValueError, match="datasets must not be empty"):
            grid_search_cv([ClassifierSpec("knn")], [], folds=2, seed=0)

    def test_fold_blocks_partition_the_data(self):
        blocks = kfold_indices(11, 3, seed=9)
        joined = np.sort(np.concatenate(blocks))
        assert np.array_equal(joined, np.arange(11))
        assert all(len(b) > 0 for b in blocks)


class TestGridSearchWorkers:
    """The fold fits run on a pool of one worker per CPU, in this process
    at one CPU; the chosen spec and every error are the same either way."""

    @staticmethod
    def xor_clusters(rng, per_corner=6):
        corners = 4.0 * np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
        return VectorDataset(
            np.vstack(
                [c + 0.3 * rng.standard_normal((per_corner, 2)) for c in corners]
            ),
            np.repeat([0, 0, 1, 1], per_corner),
        )

    @pytest.mark.parametrize("count", [1, 2])
    def test_equal_specs_tie_to_the_earliest(self, cpus, count):
        cpus(count)
        rng = np.random.default_rng(331)
        datasets = [self.xor_clusters(rng), self.xor_clusters(rng, 5)]
        grid = [
            ClassifierSpec("tree", {"max_depth": 1}),
            ClassifierSpec("knn", {"k": 3}),
            ClassifierSpec("knn", {"k": 1}),
            ClassifierSpec("knn", {"k": 3}),
        ]
        means = [
            np.mean([cv_accuracy(s, d, 4, 5) for d in datasets]) for s in grid
        ]
        assert means[0] < means[1] == means[2] == means[3]  # a real tie
        assert grid_search_cv(grid, datasets, folds=4, seed=5) is grid[1]
        assert cpus.pools == ([] if count == 1 else [2])

    @pytest.mark.parametrize(
        "count, n_specs", [(1, 2), (2, 1)], ids=["one-cpu", "one-spec"]
    )
    def test_no_pool_without_two_workers(self, cpus, count, n_specs):
        cpus(count)
        cpus.forbid_pools()
        rng = np.random.default_rng(347)
        data = blobs(rng, [(0.0,), (5.0,)], 8)
        grid = [ClassifierSpec("knn", {"k": 1 + 2 * i}) for i in range(n_specs)]
        assert grid_search_cv(grid, [data], folds=4, seed=1) is grid[0]

    def test_workers_inherit_the_data(self, cpus):
        # the datasets reach the workers through fork, never pickled
        class Unpicklable(VectorDataset):
            def __reduce_ex__(self, protocol):
                raise AssertionError("a dataset was pickled")

        cpus(2)
        rng = np.random.default_rng(349)
        data = self.xor_clusters(rng)
        grid = [
            ClassifierSpec("tree", {"max_depth": 1}), ClassifierSpec("knn", {"k": 1})
        ]
        shared = Unpicklable(data.features, data.labels)
        assert grid_search_cv(grid, [shared], folds=4, seed=5) is grid[1]
        assert cpus.pools == [2]

    @pytest.mark.parametrize("count", [1, 2])
    def test_first_failing_fit_raises(self, cpus, monkeypatch, count):
        # each fold's fit fails with its own message; the first fold's is raised
        import telkit.learners as learners

        def failing(spec, data, seed):
            raise ValueError(f"no svm for seed {seed}")

        monkeypatch.setitem(learners._FITTERS, "svm", failing)
        cpus(count)
        rng = np.random.default_rng(353)
        data = blobs(rng, [(0.0,), (5.0,)], 8)
        grid = [ClassifierSpec("knn", {"k": 1}), ClassifierSpec("svm")]
        message = f"no svm for seed {mix_seed(9, 0)}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            grid_search_cv(grid, [data], folds=4, seed=9)
