"""Base-learner contracts: worked examples, determinism, optimizer checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from telkit.learners import (
    ClassifierSpec,
    TreeNode,
    VectorDataset,
    accuracy,
    fit,
    grid_search_cv,
    kernel_matrix,
    kfold_indices,
    majority_label,
    predict,
)
from telkit.learners.logit import logit_gradient, logit_loss
from telkit.learners.svm import _MIN_ALPHA_STEP, _SWEEP_CAP, SvmModel, _smo
from telkit.learners.tree import _best_split


def blobs(rng, centers, per_class, spread=0.3):
    """Well-separated Gaussian clusters, one per class."""
    rows, labels = [], []
    for label, center in enumerate(centers):
        rows.append(center + spread * rng.standard_normal((per_class, len(center))))
        labels.extend([label] * per_class)
    return VectorDataset(np.vstack(rows), np.array(labels))


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
            key = (weighted, feature, threshold)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return best[1], best[2]


def reference_grow(X, y, depth, spec):
    if (
        np.unique(y).size == 1
        or depth >= spec["max_depth"]
        or y.size < spec["min_samples_split"]
    ):
        return TreeNode(label=majority_label(y))
    split = reference_best_split(X, y)
    if split is None:
        return TreeNode(label=majority_label(y))
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
                try:
                    expected = reference_grow(X, y, 0, spec)
                except ValueError:
                    # a midpoint rounded onto the largest value left a child
                    # empty; the library fails the same way
                    with pytest.raises(ValueError):
                        fit(spec, data, seed=0)
                    continue
                assert fit(spec, data, seed=0).root == expected, seed

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


class TestSmoExactness:
    @pytest.mark.parametrize("kernel", ["rbf", "poly"])
    @pytest.mark.parametrize("C", [0.5, 1, 10.0])
    def test_matches_reference_bit_for_bit(self, kernel, C):
        spec = ClassifierSpec("svm", {"kernel": kernel, "C": C, "degree": 2})
        for seed in range(3):
            rng = np.random.default_rng(seed)
            m = 24 + 6 * seed
            X = rng.standard_normal((m, 3))
            # overlapping classes, so many multipliers reach the bound C
            y = np.where(X[:, 0] + 0.8 * rng.standard_normal(m) > 0, 1.0, -1.0)
            K = kernel_matrix(spec, X, X)
            args = (K, y, C, spec["tolerance"], spec["max_passes"])
            alphas, bias = _smo(*args, np.random.default_rng(seed))
            ref_alphas, ref_bias = reference_smo(*args, np.random.default_rng(seed))
            assert np.array_equal(alphas, ref_alphas), seed
            assert bias == ref_bias, seed


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

    def test_bad_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            ClassifierSpec("svm", {"kernel": "sigmoid"})

    def test_round_trip(self):
        spec = ClassifierSpec("tree", {"max_depth": 3})
        assert ClassifierSpec.from_dict(spec.to_dict()) == spec


class TestKnn:
    def test_k1_returns_own_label_on_training_points(self):
        rng = np.random.default_rng(211)
        data = blobs(rng, [(0.0, 0.0), (5.0, 5.0), (-5.0, 5.0)], 8)
        model = fit(ClassifierSpec("knn", {"k": 1}), data, seed=0)
        assert np.array_equal(model.predict(data.features), data.labels)

    def test_empty_feature_matrix(self):
        data = VectorDataset(np.eye(3), np.array([0, 1, 2]))
        model = fit(ClassifierSpec("knn", {"k": 1}), data, seed=0)
        assert model.predict(np.empty((0, 3))).size == 0

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
        out = predict(model, probes)
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
        a = predict(fit(spec, data, seed=42), probes)
        b = predict(fit(spec, data, seed=42), probes)
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
        assert grid_search_cv([spec], data, folds=3, seed=0) is spec

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
        winner = grid_search_cv(grid, data, folds=4, seed=13)
        assert winner["k"] == 1

    def test_identical_specs_tie_to_first(self):
        rng = np.random.default_rng(277)
        data = blobs(rng, [(0.0,), (5.0,)], 8)
        grid = [ClassifierSpec("knn", {"k": 3}), ClassifierSpec("knn", {"k": 3})]
        assert grid_search_cv(grid, data, folds=4, seed=1) is grid[0]

    def test_too_many_folds_rejected(self):
        rng = np.random.default_rng(281)
        data = blobs(rng, [(0.0,), (5.0,)], 2)
        with pytest.raises(ValueError, match="folds"):
            grid_search_cv([ClassifierSpec("knn")], data, folds=5, seed=0)

    def test_fold_blocks_partition_the_data(self):
        blocks = kfold_indices(11, 3, seed=9)
        joined = np.sort(np.concatenate(blocks))
        assert np.array_equal(joined, np.arange(11))
        assert all(len(b) > 0 for b in blocks)
