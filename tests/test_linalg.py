"""SVD and PCA contracts: reconstruction, determinism, optimality."""

import numpy as np
import pytest

from telkit.linalg import (
    _canonicalize_signs,
    pca_fit,
    pca_transform,
    thin_svd,
    truncated_svd,
)


def reconstruction(svd):
    return svd.U @ np.diag(svd.singular_values) @ svd.V.T


def orthonormality_residual(m):
    return np.linalg.norm(m.T @ m - np.eye(m.shape[1]))


def reference_canonicalize_signs(U, *companions):
    """The per-column sign loop the library ran before the rule was
    vectorised: flip column j of U (and of each companion) when the
    first entry of largest |U[:, j]| is negative."""
    for j in range(U.shape[1]):
        peak = np.argmax(np.abs(U[:, j]))
        if U[peak, j] < 0:
            U[:, j] = -U[:, j]
            for c in companions:
                c[:, j] = -c[:, j]


def same_bits(a, b):
    """Equal shapes and equal bytes, so signed zeros must match too."""
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


class TestSignRule:
    def check(self, U, V):
        expected_U, expected_V = U.copy(), V.copy()
        batch = U.shape[:-2]
        for index in np.ndindex(batch):
            reference_canonicalize_signs(expected_U[index], expected_V[index])
        _canonicalize_signs(U, V)
        assert same_bits(U, expected_U)
        assert same_bits(V, expected_V)

    def test_random_matrices(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            rows, cols = rng.integers(1, 12, size=2)
            self.check(
                rng.standard_normal((rows, cols)),
                rng.standard_normal((int(rng.integers(1, 12)), cols)),
            )

    def test_exact_peak_ties(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            # entries in {-0.5, 0, 0.5}: most columns tie on |peak|
            U = 0.5 * rng.integers(-1, 2, size=(5, 7)).astype(float)
            self.check(U, rng.standard_normal((3, 7)))
        U = np.array([[0.5, -0.5], [-0.5, 0.5]])
        _canonicalize_signs(U)
        assert U.tolist() == [[0.5, 0.5], [-0.5, -0.5]]  # first row wins

    def test_all_zero_columns(self):
        U = np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -2.0], [0.0, 0.0, 0.0]])
        V = np.array([[1.0, -1.0, 0.0], [-0.0, 2.0, 3.0]])
        self.check(U, V)

    def test_stacks(self):
        rng = np.random.default_rng(103)
        U = rng.standard_normal((3, 4, 6, 5))
        U[0, 1, :, 2] = 0.0
        U[2, 3] = np.round(U[2, 3])
        self.check(U, rng.standard_normal((3, 4, 2, 5)))

    def test_thin_svd_and_pca_follow_the_reference(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            m = rng.standard_normal(tuple(rng.integers(2, 10, size=2)))
            U, s, Vt = np.linalg.svd(m, full_matrices=False)
            U, V = U.copy(), Vt.T.copy()
            reference_canonicalize_signs(U, V)
            svd = thin_svd(m)
            assert same_bits(svd.U, U) and same_bits(svd.V, V)

            r = int(rng.integers(1, min(m.shape) + 1))
            centered = m - m.mean(axis=0)
            components = thin_svd(centered).V[:, :r].copy()
            reference_canonicalize_signs(components)
            assert same_bits(pca_fit(m, r).components, components)


class TestThinSvd:
    def test_identity(self):
        svd = thin_svd(np.eye(3))
        assert np.allclose(svd.singular_values, [1, 1, 1])
        assert np.allclose(reconstruction(svd), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        svd = thin_svd(np.diag([3.0, 2.0, 1.0]))
        assert svd.singular_values.tolist() == [3.0, 2.0, 1.0]

    def test_permutation_matrix(self):
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        svd = thin_svd(m)
        assert np.allclose(svd.singular_values, [1.0, 1.0])
        assert np.linalg.norm(reconstruction(svd) - m) <= 1e-12

    def test_reconstruction_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = rng.standard_normal((rng.integers(1, 65), rng.integers(1, 65)))
            svd = thin_svd(m)
            err = np.linalg.norm(reconstruction(svd) - m)
            assert err <= 1e-9 * np.linalg.norm(m)
            assert orthonormality_residual(svd.U) <= 1e-10
            assert orthonormality_residual(svd.V) <= 1e-10
            s = svd.singular_values
            assert np.all(s[:-1] >= s[1:]) and np.all(s >= 0)

    def test_sign_canonicalization(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = rng.standard_normal((6, 4))
            svd = thin_svd(m)
            for j in range(svd.U.shape[1]):
                column = svd.U[:, j]
                assert column[np.argmax(np.abs(column))] >= 0

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((12, 7))
        first = thin_svd(m)
        second = thin_svd(m.copy())
        assert np.array_equal(first.U, second.U)
        assert np.array_equal(first.singular_values, second.singular_values)
        assert np.array_equal(first.V, second.V)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            thin_svd(np.array([[1.0, np.nan]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            thin_svd(np.empty((0, 3)))


class TestTruncatedSvd:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(43)
        m = np.outer(rng.standard_normal(5), rng.standard_normal(4))
        svd = truncated_svd(m, 1)
        assert np.linalg.norm(reconstruction(svd) - m) <= 1e-10

    def test_residual_is_discarded_sigma(self):
        svd = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        residual = np.linalg.norm(
            reconstruction(svd) - np.diag([3.0, 2.0, 1.0])
        )
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_overlarge_rank_clamps_to_thin(self):
        rng = np.random.default_rng(47)
        m = rng.standard_normal((5, 3))
        clamped = truncated_svd(m, 10)
        thin = thin_svd(m)
        assert clamped.rank == 3
        assert np.array_equal(clamped.U, thin.U)
        assert np.array_equal(clamped.singular_values, thin.singular_values)

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            truncated_svd(np.eye(2), 0)

    def test_residual_identity_random(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            m = rng.standard_normal((10, 8))
            r = int(rng.integers(1, 8))
            svd = truncated_svd(m, r)
            residual_sq = np.linalg.norm(m - reconstruction(svd)) ** 2
            discarded_sq = np.sum(thin_svd(m).singular_values[r:] ** 2)
            assert residual_sq == pytest.approx(discarded_sq, rel=1e-8)

    def test_eckart_young_beats_random_factorizations(self):
        rng = np.random.default_rng(59)
        m = rng.standard_normal((12, 9))
        r = 3
        best = np.linalg.norm(m - reconstruction(truncated_svd(m, r)))
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((12, r)))
            candidate = q @ (q.T @ m)  # random rank-r projection of m
            assert best <= np.linalg.norm(m - candidate) + 1e-12


class TestPca:
    def test_collinear_data_recovers_direction(self):
        rng = np.random.default_rng(61)
        direction = np.array([3.0, 4.0]) / 5.0
        t = rng.standard_normal(30)
        data = np.outer(t - t.mean(), direction)  # zero-mean on a line
        model = pca_fit(data, 1)
        cosine = float(model.components[:, 0] @ direction)
        assert abs(cosine) >= 1 - 1e-10

    def test_full_rank_transform_preserves_distances(self):
        rng = np.random.default_rng(67)
        data = rng.standard_normal((20, 5))
        model = pca_fit(data, 5)
        out = pca_transform(model, data)
        for i in range(0, 20, 5):
            for j in range(i + 1, 20, 3):
                before = np.linalg.norm(data[i] - data[j])
                after = np.linalg.norm(out[i] - out[j])
                assert after == pytest.approx(before, abs=1e-10)

    def test_constant_dataset_transforms_to_zero(self):
        data = np.full((6, 4), 2.5)
        model = pca_fit(data, 1)
        assert np.allclose(pca_transform(model, data), 0.0, atol=1e-12)

    def test_transform_of_mean_is_zero(self):
        rng = np.random.default_rng(71)
        data = rng.standard_normal((15, 6))
        model = pca_fit(data, 3)
        out = pca_transform(model, model.mean[None, :])
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_training_output_is_centered(self):
        rng = np.random.default_rng(73)
        data = rng.standard_normal((25, 4)) + 7.0
        model = pca_fit(data, 2)
        out = pca_transform(model, data)
        assert np.all(np.abs(out.mean(axis=0)) <= 1e-10)

    def test_mean_plus_component_maps_to_unit_axis(self):
        rng = np.random.default_rng(79)
        data = rng.standard_normal((12, 5))
        model = pca_fit(data, 3)
        point = model.mean + model.components[:, 0]
        out = pca_transform(model, point[None, :])
        assert out[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(out[0, 1:], 0.0, atol=1e-10)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(83)
        model = pca_fit(rng.standard_normal((30, 8)), 4)
        assert orthonormality_residual(model.components) <= 1e-10

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            pca_fit(np.ones((1, 3)), 1)

    def test_width_mismatch_rejected(self):
        model = pca_fit(np.random.default_rng(89).standard_normal((5, 3)), 2)
        with pytest.raises(ValueError, match="width"):
            pca_transform(model, np.ones((2, 4)))
