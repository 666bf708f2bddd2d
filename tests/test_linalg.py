"""PCA contracts and the sign rule: reference bits, geometry, input checks."""

import numpy as np
import pytest

from telkit.linalg import _canonicalize_signs, pca_fit, pca_transform


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
    def check(self, U):
        expected = U.copy()
        for index in np.ndindex(U.shape[:-2]):
            reference_canonicalize_signs(expected[index])
        _canonicalize_signs(U)
        assert same_bits(U, expected)

    def test_random_matrices(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            self.check(rng.standard_normal(tuple(rng.integers(1, 12, size=2))))

    def test_exact_peak_ties(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            # entries in {-0.5, 0, 0.5}: most columns tie on |peak|
            self.check(0.5 * rng.integers(-1, 2, size=(5, 7)).astype(float))
        U = np.array([[0.5, -0.5], [-0.5, 0.5]])
        _canonicalize_signs(U)
        assert U.tolist() == [[0.5, 0.5], [-0.5, -0.5]]  # first row wins

    def test_all_zero_columns(self):
        self.check(np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -2.0], [0.0, 0.0, 0.0]]))

    def test_stacks(self):
        rng = np.random.default_rng(103)
        U = rng.standard_normal((3, 4, 6, 5))
        U[0, 1, :, 2] = 0.0
        U[2, 3] = np.round(U[2, 3])
        self.check(U)


class TestPcaReference:
    """``pca_fit`` gives the bits of two references: the sign rule on the
    leading right singular vectors, and the older route that flipped V
    with U by U's peak before re-signing each kept column by its own."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(107)
        for _ in range(40):
            yield rng.standard_normal(tuple(rng.integers(2, 10, size=2)))
        for _ in range(20):
            # small integers: exact peak ties in U and in V
            shape = tuple(rng.integers(2, 8, size=2))
            yield rng.integers(-2, 3, size=shape).astype(float)
        m = rng.standard_normal((6, 5))
        m[:, 1] = 3.0  # a constant feature centres to a zero column
        yield m
        yield np.full((4, 3), 2.5)  # every singular value zero

    @staticmethod
    def sign_rule_reference(centered, r):
        components = np.linalg.svd(centered, full_matrices=False)[2][:r].T.copy()
        reference_canonicalize_signs(components)
        return components

    @staticmethod
    def flip_with_u_reference(centered, r):
        U, _, Vt = np.linalg.svd(centered, full_matrices=False)
        U, V = U.copy(), Vt.T.copy()
        reference_canonicalize_signs(U, V)
        components = V[:, :r].copy()
        reference_canonicalize_signs(components)
        return components

    def test_components_and_transform_match_both_references(self):
        rng = np.random.default_rng(109)
        for m in self.inputs():
            r = int(rng.integers(1, min(m.shape) + 1))
            centered = m - m.mean(axis=0)
            model = pca_fit(m, r)
            for reference in (self.sign_rule_reference, self.flip_with_u_reference):
                components = reference(centered, r)
                assert same_bits(model.components, components)
                assert same_bits(pca_transform(model, m), centered @ components)


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

    @pytest.mark.parametrize(
        "r, message",
        [
            (2.5, "retained dimension must be an integer, got 2.5"),
            (True, "retained dimension must be a number, got True"),
            ("2", "retained dimension must be a number, got '2'"),
        ],
        ids=["half", "bool", "str"],
    )
    def test_non_integer_retained_dimension_rejected(self, r, message):
        # int(r) ran these at 2, 1 and 2 without a word
        with pytest.raises(ValueError, match=f"^{message}$"):
            pca_fit(np.random.default_rng(71).standard_normal((6, 4)), r)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        data = np.ones((4, 3))
        data[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pca_fit(data, 2)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            pca_fit(np.empty((3, 0)), 1)
