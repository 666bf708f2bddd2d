"""Tensor primitives: worked examples plus randomized invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telkit.tensor import (
    DenseTensor,
    _mode_product,
    fold,
    frobenius_norm,
    mode_n_product,
    outer_product,
    unfold,
)


def brute_unfold(x: DenseTensor, mode: int) -> np.ndarray:
    """Oracle: enumerate mode-n fibers straight from the definition.

    Column j fixes the non-mode indices, enumerated with the lowest
    surviving index varying fastest.
    """
    array = x.to_array()
    shape = x.shape
    rest = [shape[n] for n in range(x.order) if n != mode]
    n_cols = int(np.prod(rest)) if rest else 1
    out = np.empty((shape[mode], n_cols))
    for j in range(n_cols):
        remainder = j
        index = []
        for size in rest:
            index.append(remainder % size)
            remainder //= size
        full = index[:mode] + [slice(None)] + index[mode:]
        out[:, j] = array[tuple(full)]
    return out


def random_tensor(rng, max_order=5, max_dim=6) -> DenseTensor:
    order = rng.integers(1, max_order + 1)
    shape = tuple(int(d) for d in rng.integers(1, max_dim + 1, size=order))
    return DenseTensor(shape, rng.standard_normal(int(np.prod(shape))))


class TestDenseTensor:
    def test_column_major_element_access(self):
        x = DenseTensor((2, 2, 2), range(1, 9))
        assert x[0, 0, 0] == 1
        assert x[1, 0, 0] == 2
        assert x[0, 1, 0] == 3
        assert x[1, 1, 1] == 8

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match shape"):
            DenseTensor((2, 3), range(5))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            DenseTensor((2, 0), [])

    def test_empty_shape_rejected(self):
        with pytest.raises(ValueError, match="order"):
            DenseTensor((), [1.0])

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: DenseTensor((2.5, 2), range(4)),
                r"shape\[0\] must be an integer, got 2.5",
            ),
            (
                lambda: DenseTensor((True, 4), range(4)),
                r"shape\[0\] must be a number, got True",
            ),
            (
                lambda: DenseTensor(("2", 2), range(4)),
                r"shape\[0\] must be a number, got '2'",
            ),
            (
                lambda: DenseTensor((2, 2), ["1", True, 3, 4]),
                r"tensor data\[0\] must be a number, got '1'",
            ),
            (
                lambda: DenseTensor((2, 2), [1, True, 3, 4]),
                r"tensor data\[1\] must be a number, got True",
            ),
            (
                lambda: DenseTensor.from_array(np.array([[True, False]])),
                r"tensor data\[0\]\[0\] must be a number",
            ),
            (
                lambda: fold(np.ones((2, 2)), 0, (2, 2.5)),
                r"shape\[1\] must be an integer, got 2.5",
            ),
        ],
        ids=["shape-half", "shape-bool", "shape-str", "data-str", "data-bool",
             "from-array-bool", "fold-shape-half"],
    )
    def test_non_number_rejected(self, build, message):
        # int(s) and float casts ran these without a word
        with pytest.raises(ValueError, match=f"^{message}"):
            build()

    def test_immutable(self):
        x = DenseTensor((2, 2), range(4))
        with pytest.raises(ValueError):
            x.to_array()[0, 0] = 99.0


class TestUnfold:
    def test_mode0_example(self):
        x = DenseTensor((2, 2, 2), range(1, 9))
        expected = [[1, 3, 5, 7], [2, 4, 6, 8]]
        assert unfold(x, 0).tolist() == expected

    def test_mode1_example(self):
        x = DenseTensor((2, 2, 2), range(1, 9))
        expected = [[1, 2, 5, 6], [3, 4, 7, 8]]
        assert unfold(x, 1).tolist() == expected

    def test_vector_unfolds_to_single_column(self):
        x = DenseTensor((4,), [5, 6, 7, 8])
        assert unfold(x, 0).tolist() == [[5], [6], [7], [8]]

    def test_matches_fiber_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            x = random_tensor(rng)
            for mode in range(x.order):
                assert np.array_equal(unfold(x, mode), brute_unfold(x, mode))

    def test_mode_out_of_range(self):
        x = DenseTensor((2, 2), range(4))
        with pytest.raises(ValueError, match="out of range"):
            unfold(x, 2)


class TestFold:
    def test_round_trips_worked_examples(self):
        x = DenseTensor((2, 2, 2), range(1, 9))
        assert fold(unfold(x, 0), 0, x.shape) == x
        assert fold(unfold(x, 1), 1, x.shape) == x

    def test_column_to_order3(self):
        t = fold(np.array([[1.0], [2.0], [3.0]]), 0, (3, 1, 1))
        assert t.shape == (3, 1, 1)
        assert t.data.tolist() == [1, 2, 3]

    def test_round_trip_bit_exact_random(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            x = random_tensor(rng)
            for mode in range(x.order):
                back = fold(unfold(x, mode), mode, x.shape)
                assert back == x  # bitwise equality

    def test_inconsistent_dimensions(self):
        with pytest.raises(ValueError, match="inconsistent"):
            fold(np.ones((2, 3)), 0, (2, 2))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fold_inverts_unfold_property(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    size = int(np.prod(shape))
    values = data.draw(st.lists(st.floats(), min_size=size, max_size=size))
    x = DenseTensor(shape, values)
    for n in range(len(shape)):
        back = fold(unfold(x, n), n, shape)
        assert back.shape == shape
        assert back.data.tobytes() == x.data.tobytes()  # NaN and -0.0 included


class TestModeNProduct:
    def test_identity_leaves_tensor_unchanged(self):
        rng = np.random.default_rng(3)
        x = random_tensor(rng, max_order=4)
        for mode in range(x.order):
            y = mode_n_product(x, np.eye(x.shape[mode]), mode)
            assert y == x

    def test_summing_row_example(self):
        x = DenseTensor((2, 2, 2), range(1, 9))
        y = mode_n_product(x, np.array([[1.0, 1.0]]), 0)
        assert y.shape == (1, 2, 2)
        assert y.data.tolist() == [3, 7, 11, 15]

    def test_unfolded_identity_on_random_instances(self):
        rng = np.random.default_rng(5)
        x = DenseTensor((3, 4, 5), rng.standard_normal(60))
        a = rng.standard_normal((2, 3))
        lhs = unfold(mode_n_product(x, a, 0), 0)
        rhs = a @ brute_unfold(x, 0)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_commutes_across_distinct_modes(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = DenseTensor((3, 4, 5), rng.standard_normal(60))
            a = rng.standard_normal((2, 3))
            b = rng.standard_normal((6, 5))
            left = mode_n_product(mode_n_product(x, a, 0), b, 2)
            right = mode_n_product(mode_n_product(x, b, 2), a, 0)
            scale = np.linalg.norm(left.data)
            assert np.linalg.norm(left.data - right.data) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "shape",
        [(5,), (1,), (3, 1), (1, 4), (3, 4, 2), (2, 1, 3), (3, 2, 4, 2), (1, 1, 1, 1)],
    )
    def test_bits_and_layout_equal_fold_of_unfolded_product(self, shape):
        # the definition, fold(factor @ unfold(x, n)), is how the product was
        # computed before the plain-array kernel, which must round the same
        # and lay its result out as a DenseTensor stores it
        rng = np.random.default_rng([23, *shape])
        x = DenseTensor.from_array(rng.standard_normal(shape))
        for mode, size in enumerate(shape):
            for rows in sorted({1, size, 3}):
                a = rng.standard_normal((rows, size))
                # C- and F-ordered factors and a transposed column slice
                b = rng.standard_normal((2, size, rows + 1))[1, :, :rows].T
                for factor in (a, np.asfortranarray(a), b):
                    new_shape = shape[:mode] + (rows,) + shape[mode + 1 :]
                    expected = fold(factor @ unfold(x, mode), mode, new_shape)
                    product = mode_n_product(x, factor, mode)
                    raw = _mode_product(x.to_array()[..., None], factor, mode)[..., 0]
                    assert product.to_array().tobytes() == expected.to_array().tobytes()
                    assert raw.tobytes(order="A") == expected.to_array().tobytes(order="A")
                    assert raw.strides == expected.to_array().strides

    def test_dimension_mismatch(self):
        x = DenseTensor((2, 2), range(4))
        with pytest.raises(ValueError, match="columns"):
            mode_n_product(x, np.ones((2, 3)), 0)


class TestOuterProduct:
    def test_basis_vectors(self):
        t = outer_product([np.array([1.0, 0.0])] * 3)
        assert t.shape == (2, 2, 2)
        assert t[0, 0, 0] == 1.0
        assert np.sum(np.abs(t.data)) == 1.0

    def test_scalars(self):
        t = outer_product([np.array([2.0]), np.array([3.0]), np.array([4.0])])
        assert t.shape == (1, 1, 1)
        assert t[0, 0, 0] == 24.0

    def test_two_vectors(self):
        t = outer_product([np.array([1.0, 2.0]), np.array([1.0, 1.0])])
        assert t.to_array().tolist() == [[1, 1], [2, 2]]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            outer_product([])

    def test_empty_vector_rejected_by_the_tensor_rule(self):
        with pytest.raises(ValueError, match=r"^all dimensions must be >= 1, got \(2, 0\)$"):
            outer_product([np.array([1.0, 2.0]), np.array([])])

    def test_every_unfolding_has_rank_one(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            order = rng.integers(2, 5)
            vectors = [
                rng.standard_normal(rng.integers(2, 6)) for _ in range(order)
            ]
            t = outer_product(vectors)
            for mode in range(order):
                s = np.linalg.svd(unfold(t, mode), compute_uv=False)
                assert s[1] <= 1e-12 * s[0]


class TestFrobeniusNorm:
    def test_zero_tensor(self):
        assert frobenius_norm(DenseTensor((3, 2), np.zeros(6))) == 0.0

    def test_single_negative_entry(self):
        assert frobenius_norm(DenseTensor((1, 1, 1), [-3.0])) == 3.0

    def test_one_to_eight(self):
        x = DenseTensor((2, 2, 2), range(1, 9))
        assert frobenius_norm(x) == pytest.approx(np.sqrt(204), rel=1e-15)
