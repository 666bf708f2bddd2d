"""HOSVD: factorization contracts, truncation bounds, rank search."""

import importlib
import itertools
import re

import numpy as np
import pytest

from telkit.ensemble import LabeledTensorDataset
from telkit.hosvd import (
    HosvdFactors,
    _chunk_cores,
    _leading,
    _multiply,
    _reconstruction_errors,
    _storage,
    _tail_errors,
    clamp_rank,
    hosvd,
    hosvd_factors,
    rank_search,
    reconstruct,
    relative_error,
)
from telkit.tensor import (
    DenseTensor,
    _batch_view,
    fold,
    frobenius_norm,
    mode_n_product,
    outer_product,
    unfold,
)


def rows(samples) -> tuple[np.ndarray, tuple[int, ...]]:
    """The ``(M, P)`` array and the shape of a list of same-shape samples."""
    data = LabeledTensorDataset(samples, np.zeros(len(samples), int))
    return data.data, data.shape


def random_tensor(rng, shape) -> DenseTensor:
    return DenseTensor(shape, rng.standard_normal(int(np.prod(shape))))


def outer_sum_reconstruction(factors) -> np.ndarray:
    """Oracle: sum core-weighted outer products over all index tuples."""
    core = factors.core.to_array()
    out = np.zeros(factors.shape)
    for idx in itertools.product(*map(range, core.shape)):
        rank1 = outer_product(
            [factors.factors[n][:, idx[n]] for n in range(len(idx))]
        )
        out += core[idx] * rank1.to_array()
    return out


def low_rank_samples(rng, shape, m, noise) -> list[DenseTensor]:
    """Samples of multilinear rank <= 2 per mode plus Gaussian noise."""
    core_shape = tuple(min(2, i) for i in shape)
    samples = []
    for _ in range(m):
        x = DenseTensor.from_array(rng.standard_normal(core_shape))
        for n, i in enumerate(shape):
            x = mode_n_product(x, rng.standard_normal((i, core_shape[n])), n)
        samples.append(
            DenseTensor.from_array(
                x.to_array() + noise * rng.standard_normal(shape)
            )
        )
    return samples


def reference_rank_search(samples, max_relative_error):
    """The greedy search scored by decomposing and reconstructing every
    sample at every candidate rank (the implementation the core-energy
    search replaced)."""

    def mean_error(rank):
        errors = [
            relative_error(x, reconstruct(hosvd(x, rank))) for x in samples
        ]
        return float(np.mean(errors))

    shape = samples[0].shape
    current = clamp_rank(shape, shape)
    while True:
        best = None
        for n in range(len(shape)):
            if current[n] <= 1:
                continue
            candidate = current[:n] + (current[n] - 1,) + current[n + 1 :]
            err = mean_error(candidate)
            if err > max_relative_error:
                continue
            key = (err, _storage(candidate, shape), n)
            if best is None or key < best[0]:
                best = (key, candidate)
        if best is None:
            return current
        current = best[1]


def unfolding_spectra(x: DenseTensor) -> list[np.ndarray]:
    return [
        np.linalg.svd(unfold(x, n), compute_uv=False) for n in range(x.order)
    ]


class TestHosvd:
    def test_rank_one_basis_tensor(self):
        e1 = np.array([1.0, 0.0])
        x = outer_product([e1, e1, e1])
        f = hosvd(x, (1, 1, 1))
        assert abs(abs(f.core[0, 0, 0]) - 1.0) <= 1e-12
        for factor in f.factors:
            assert np.allclose(np.abs(factor[:, 0]), e1, atol=1e-12)
        err = np.linalg.norm(reconstruct(f).data - x.data)
        assert err <= 1e-12

    def test_full_rank_is_lossless(self):
        rng = np.random.default_rng(97)
        x = random_tensor(rng, (4, 5, 3))
        f = hosvd(x, (4, 5, 3))
        err = np.linalg.norm(reconstruct(f).data - x.data)
        assert err <= 1e-9 * frobenius_norm(x)

    def test_truncation_error_bounded_by_discarded_spectra(self):
        rng = np.random.default_rng(101)
        x = random_tensor(rng, (6, 7, 8))
        rank = (3, 3, 3)
        f = hosvd(x, rank)
        err_sq = np.linalg.norm(reconstruct(f).data - x.data) ** 2
        bound = sum(
            float(np.sum(s[r:] ** 2))
            for s, r in zip(unfolding_spectra(x), rank)
        )
        assert err_sq <= bound * (1 + 1e-8)

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            x = random_tensor(rng, (5, 4, 6))
            f = hosvd(x, (3, 2, 4))
            for factor in f.factors:
                gram = factor.T @ factor
                assert np.linalg.norm(gram - np.eye(factor.shape[1])) <= 1e-10

    def test_rank_clamping_reported(self):
        rng = np.random.default_rng(107)
        x = random_tensor(rng, (2, 3, 4))
        f = hosvd(x, (9, 9, 9))
        assert f.effective_rank == (2, 3, 4)
        assert f.core.shape == (2, 3, 4)

    def test_clamp_uses_product_of_other_dims(self):
        # a 5x2x2 tensor's mode-0 unfolding has only 4 columns
        assert clamp_rank((5, 2, 2), (5, 2, 2)) == (4, 2, 2)

    def test_rank_length_mismatch(self):
        x = DenseTensor((2, 2), range(4))
        message = "rank [2, 2, 2] has 3 entries but shape [2, 2] has 2"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hosvd(x, (2, 2, 2))

    def test_non_finite_rejected(self):
        x = DenseTensor((2, 2), [1.0, np.inf, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-finite"):
            hosvd(x, (2, 2))

    def test_projection_idempotence(self):
        rng = np.random.default_rng(109)
        x = random_tensor(rng, (5, 6, 4))
        rank = (2, 3, 2)
        projected = reconstruct(hosvd(x, rank))
        again = reconstruct(hosvd(projected, rank))
        assert relative_error(projected, again) <= 1e-9

    def test_arbitrary_orders(self):
        rng = np.random.default_rng(125)
        for shape, rank in [((6,), (2,)), ((5, 7), (3, 3)), ((3, 4, 2, 5), (2, 2, 2, 2))]:
            x = random_tensor(rng, shape)
            f = hosvd(x, rank)
            assert f.core.shape == f.effective_rank
            full = hosvd(x, shape)
            err = np.linalg.norm(reconstruct(full).data - x.data)
            assert err <= 1e-9 * frobenius_norm(x)

    def test_error_monotone_in_each_rank(self):
        rng = np.random.default_rng(113)
        x = random_tensor(rng, (5, 5, 5))
        base = (2, 2, 2)
        base_err = relative_error(x, reconstruct(hosvd(x, base)))
        for n in range(3):
            grown = base[:n] + (base[n] + 1,) + base[n + 1 :]
            grown_err = relative_error(x, reconstruct(hosvd(x, grown)))
            assert grown_err <= base_err + 1e-10


# the package re-exports ``hosvd``, shadowing the module attribute
HOSVD_MODULE = importlib.import_module("telkit.hosvd")


def reference_factors(x: DenseTensor, rank) -> list[np.ndarray]:
    """Per-sample factors as ``hosvd`` computed them before the batched
    kernel: a thin SVD of each unfolding, the per-column sign loop over
    every column of U, then the leading R_n columns."""
    factors = []
    for n, r in enumerate(clamp_rank(rank, x.shape)):
        U = np.linalg.svd(unfold(x, n), full_matrices=False)[0].copy()
        for j in range(U.shape[1]):
            peak = np.argmax(np.abs(U[:, j]))
            if U[peak, j] < 0:
                U[:, j] = -U[:, j]
        factors.append(U[:, :r])
    return factors


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes, so signed zeros must match too."""
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def kernel_samples(rng, shape, m=20) -> list[DenseTensor]:
    """Gaussian samples of mixed scale, one all-zero and one whose
    integer entries make ties in the sign rule likely."""
    samples = [
        random_tensor(rng, shape) if k % 3 else
        DenseTensor.from_array(1e-3 * rng.standard_normal(shape))
        for k in range(m)
    ]
    samples[4] = DenseTensor.from_array(np.zeros(shape))
    samples[11] = DenseTensor.from_array(np.round(rng.standard_normal(shape)))
    return samples


class TestHosvdFactors:
    CASES = [
        ((5, 7), (3, 4)),
        ((6, 5, 4), (2, 3, 2)),
        ((3, 4, 2, 3), (2, 3, 1, 2)),
        ((10, 2, 2), (5, 2, 2)),  # mode 0 clamps to 4
        ((8, 8, 3), (2, 2, 1)),  # the benchmark spec
    ]

    @pytest.mark.parametrize("chunk", [1, 7, 20, 64])
    @pytest.mark.parametrize("shape, rank", CASES)
    def test_matches_per_sample_reference(self, monkeypatch, shape, rank, chunk):
        monkeypatch.setattr(HOSVD_MODULE, "_CHUNK", chunk)
        rng = np.random.default_rng(113)
        samples = kernel_samples(rng, shape)
        stacks, effective = hosvd_factors(*rows(samples), rank)
        assert effective == clamp_rank(rank, shape)
        assert [s.shape for s in stacks] == [
            (len(samples), i, r) for i, r in zip(shape, effective)
        ]
        for m, x in enumerate(samples):
            expected = reference_factors(x, rank)
            for n, stack in enumerate(stacks):
                assert same_bits(stack[m], expected[n])
            assert all(
                same_bits(f, e) for f, e in zip(hosvd(x, rank).factors, expected)
            )

    @pytest.mark.parametrize("shape, rank", CASES)
    def test_hosvd_core_matches_reference(self, shape, rank):
        rng = np.random.default_rng(127)
        for x in kernel_samples(rng, shape, m=12):
            core = x
            for n, factor in enumerate(reference_factors(x, rank)):
                core = mode_n_product(core, factor.T, n)
            assert same_bits(hosvd(x, rank).core.to_array(), core.to_array())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_names_the_sample(self, monkeypatch, value):
        monkeypatch.setattr(HOSVD_MODULE, "_CHUNK", 7)
        rng = np.random.default_rng(131)
        samples = kernel_samples(rng, (3, 4, 2))
        poisoned = samples[9].data.copy()
        poisoned[5] = value
        samples[9] = DenseTensor((3, 4, 2), poisoned)
        with pytest.raises(ValueError, match="non-finite entries in sample 9"):
            hosvd_factors(*rows(samples), (2, 2, 1))

    def test_rows_of_another_size_and_empty_input_rejected(self):
        message = r"^samples of shape \(3, 4, 2\) need rows of 24 entries, got"
        for data in (np.zeros((2, 25)), np.zeros(24), np.zeros((2, 3, 8))):
            with pytest.raises(ValueError, match=message):
                hosvd_factors(data, (3, 4, 2), (2, 2, 1))
        with pytest.raises(ValueError, match="at least one sample"):
            hosvd_factors(np.zeros((0, 24)), (3, 4, 2), (2, 2, 1))


class TestMultiply:
    """``_multiply`` runs every mode product of a batch on plain arrays; the
    bits of each item are those of chained public ``mode_n_product`` calls
    and of the fold-of-unfolded-product definition."""

    @pytest.mark.parametrize(
        "shape",
        [(6,), (1,), (4, 1), (1, 5), (5, 4, 3), (3, 1, 4), (8, 8, 3),
         (3, 4, 2, 3), (2, 1, 1, 3)],
    )
    def test_bits_equal_chained_mode_n_products(self, shape):
        rng = np.random.default_rng([211, *shape])
        samples = [random_tensor(rng, shape) for _ in range(3)]
        stacks, full = hosvd_factors(*rows(samples), shape)
        ranks = {full, tuple(1 for _ in shape), tuple(max(1, r - 1) for r in full)}
        for rank in sorted(ranks):
            # the transposed column slices ``_chunk_cores`` passes, then
            # the plain slices ``_reconstruction_errors`` multiplies by
            views = [stack[:, :, :r].transpose(0, 2, 1)
                     for stack, r in zip(stacks, rank)]
            cores = self.checked_multiply(samples, views)
            self.checked_multiply(cores, [v.transpose(0, 2, 1) for v in views])

    @staticmethod
    def checked_multiply(items, matrices):
        result = _multiply(_batch_view(*rows(items)), matrices)
        products = []
        for m, x in enumerate(items):
            chained, defined = x, x
            for n, matrix in enumerate(matrices):
                chained = mode_n_product(chained, matrix[m], n)
                new_shape = list(defined.shape)
                new_shape[n] = matrix.shape[1]
                defined = fold(matrix[m] @ unfold(defined, n), n, new_shape)
            assert same_bits(result[..., m], chained.to_array())
            assert same_bits(result[..., m], defined.to_array())
            products.append(chained)
        return products

    @pytest.mark.parametrize(
        "spoil", [lambda m: m[:, :, None], lambda m: m[:, 0]], ids=["3-d", "1-d"]
    )
    def test_reconstruct_rejects_a_factor_that_is_not_a_matrix(self, spoil):
        rng = np.random.default_rng(223)
        f = hosvd(random_tensor(rng, (3, 3)), (2, 2))
        stacked = HosvdFactors(
            core=f.core, factors=[f.factors[0], spoil(f.factors[1])],
            effective_rank=f.effective_rank,
        )
        with pytest.raises(ValueError, match="^factor must be a 2-d matrix$"):
            reconstruct(stacked)


def defined_product(x: DenseTensor, matrices) -> DenseTensor:
    """``x`` times ``matrices[n]`` along every mode n, one sample at a
    time by the definition: fold(matrix @ unfold(x, n))."""
    for n, matrix in enumerate(matrices):
        shape = x.shape[:n] + (matrix.shape[0],) + x.shape[n + 1 :]
        x = fold(matrix @ unfold(x, n), n, shape)
    return x


class TestBatchedKernel:
    """Every core and reconstruction of a batch, with factors shared by
    its samples or one per sample, has the bytes of the per-sample
    definition, at any batch size: the kernel's per-item rule."""

    # orders 1-4; (7, 1, 3) and (10, 2, 2) have clamped full ranks
    SHAPES = [(6,), (5, 3), (1, 4), (7, 1, 3), (10, 2, 2), (8, 8, 3), (3, 4, 2, 3)]

    @staticmethod
    def ranks(shape):
        full = clamp_rank(shape, shape)
        return sorted({
            full,
            tuple(1 for _ in full),
            tuple(max(1, r // 2) for r in full),
            tuple(min(r, 2) for r in full),
        })

    @pytest.mark.parametrize("count", [1, HOSVD_MODULE._CHUNK + 6])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_per_sample_factors(self, shape, count):
        rng = np.random.default_rng([233, count, *shape])
        samples = [random_tensor(rng, shape) for _ in range(count)]
        data, _ = rows(samples)
        for rank in self.ranks(shape):
            stacks, effective = _leading(data, shape, rank)
            cores = np.concatenate(
                [chunk for _, chunk in _chunk_cores(data, shape, stacks)], axis=-1
            )
            approx = _multiply(cores, stacks)
            found, errors = _reconstruction_errors(data, shape, rank)
            assert found == effective
            for m, x in enumerate(samples):
                factors = [stack[m] for stack in stacks]
                core = defined_product(x, [f.T for f in factors])
                expected = defined_product(core, factors)
                assert same_bits(cores[..., m], core.to_array())
                assert same_bits(approx[..., m], expected.to_array())
                assert errors[m] == relative_error(x, expected)
            if count == 1:
                assert same_bits(hosvd(samples[0], rank).core.to_array(), cores[..., 0])

    @pytest.mark.parametrize("count", [1, HOSVD_MODULE._CHUNK + 6])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_shared_factors(self, shape, count):
        rng = np.random.default_rng([239, count, *shape])
        for rank in self.ranks(shape):
            # orthonormal factors, as synthetic data is built from
            factors = [np.linalg.qr(rng.standard_normal((i, r)))[0]
                       for i, r in zip(shape, rank)]
            cores = [random_tensor(rng, rank) for _ in range(count)]
            approx = _multiply(_batch_view(*rows(cores)), factors)
            for m, core in enumerate(cores):
                expected = defined_product(core, factors)
                assert same_bits(approx[..., m], expected.to_array())
                rebuilt = reconstruct(HosvdFactors(core, factors, rank))
                assert same_bits(rebuilt.to_array(), expected.to_array())


class TestReconstruct:
    def test_identity_factors_reproduce_core(self):
        rng = np.random.default_rng(127)
        x = random_tensor(rng, (3, 4, 2))
        f = hosvd(x, (3, 4, 2))
        identity = HosvdFactors(
            core=x,
            factors=[np.eye(s) for s in x.shape],
            effective_rank=x.shape,
        )
        assert reconstruct(identity) == x

    def test_matches_outer_product_sum(self):
        rng = np.random.default_rng(131)
        x = random_tensor(rng, (3, 3, 3))
        f = hosvd(x, (2, 2, 2))
        via_products = reconstruct(f).to_array()
        via_sum = outer_sum_reconstruction(f)
        assert np.linalg.norm(via_products - via_sum) <= 1e-10

    def test_shape_inconsistency_rejected(self):
        rng = np.random.default_rng(137)
        x = random_tensor(rng, (3, 3))
        f = hosvd(x, (2, 2))
        broken = HosvdFactors(
            core=f.core, factors=[f.factors[0][:, :1], f.factors[1]],
            effective_rank=f.effective_rank,
        )
        with pytest.raises(ValueError, match="columns"):
            reconstruct(broken)


class TestRelativeError:
    @pytest.mark.parametrize(
        "shape, other", [((2, 2), (1,)), ((2, 2), (4,)), ((3, 2), (2, 3))],
        ids=["broadcast", "same-size", "transposed"],
    )
    def test_mismatched_shapes_rejected(self, shape, other):
        rng = np.random.default_rng(139)
        x, approx = random_tensor(rng, shape), random_tensor(rng, other)
        message = (f"approx shape {re.escape(str(other))} does not match "
                   f"x shape {re.escape(str(shape))}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            relative_error(x, approx)


class TestRankSearch:
    def test_rank_one_samples(self):
        rng = np.random.default_rng(139)
        samples = []
        for _ in range(4):
            vectors = [rng.standard_normal(d) for d in (4, 3, 5)]
            samples.append(outer_product(vectors))
        assert rank_search(*rows(samples), 0.01) == (1, 1, 1)

    def test_zero_threshold_returns_full_rank(self):
        rng = np.random.default_rng(149)
        samples = [random_tensor(rng, (3, 4, 2)) for _ in range(3)]
        assert rank_search(*rows(samples), 0.0) == clamp_rank((3, 4, 2), (3, 4, 2))

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(151)
        x = random_tensor(rng, (4, 4, 4))
        target = relative_error(x, reconstruct(hosvd(x, (2, 2, 2))))
        threshold = target + 1e-6

        result = rank_search(*rows([x]), threshold)
        result_err = relative_error(x, reconstruct(hosvd(x, result)))
        assert result_err <= threshold
        # greedy-minimal: no single decrement stays within budget
        for n in range(3):
            if result[n] > 1:
                smaller = result[:n] + (result[n] - 1,) + result[n + 1 :]
                err = relative_error(x, reconstruct(hosvd(x, smaller)))
                assert err > threshold
        # the exhaustive feasible set contains the greedy answer
        feasible = set()
        for tup in itertools.product(range(1, 5), repeat=3):
            err = relative_error(x, reconstruct(hosvd(x, tup)))
            if err <= threshold:
                feasible.add(clamp_rank(tup, (4, 4, 4)))
        assert result in feasible

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            rank_search(np.zeros((0, 4)), (2, 2), 0.1)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(157)
        data, _ = rows([random_tensor(rng, (3, 2)) for _ in range(2)])
        with pytest.raises(
            ValueError, match=r"samples of shape \(2, 2\) need rows of 4 entries"
        ):
            rank_search(data, (2, 2), 0.1)

    def test_threshold_domain(self):
        rng = np.random.default_rng(163)
        samples = [random_tensor(rng, (2, 2))]
        with pytest.raises(ValueError, match="max_relative_error"):
            rank_search(*rows(samples), 1.0)

    @pytest.mark.parametrize(
        "shape", [(12, 12, 3), (8, 8, 3), (10, 2, 2), (5, 7), (3, 4, 2, 3)]
    )
    def test_matches_reconstruct_based_reference(self, shape):
        # (10, 2, 2) clamps mode 0 to 4; the noise levels take the search
        # from full rank down to (1, ..., 1) across the thresholds.
        for seed, noise in [(0, 0.05), (1, 0.3), (2, 1.0)]:
            rng = np.random.default_rng([167, seed, *shape])
            samples = low_rank_samples(rng, shape, 4, noise)
            for threshold in (0.0, 0.05, 0.1, 0.3, 0.6):
                assert rank_search(*rows(samples), threshold) == (
                    reference_rank_search(samples, threshold)
                ), (seed, threshold)

    def test_core_tail_error_equals_reconstruction_error(self):
        rng = np.random.default_rng(173)
        shape = (6, 5, 3)
        x = random_tensor(rng, shape)
        energy = hosvd(x, shape).core.to_array()[np.newaxis] ** 2
        norms = np.array([frobenius_norm(x)])
        ranks = list(itertools.product(*(range(1, i + 1) for i in shape)))
        # at full rank the tail is exactly 0; reconstruction rounds to ~eps
        assert ranks.pop() == shape
        assert _tail_errors(energy, norms)(shape)[0] == 0.0
        for rank in ranks:
            tail = _tail_errors(energy, norms)(rank)[0]
            direct = relative_error(x, reconstruct(hosvd(x, rank)))
            assert abs(tail - direct) <= 1e-12 * direct, rank

    def test_core_tail_error_accurate_for_small_errors(self):
        # Errors near 1e-6 of ||x||: the slab sum keeps full relative
        # accuracy, while ||x||^2 - ||block||^2 would be off by about
        # eps / 1e-12 in relative terms.
        rng = np.random.default_rng(197)
        shape = (6, 5, 3)
        (x,) = low_rank_samples(rng, shape, 1, 1e-6)
        energy = hosvd(x, shape).core.to_array()[np.newaxis] ** 2
        norms = np.array([frobenius_norm(x)])
        ranks = list(itertools.product(*(range(2, i + 1) for i in shape)))
        assert ranks.pop() == shape
        for rank in ranks:
            tail = _tail_errors(energy, norms)(rank)[0]
            direct = relative_error(x, reconstruct(hosvd(x, rank)))
            assert direct < 1e-5
            assert abs(tail - direct) <= 1e-8 * direct, rank

    def test_all_zero_sample_among_others(self):
        rng = np.random.default_rng(179)
        samples = low_rank_samples(rng, (6, 5, 3), 4, 0.2)
        samples.insert(2, DenseTensor.from_array(np.zeros((6, 5, 3))))
        for threshold in (0.0, 0.1, 0.3):
            assert rank_search(*rows(samples), threshold) == (
                reference_rank_search(samples, threshold)
            )
        energy = np.stack(
            [hosvd(x, (6, 5, 3)).core.to_array() ** 2 for x in samples]
        )
        norms = np.array([frobenius_norm(x) for x in samples])
        errors = _tail_errors(energy, norms)((2, 2, 1))
        assert np.all(np.isfinite(errors))
        assert errors[2] == 0.0

    def test_all_zero_samples_reach_rank_one(self):
        samples = [DenseTensor.from_array(np.zeros((4, 3, 2))) for _ in range(3)]
        assert rank_search(*rows(samples), 0.0) == (1, 1, 1)

    def test_non_finite_sample_rejected(self):
        rng = np.random.default_rng(181)
        samples = [random_tensor(rng, (3, 3, 2)) for _ in range(2)]
        samples.append(DenseTensor((3, 3, 2), [np.nan] + [0.0] * 17))
        with pytest.raises(
            ValueError, match="hosvd input contains non-finite entries in sample 2"
        ):
            rank_search(*rows(samples), 0.1)

    def test_decomposes_each_sample_once(self, monkeypatch):
        # the package re-exports ``hosvd``, shadowing the module attribute
        module = importlib.import_module("telkit.hosvd")
        calls = []
        original = module.hosvd_factors

        def counting_factors(data, shape, rank):
            calls.append((len(data), tuple(rank)))
            return original(data, shape, rank)

        def forbidden(*args):
            raise AssertionError("rank_search must not call hosvd or reconstruct")

        monkeypatch.setattr(module, "hosvd_factors", counting_factors)
        monkeypatch.setattr(module, "hosvd", forbidden)
        monkeypatch.setattr(module, "reconstruct", forbidden)
        rng = np.random.default_rng(191)
        samples = low_rank_samples(rng, (8, 8, 3), 5, 0.1)
        rank = rank_search(*rows(samples), 0.3)
        assert rank != (8, 8, 3)  # the search took several steps
        assert calls == [(len(samples), (8, 8, 3))]  # one call, full rank

    @pytest.mark.parametrize(
        "shape", [(10, 2, 2), (8, 8, 3), (5, 4, 3, 2), (7, 1, 3)]
    )
    def test_full_rank_cores_equal_hosvd_cores_bitwise(self, shape, monkeypatch):
        # one kernel call over more than one chunk of samples; the squared
        # cores rank_search scores must be those of per-sample ``hosvd``
        module = importlib.import_module("telkit.hosvd")
        energies = []
        original = module._tail_errors

        def capturing(energy, norms):
            energies.append(energy)
            return original(energy, norms)

        monkeypatch.setattr(module, "_tail_errors", capturing)
        rng = np.random.default_rng([199, *shape])
        samples = [random_tensor(rng, shape) for _ in range(130)]
        rank_search(*rows(samples), 0.5)
        full = clamp_rank(shape, shape)
        expected = np.stack([hosvd(x, full).core.to_array() ** 2 for x in samples])
        assert energies and all(np.array_equal(e, expected) for e in energies)


def uncached_tail_errors(energy, norms, rank):
    """``_tail_errors`` as it was before each slab was summed once per
    search: every slab of every candidate rank summed again."""
    lead = tuple(slice(r) for r in rank)
    axes = tuple(range(1, energy.ndim))
    tail = sum(
        energy[(slice(None),) + lead[:n] + (slice(r, None),)].sum(axis=axes)
        for n, r in enumerate(rank)
    )
    return np.sqrt(tail) / np.where(norms > 0.0, norms, 1.0)


class TestSlabCache:
    """A rank search sums each core-energy slab once: its rank, its factor
    stacks and the error of every candidate it tries keep the bits of
    summing every slab of every candidate."""

    @staticmethod
    def search(monkeypatch, data, shape, threshold, tail_errors):
        """``_search``'s rank and stacks, with each candidate's errors."""
        seen = []

        def recording(energy, norms):
            errors = tail_errors(energy, norms)

            def record(rank):
                seen.append((rank, errors(rank).tobytes()))
                return errors(rank)

            return record

        with monkeypatch.context() as patch:
            patch.setattr(HOSVD_MODULE, "_tail_errors", recording)
            rank, stacks = HOSVD_MODULE._search(data, shape, threshold)
        return rank, [stack.tobytes() for stack in stacks], seen

    @pytest.mark.parametrize(
        "shape", [case[0] for case in TestHosvdFactors.CASES] + [(128, 128, 3)],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_bits_equal_summing_every_slab_of_every_candidate(
        self, monkeypatch, shape
    ):
        rng = np.random.default_rng([241, *shape])
        if shape == (128, 128, 3):
            samples = low_rank_samples(rng, shape, 3, 0.05)
        else:
            samples = kernel_samples(rng, shape)
        data, _ = rows(samples)

        def uncached(energy, norms):
            return lambda rank: uncached_tail_errors(energy, norms, rank)

        for threshold in (0.0, 0.1, 0.3, 0.6):
            cached = self.search(
                monkeypatch, data, shape, threshold, HOSVD_MODULE._tail_errors
            )
            assert cached[2]  # the search tried candidate ranks
            assert cached == self.search(monkeypatch, data, shape, threshold, uncached)

    def test_rank_search_benchmark_split_sums_125_slabs_for_207(self, monkeypatch):
        # rank-search's training split: 80 samples of 12x12x3, threshold 0.3
        from telkit.experiment import train_test_split
        from telkit.seeding import mix_seed
        from telkit.synth import SyntheticSpec, synth_generate

        spec = SyntheticSpec((12, 12, 3), 4, (2, 2, 1), 40, 0.05, 7)
        train, _ = train_test_split(synth_generate(spec), 0.5, mix_seed(7, 1))
        sums, candidates = [], []

        class CountingSums(np.ndarray):
            def sum(self, *args, **kwargs):
                sums.append(args)
                return super().sum(*args, **kwargs)

        original = HOSVD_MODULE._tail_errors

        def counting(energy, norms):
            errors = original(energy.view(CountingSums), norms)

            def count(rank):
                candidates.append(rank)
                return errors(rank)

            return count

        monkeypatch.setattr(HOSVD_MODULE, "_tail_errors", counting)
        assert train.n_samples == 80
        assert rank_search(train.data, train.shape, 0.3) == (1, 1, 1)
        # one slab sum per mode and candidate before: 3 x 69 = 207
        assert (len(candidates), len(sums)) == (69, 125)
