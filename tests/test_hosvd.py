"""HOSVD: factorization contracts, truncation bounds, rank search."""

import importlib
import itertools

import numpy as np
import pytest

from telkit.hosvd import (
    _storage,
    _tail_errors,
    clamp_rank,
    hosvd,
    rank_search,
    reconstruct,
    relative_error,
)
from telkit.tensor import (
    DenseTensor,
    frobenius_norm,
    mode_n_product,
    outer_product,
    unfold,
)


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
        with pytest.raises(ValueError, match="length"):
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


class TestReconstruct:
    def test_identity_factors_reproduce_core(self):
        rng = np.random.default_rng(127)
        x = random_tensor(rng, (3, 4, 2))
        f = hosvd(x, (3, 4, 2))
        from telkit.hosvd import HosvdFactors

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
        from telkit.hosvd import HosvdFactors

        broken = HosvdFactors(
            core=f.core, factors=[f.factors[0][:, :1], f.factors[1]],
            effective_rank=f.effective_rank,
        )
        with pytest.raises(ValueError, match="columns"):
            reconstruct(broken)


class TestRankSearch:
    def test_rank_one_samples(self):
        rng = np.random.default_rng(139)
        samples = []
        for _ in range(4):
            vectors = [rng.standard_normal(d) for d in (4, 3, 5)]
            samples.append(outer_product(vectors))
        assert rank_search(samples, 0.01) == (1, 1, 1)

    def test_zero_threshold_returns_full_rank(self):
        rng = np.random.default_rng(149)
        samples = [random_tensor(rng, (3, 4, 2)) for _ in range(3)]
        assert rank_search(samples, 0.0) == clamp_rank((3, 4, 2), (3, 4, 2))

    def test_against_exhaustive_enumeration(self):
        rng = np.random.default_rng(151)
        x = random_tensor(rng, (4, 4, 4))
        target = relative_error(x, reconstruct(hosvd(x, (2, 2, 2))))
        threshold = target + 1e-6

        result = rank_search([x], threshold)
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
            rank_search([], 0.1)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(157)
        samples = [random_tensor(rng, (2, 2)), random_tensor(rng, (3, 2))]
        with pytest.raises(ValueError, match="disagree"):
            rank_search(samples, 0.1)

    def test_threshold_domain(self):
        rng = np.random.default_rng(163)
        samples = [random_tensor(rng, (2, 2))]
        with pytest.raises(ValueError, match="max_relative_error"):
            rank_search(samples, 1.0)

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
                assert rank_search(samples, threshold) == (
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
        assert _tail_errors(energy, norms, shape)[0] == 0.0
        for rank in ranks:
            tail = _tail_errors(energy, norms, rank)[0]
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
            tail = _tail_errors(energy, norms, rank)[0]
            direct = relative_error(x, reconstruct(hosvd(x, rank)))
            assert direct < 1e-5
            assert abs(tail - direct) <= 1e-8 * direct, rank

    def test_all_zero_sample_among_others(self):
        rng = np.random.default_rng(179)
        samples = low_rank_samples(rng, (6, 5, 3), 4, 0.2)
        samples.insert(2, DenseTensor.from_array(np.zeros((6, 5, 3))))
        for threshold in (0.0, 0.1, 0.3):
            assert rank_search(samples, threshold) == (
                reference_rank_search(samples, threshold)
            )
        energy = np.stack(
            [hosvd(x, (6, 5, 3)).core.to_array() ** 2 for x in samples]
        )
        norms = np.array([frobenius_norm(x) for x in samples])
        errors = _tail_errors(energy, norms, (2, 2, 1))
        assert np.all(np.isfinite(errors))
        assert errors[2] == 0.0

    def test_all_zero_samples_reach_rank_one(self):
        samples = [DenseTensor.from_array(np.zeros((4, 3, 2))) for _ in range(3)]
        assert rank_search(samples, 0.0) == (1, 1, 1)

    def test_non_finite_sample_rejected(self):
        rng = np.random.default_rng(181)
        samples = [random_tensor(rng, (3, 3, 2)) for _ in range(2)]
        samples.append(DenseTensor((3, 3, 2), [np.nan] + [0.0] * 17))
        with pytest.raises(ValueError, match="hosvd input contains non-finite"):
            rank_search(samples, 0.1)

    def test_decomposes_each_sample_once(self, monkeypatch):
        # the package re-exports ``hosvd``, shadowing the module attribute
        module = importlib.import_module("telkit.hosvd")
        calls = []
        original = module.hosvd

        def counting_hosvd(x, rank):
            calls.append(tuple(rank))
            return original(x, rank)

        def no_reconstruct(f):
            raise AssertionError("rank_search must not reconstruct")

        monkeypatch.setattr(module, "hosvd", counting_hosvd)
        monkeypatch.setattr(module, "reconstruct", no_reconstruct)
        rng = np.random.default_rng(191)
        samples = low_rank_samples(rng, (8, 8, 3), 5, 0.1)
        rank = rank_search(samples, 0.3)
        assert rank != (8, 8, 3)  # the search took several steps
        assert calls == [(8, 8, 3)] * len(samples)
