"""Ensemble behavior: regrouping, voting, both fit/predict routes, Eq-style
vote-error analysis against brute-force enumeration."""

import numpy as np
import pytest

from telkit.ensemble import (
    BaggingModel,
    LabeledTensorDataset,
    TelviModel,
    bagging_fit,
    bagging_fit_reduced,
    bagging_predict,
    bootstrap_indices,
    flatten_samples,
    majority_error_probability,
    majority_vote,
    predict_votes,
    regroup,
    telvi_fit,
    telvi_predict,
)
from telkit.hosvd import hosvd
from telkit.learners import ClassifierSpec, VectorDataset, fit
from telkit.linalg import pca_fit, pca_transform
from telkit.seeding import mix_seed
from telkit.tensor import DenseTensor, outer_product


def random_dataset(rng, shape, n_per_class, classes=2, spread=4.0):
    """Classes centered on distinct random tensors, plus unit noise."""
    samples, labels = [], []
    size = int(np.prod(shape))
    for label in range(classes):
        center = spread * rng.standard_normal(size)
        for _ in range(n_per_class):
            samples.append(DenseTensor(shape, center + rng.standard_normal(size)))
            labels.append(label)
    return LabeledTensorDataset(samples, np.array(labels))


class TestLabeledTensorDataset:
    def test_length_mismatch_rejected(self):
        samples = [DenseTensor((2,), [1.0, 2.0])]
        with pytest.raises(ValueError, match="labels"):
            LabeledTensorDataset(samples, np.array([0, 1]))

    def test_shape_mismatch_rejected(self):
        samples = [DenseTensor((2,), [1.0, 2.0]), DenseTensor((3,), [1, 2, 3])]
        with pytest.raises(ValueError, match="disagree"):
            LabeledTensorDataset(samples, np.array([0, 1]))

    def test_negative_labels_rejected(self):
        samples = [DenseTensor((2,), [1.0, 2.0])]
        with pytest.raises(ValueError, match="nonnegative"):
            LabeledTensorDataset(samples, np.array([-1]))


class TestMajorityVote:
    def test_unanimous(self):
        tally = majority_vote([4] * 9)
        assert tally.winner == 4
        assert tally.counts == {4: 9.0}
        assert tally.total == 9

    def test_even_split_goes_to_lower_label(self):
        tally = majority_vote([0] * 6 + [1] * 6)
        assert tally.winner == 0

    def test_counts_sum_to_voters(self):
        rng = np.random.default_rng(307)
        for _ in range(50):
            votes = rng.integers(0, 4, size=rng.integers(1, 12)).tolist()
            tally = majority_vote(votes)
            assert tally.total == len(votes)

    def test_tie_rule_by_exhaustive_enumeration(self):
        import itertools

        for length in range(1, 5):
            for votes in itertools.product(range(3), repeat=length):
                tally = majority_vote(list(votes))
                counts = {c: votes.count(c) for c in set(votes)}
                top = max(counts.values())
                expected = min(c for c, n in counts.items() if n == top)
                assert tally.winner == expected

    def test_weights_shift_the_outcome(self):
        tally = majority_vote([0, 1, 1], weights=[5.0, 1.0, 1.0])
        assert tally.winner == 0
        assert tally.total == 7.0

    def test_empty_votes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            majority_vote([])


class TestRegroup:
    def test_single_sample(self):
        rng = np.random.default_rng(311)
        x = DenseTensor((3, 4, 2), rng.standard_normal(24))
        f = hosvd(x, (2, 2, 1))
        datasets = regroup([f], np.array([5]))
        assert set(datasets) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)}
        for (n, r), ds in datasets.items():
            assert ds.n_samples == 1
            assert np.array_equal(ds.features[0], f.factors[n][:, r])
            assert ds.labels.tolist() == [5]

    def test_dataset_count_and_widths(self):
        rng = np.random.default_rng(313)
        decomps = [
            hosvd(DenseTensor((4, 5, 6), rng.standard_normal(120)), (2, 2, 2))
            for _ in range(10)
        ]
        datasets = regroup(decomps, np.arange(10) % 2)
        assert len(datasets) == 6
        widths = sorted(ds.n_features for ds in datasets.values())
        assert widths == [4, 4, 5, 5, 6, 6]
        assert all(ds.n_samples == 10 for ds in datasets.values())

    def test_duplicated_samples_give_identical_rows(self):
        rng = np.random.default_rng(317)
        x = DenseTensor((3, 3, 3), rng.standard_normal(27))
        decomps = [hosvd(x, (2, 2, 2)) for _ in range(4)]
        datasets = regroup(decomps, np.zeros(4, dtype=int))
        for ds in datasets.values():
            assert np.array_equal(ds.features, np.tile(ds.features[0], (4, 1)))

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(331)
        a = hosvd(DenseTensor((3, 3), rng.standard_normal(9)), (2, 2))
        b = hosvd(DenseTensor((3, 3), rng.standard_normal(9)), (1, 2))
        with pytest.raises(ValueError, match="disagree"):
            regroup([a, b], np.array([0, 1]))


class TestTelviFit:
    def test_paper_rank_gives_twelve_learners(self):
        rng = np.random.default_rng(337)
        data = random_dataset(rng, (6, 6, 3), 4)
        model = telvi_fit(data, (5, 5, 2), ClassifierSpec("knn", {"k": 1}), 0)
        assert model.n_learners == 12
        assert set(model.base_models) == {
            (0, r) for r in range(5)
        } | {(1, r) for r in range(5)} | {(2, r) for r in range(2)}

    def test_rank_one_gives_order_many_learners(self):
        rng = np.random.default_rng(347)
        data = random_dataset(rng, (4, 4, 4), 3)
        model = telvi_fit(data, (1, 1, 1), ClassifierSpec("knn", {"k": 1}), 0)
        assert model.n_learners == 3
        for ds_key in [(0, 0), (1, 0), (2, 0)]:
            assert ds_key in model.base_models

    def test_separated_rank_one_classes_classify_perfectly(self):
        rng = np.random.default_rng(349)
        templates = [
            outer_product([rng.standard_normal(d) * 2 for d in (5, 6, 4)])
            for _ in range(2)
        ]
        samples, labels = [], []
        for label, template in enumerate(templates):
            for _ in range(10):
                noisy = template.to_array() + 0.05 * rng.standard_normal((5, 6, 4))
                samples.append(DenseTensor.from_array(noisy))
                labels.append(label)
        data = LabeledTensorDataset(samples, np.array(labels))
        model = telvi_fit(data, (1, 1, 1), ClassifierSpec("knn", {"k": 1}), 3)

        # pipeline prediction on the training set
        predicted = [telvi_predict(model, x)[0] for x in data.samples]
        assert predicted == labels

        # brute-force 1-NN oracle over the pipeline's own stage-1 output
        decomps = [hosvd(x, (1, 1, 1)) for x in data.samples]
        for m, x in enumerate(data.samples):
            votes = []
            for n in range(3):
                column = decomps[m].factors[n][:, 0]
                dists = [
                    np.linalg.norm(column - d.factors[n][:, 0]) for d in decomps
                ]
                votes.append(labels[int(np.argmin(dists))])
            expected = min(set(votes), key=lambda c: (-votes.count(c), c))
            assert predicted[m] == expected

    def test_single_class_rejected(self):
        rng = np.random.default_rng(353)
        data = random_dataset(rng, (3, 3), 4, classes=1)
        with pytest.raises(ValueError, match="two classes"):
            telvi_fit(data, (2, 2), ClassifierSpec("knn"), 0)

    @pytest.mark.parametrize(
        "base",
        [
            ClassifierSpec("knn", {"k": 3}),
            ClassifierSpec("tree", {"max_depth": 4}),
            ClassifierSpec("logit", {"max_iterations": 200}),
            ClassifierSpec("svm", {"kernel": "rbf", "C": 5.0, "max_passes": 5}),
        ],
        ids=["knn", "tree", "logit", "svm"],
    )
    def test_every_base_kind_trains_and_predicts(self, base):
        rng = np.random.default_rng(401)
        data = random_dataset(rng, (5, 5, 3), 12, classes=2, spread=6.0)
        model = telvi_fit(data, (2, 2, 1), base, seed=13)
        hits = sum(
            int(telvi_predict(model, x)[0] == y)
            for x, y in zip(data.samples, data.labels)
        )
        assert hits / data.n_samples >= 0.9


class TestTelviPredict:
    @pytest.fixture()
    def model_and_data(self):
        rng = np.random.default_rng(359)
        data = random_dataset(rng, (5, 4, 3), 8, classes=3)
        model = telvi_fit(data, (2, 2, 1), ClassifierSpec("knn", {"k": 3}), 11)
        return rng, data, model

    def test_matches_brute_force_reimplementation(self, model_and_data):
        rng, data, model = model_and_data
        for _ in range(20):
            x = DenseTensor((5, 4, 3), rng.standard_normal(60))
            label, tally = telvi_predict(model, x)

            factors = hosvd(x, model.rank).factors
            votes = []
            for (n, r) in sorted(model.base_models):
                learner = model.base_models[(n, r)]
                votes.append(int(learner.predict(factors[n][:, r][None, :])[0]))
            counts = {}
            for v in votes:
                counts[v] = counts.get(v, 0) + 1
            top = max(counts.values())
            expected = min(c for c, n in counts.items() if n == top)

            assert label == expected
            assert tally.total == model.n_learners

    def test_shape_mismatch_rejected(self, model_and_data):
        _, _, model = model_and_data
        with pytest.raises(ValueError, match="shape"):
            telvi_predict(model, DenseTensor((5, 4, 2), np.zeros(40)))

    def test_invariant_to_training_order(self, model_and_data):
        rng, data, model = model_and_data
        # retrain each learner in reverse order with the same derived seeds
        decomps = [hosvd(x, model.rank) for x in data.samples]
        datasets = regroup(decomps, data.labels)
        keys = sorted(datasets)
        reordered = {}
        for flat in reversed(range(len(keys))):
            key = keys[flat]
            reordered[key] = fit(
                model.base_spec, datasets[key], mix_seed(model.seed, flat)
            )
        shuffled_model = TelviModel(
            rank=model.rank,
            shape=model.shape,
            base_spec=model.base_spec,
            base_models=reordered,
            class_labels=model.class_labels,
            seed=model.seed,
        )
        for _ in range(10):
            x = DenseTensor((5, 4, 3), rng.standard_normal(60))
            assert telvi_predict(model, x)[0] == telvi_predict(shuffled_model, x)[0]


class TestBagging:
    def test_bootstrap_indices_reproducible(self):
        a = bootstrap_indices(5, mix_seed(99, 0))
        b = bootstrap_indices(5, mix_seed(99, 0))
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 5 and a.size == 5

    def test_single_estimator_with_permutation_draw_equals_plain_fit(self):
        # find a seed whose one bootstrap draw hits all 5 distinct indices
        seed = next(
            s
            for s in range(10000)
            if sorted(bootstrap_indices(5, mix_seed(s, 0)).tolist()) == [0, 1, 2, 3, 4]
        )
        rng = np.random.default_rng(367)
        samples = [DenseTensor((2, 3), rng.standard_normal(6)) for _ in range(5)]
        data = LabeledTensorDataset(samples, np.array([0, 0, 1, 1, 1]))
        spec = ClassifierSpec("tree", {"max_depth": 3})

        bagged = bagging_fit(data, 1, 4, spec, seed)
        vectors = flatten_samples(samples)
        pca = pca_fit(vectors, 4)
        plain = fit(spec, VectorDataset(pca_transform(pca, vectors), data.labels), 0)

        probes = rng.standard_normal((30, 6))
        transformed = pca_transform(bagged.pca, probes)
        assert np.array_equal(
            bagged.estimators[0].predict(transformed),
            plain.predict(pca_transform(pca, probes)),
        )

    def test_twelve_estimators_on_separable_blobs(self):
        # train/test must share class centers: draw both from one stream
        rng = np.random.default_rng(383)
        size = 32
        centers = [6.0 * rng.standard_normal(size) for _ in range(2)]

        def build(n_per_class, rng):
            samples, labels = [], []
            for label, center in enumerate(centers):
                for _ in range(n_per_class):
                    samples.append(
                        DenseTensor((4, 4, 2), center + rng.standard_normal(size))
                    )
                    labels.append(label)
            return LabeledTensorDataset(samples, np.array(labels))

        train = build(20, rng)
        test = build(15, rng)
        model = bagging_fit(train, 12, 8, ClassifierSpec("knn", {"k": 3}), 17)
        assert model.n_estimators == 12
        hits = sum(
            int(bagging_predict(model, x)[0] == y)
            for x, y in zip(test.samples, test.labels)
        )
        assert hits / test.n_samples >= 0.95

    def test_predict_matches_brute_force(self):
        rng = np.random.default_rng(389)
        data = random_dataset(rng, (3, 3, 2), 10, classes=3, spread=3.0)
        model = bagging_fit(data, 5, 6, ClassifierSpec("knn", {"k": 1}), 23)
        for _ in range(20):
            x = DenseTensor((3, 3, 2), rng.standard_normal(18))
            label, tally = bagging_predict(model, x)
            row = pca_transform(model.pca, x.data[None, :])
            votes = [int(e.predict(row)[0]) for e in model.estimators]
            counts = {v: votes.count(v) for v in set(votes)}
            top = max(counts.values())
            assert label == min(c for c, n in counts.items() if n == top)
            assert tally.total == 5

    def test_reduced_fit_rejects_one_sample_and_no_estimators(self):
        rng = np.random.default_rng(397)
        data = random_dataset(rng, (3, 2), 4)
        vectors = flatten_samples(data.samples)
        pca = pca_fit(vectors, 3)
        reduced = VectorDataset(pca_transform(pca, vectors), data.labels)
        spec = ClassifierSpec("knn", {"k": 1})
        with pytest.raises(ValueError, match="at least two samples"):
            bagging_fit_reduced(pca, reduced.subset([0]), (3, 2), 3, spec, 0)
        with pytest.raises(ValueError, match="n_estimators must be >= 1"):
            bagging_fit_reduced(pca, reduced, (3, 2), 0, spec, 0)


KINDS = {
    "knn": ClassifierSpec("knn", {"k": 3}),
    "tree": ClassifierSpec("tree", {"max_depth": 3}),
    "logit": ClassifierSpec("logit", {"max_iterations": 100}),
    "svm": ClassifierSpec("svm", {"kernel": "rbf", "C": 1.0}),
}


def one_row_votes(model, x):
    """Each voter's label for ``x`` alone, predicted one row at a time as
    ``telvi_predict``/``bagging_predict`` did before batching."""
    if isinstance(model, TelviModel):
        factors = hosvd(x, model.rank).factors
        return [
            int(model.base_models[(n, r)].predict(factors[n][:, r][None, :])[0])
            for n, r in sorted(model.base_models)
        ]
    if isinstance(model, BaggingModel):
        row = pca_transform(model.pca, x.data[None, :])
        return [int(est.predict(row)[0]) for est in model.estimators]
    return [int(model.predict(x.data[None, :])[0])]


class TestPredictVotes:
    @pytest.fixture(scope="class")
    def data_and_probes(self):
        rng = np.random.default_rng(409)
        data = random_dataset(rng, (4, 3, 2), 8, classes=3, spread=1.5)
        probes = [
            DenseTensor((4, 3, 2), 2.0 * rng.standard_normal(24))
            for _ in range(15)
        ] + data.samples[::4]
        return data, probes

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("method", ["telvi", "bagging", "single"])
    def test_batch_columns_match_one_row_votes(self, data_and_probes, method, kind):
        data, probes = data_and_probes
        base = KINDS[kind]
        if method == "telvi":
            model = telvi_fit(data, (2, 2, 1), base, 5)
            one_sample = telvi_predict
        elif method == "bagging":
            model = bagging_fit(data, 5, 6, base, 5)
            one_sample = bagging_predict
        else:
            flat = VectorDataset(flatten_samples(data.samples), data.labels)
            model = fit(base, flat, 5)
            one_sample = None
        keys, votes = predict_votes(model, probes)
        assert votes.shape == (len(keys), len(probes))
        for j, x in enumerate(probes):
            assert votes[:, j].tolist() == one_row_votes(model, x)
            if one_sample is not None:
                label, tally = one_sample(model, x)
                expected = majority_vote(votes[:, j].tolist())
                assert (label, tally.counts) == (expected.winner, expected.counts)

    def test_keys_follow_voters(self, data_and_probes):
        data, probes = data_and_probes
        telvi = telvi_fit(data, (2, 2, 1), KINDS["knn"], 5)
        assert predict_votes(telvi, probes)[0] == sorted(telvi.base_models)
        bagged = bagging_fit(data, 3, 6, KINDS["knn"], 5)
        assert predict_votes(bagged, probes)[0] == [(-1, 0), (-1, 1), (-1, 2)]

    @pytest.mark.parametrize("method", ["telvi", "bagging"])
    def test_bad_last_sample_rejected_before_any_decomposition(
        self, data_and_probes, method, monkeypatch
    ):
        data, probes = data_and_probes
        if method == "telvi":
            model = telvi_fit(data, (2, 2, 1), KINDS["knn"], 5)
        else:
            model = bagging_fit(data, 3, 6, KINDS["knn"], 5)
        calls = []
        monkeypatch.setattr(
            "telkit.ensemble.hosvd", lambda *args: calls.append(args)
        )
        bad = probes + [DenseTensor((4, 2, 3), np.zeros(24))]
        with pytest.raises(ValueError, match=f"sample {len(probes)} shape"):
            predict_votes(model, bad)
        assert calls == []

    def test_empty_sample_set_rejected(self, data_and_probes):
        data, _ = data_and_probes
        model = telvi_fit(data, (2, 2, 1), KINDS["knn"], 5)
        with pytest.raises(ValueError, match="at least one sample"):
            predict_votes(model, [])


class TestMajorityErrorProbability:
    def brute(self, p, n):
        """Oracle: enumerate every voter outcome bitmask."""
        total = 0.0
        for mask in range(1 << n):
            wrong = bin(mask).count("1")
            if wrong >= (n + 1) // 2:
                total += p**wrong * (1 - p) ** (n - wrong)
        return total

    def test_single_voter_is_identity(self):
        for p in [0.0, 0.2, 0.5, 0.9, 1.0]:
            assert majority_error_probability(p, 1) == pytest.approx(p, abs=1e-15)

    def test_perfect_voters(self):
        for n in [1, 2, 7, 20]:
            assert majority_error_probability(0.0, n) == 0.0

    def test_three_voters_at_point_three(self):
        assert majority_error_probability(0.3, 3) == pytest.approx(0.216, abs=1e-12)
        assert self.brute(0.3, 3) == pytest.approx(0.216, abs=1e-12)

    def test_matches_enumeration_small_n(self):
        rng = np.random.default_rng(397)
        for _ in range(20):
            p = float(rng.uniform(0.05, 0.95))
            n = int(rng.integers(1, 11))
            assert majority_error_probability(p, n) == pytest.approx(
                self.brute(p, n), abs=1e-12
            )

    def test_monotone_nonincreasing_over_odd_voters(self):
        values = [majority_error_probability(0.3, n) for n in range(1, 42, 2)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_domain_checks(self):
        with pytest.raises(ValueError, match="p must be"):
            majority_error_probability(1.5, 3)
        with pytest.raises(ValueError, match="n_voters"):
            majority_error_probability(0.3, 0)
