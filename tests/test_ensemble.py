"""Ensemble behavior: regrouping, voting, both fit/predict routes, Eq-style
vote-error analysis against brute-force enumeration."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from telkit.ensemble import (
    BaggingModel,
    LabeledTensorDataset,
    SingleModel,
    TelviModel,
    VoteTally,
    _columns,
    _vote,
    bagging_fit,
    bagging_fit_reduced,
    bagging_predict,
    factor_columns,
    majority_error_probability,
    predict_votes,
    regroup,
    telvi_fit,
    telvi_predict,
)
from telkit.hosvd import _search, clamp_rank, hosvd, hosvd_factors, rank_search
from telkit.learners import (ClassifierSpec, VectorDataset, fit, grid_search_cv,
                             majority_labels)
from telkit.linalg import pca_fit, pca_transform
from telkit.seeding import mix_seed
from telkit.tensor import DenseTensor, outer_product


def rows(samples) -> tuple[np.ndarray, tuple[int, ...]]:
    """The ``(M, P)`` array and the shape of a list of same-shape samples."""
    data = LabeledTensorDataset(samples, np.zeros(len(samples), int))
    return data.data, data.shape


def majority_vote(votes) -> VoteTally:
    """Reference tally of one sample's votes, label by label in Python:
    the most frequent label wins, ties to the lowest label."""
    counts: dict[int, int] = {}
    for vote in votes:
        counts[int(vote)] = counts.get(int(vote), 0) + 1
    winner = min(counts, key=lambda label: (-counts[label], label))
    return VoteTally(counts=counts, winner=winner)


def tally(votes) -> VoteTally:
    """The tally ``telvi_predict``/``bagging_predict`` give one sample's
    votes, checked against the winner it returns."""
    winner, result = _vote(np.asarray(votes, dtype=np.int64)[:, None])
    assert winner == result.winner
    return result


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
    def test_rows_of_another_size_rejected(self):
        message = (r"^samples of shape \(2, 3\) need rows of 6 entries, "
                   r"got an array of shape \(2, 5\)$")
        with pytest.raises(ValueError, match=message):
            LabeledTensorDataset.from_rows(np.zeros((2, 5)), (2, 3), [0, 1])
        with pytest.raises(ValueError, match="^2 samples but 3 labels$"):
            LabeledTensorDataset.from_rows(np.zeros((2, 6)), (2, 3), [0, 1, 0])

    def test_empty_set_rejected(self):
        # an empty set was built, then failed with IndexError on .shape
        with pytest.raises(ValueError, match="^a sample set needs at least one sample$"):
            LabeledTensorDataset([], np.empty(0, dtype=np.int64))

    def test_two_d_labels_rejected(self):
        # a (2, 1) label array was built, then failed with TypeError at save
        samples = [DenseTensor((2,), [1.0, 2.0])] * 2
        with pytest.raises(ValueError, match=r"^labels must be a 1-d array, got shape \(2, 1\)$"):
            LabeledTensorDataset(samples, [[0], [1]])

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

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0.5, 1.7], "labels[0] must be an integer, got 0.5"),
            ([True, False], "labels[0] must be a number, got True"),
            (["0", "1"], "labels[0] must be a number, got '0'"),
            ([0, 2**70], "labels[1] must fit in int64, got 1180591620717411303424"),
        ],
        ids=["fraction", "bool", "str", "past-int64"],
    )
    @pytest.mark.parametrize("dataset", ["tensor", "vector"])
    def test_non_integer_labels_rejected(self, dataset, labels, message):
        # np.asarray(labels, dtype=np.int64) made the first three 0/1 labels
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if dataset == "tensor":
                LabeledTensorDataset([DenseTensor((2,), [1.0, 2.0])] * 2, labels)
            else:
                VectorDataset(np.eye(2), labels)


class TestMajorityVote:
    def test_unanimous(self):
        result = tally([4] * 9)
        assert result.winner == 4
        assert result.counts == {4: 9}
        assert result.total == 9
        # vote counts, not weights
        assert type(result.total) is int and type(result.counts[4]) is int

    def test_even_split_goes_to_lower_label(self):
        assert tally([1] * 6 + [0] * 6).winner == 0

    def test_counts_sum_to_voters(self):
        rng = np.random.default_rng(307)
        for _ in range(50):
            votes = rng.integers(0, 4, size=rng.integers(1, 12)).tolist()
            assert tally(votes).total == len(votes)

    def test_tie_rule_by_exhaustive_enumeration(self):
        import itertools

        for length in range(1, 5):
            for votes in itertools.product(range(3), repeat=length):
                counts = {c: votes.count(c) for c in set(votes)}
                top = max(counts.values())
                expected = min(c for c, n in counts.items() if n == top)
                assert tally(list(votes)).winner == expected
                assert majority_vote(votes).winner == expected

    def test_empty_votes_rejected(self):
        with pytest.raises(ValueError, match="at least one voter"):
            tally([])
        with pytest.raises(ValueError, match="at least one voter"):
            majority_labels(np.empty((0, 3), dtype=np.int64))

    @pytest.mark.parametrize("voters", [1, 5])
    def test_majority_labels_of_no_samples_is_empty(self, voters):
        out = majority_labels(np.zeros((voters, 0), dtype=np.int64))
        assert out.dtype == np.int64 and out.shape == (0,)

    @given(
        votes=hnp.arrays(
            np.int64,
            st.tuples(st.integers(1, 9), st.integers(1, 12)),
            elements=st.integers(-4, 4),  # VectorDataset allows negative labels
        )
    )
    def test_majority_labels_is_the_tally_of_each_column_property(self, votes):
        expected = [majority_vote(column.tolist()).winner for column in votes.T]
        assert majority_labels(votes).tolist() == expected

    @given(votes=st.lists(st.integers(0, 5), min_size=1, max_size=15))
    def test_heaviest_then_lowest_label_wins_property(self, votes):
        totals = Counter(votes)
        top = max(totals.values())
        result = tally(votes)
        assert result.winner == min(label for label, t in totals.items() if t == top)
        assert result.counts == dict(totals)


class TestRegroup:
    def test_single_sample(self):
        rng = np.random.default_rng(311)
        x = DenseTensor((3, 4, 2), rng.standard_normal(24))
        f = hosvd(x, (2, 2, 1))
        datasets = regroup(LabeledTensorDataset([x], np.array([5])), (2, 2, 1))
        assert set(datasets) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)}
        for (n, r), ds in datasets.items():
            assert ds.n_samples == 1
            assert np.array_equal(ds.features[0], f.factors[n][:, r])
            assert ds.labels.tolist() == [5]

    def test_dataset_count_and_widths(self):
        rng = np.random.default_rng(313)
        samples = [
            DenseTensor((4, 5, 6), rng.standard_normal(120)) for _ in range(10)
        ]
        data = LabeledTensorDataset(samples, np.arange(10) % 2)
        datasets = regroup(data, (2, 2, 2))
        assert len(datasets) == 6
        widths = sorted(ds.n_features for ds in datasets.values())
        assert widths == [4, 4, 5, 5, 6, 6]
        assert all(ds.n_samples == 10 for ds in datasets.values())
        for ds in datasets.values():
            assert ds.labels.tolist() == data.labels.tolist()

    def test_duplicated_samples_give_identical_rows(self):
        rng = np.random.default_rng(317)
        x = DenseTensor((3, 3, 3), rng.standard_normal(27))
        datasets = regroup(LabeledTensorDataset([x] * 4, np.zeros(4)), (2, 2, 2))
        for ds in datasets.values():
            assert np.array_equal(ds.features, np.tile(ds.features[0], (4, 1)))

    @pytest.mark.parametrize(
        "shape, rank",
        [
            ((8, 8, 3), (2, 2, 1)),
            ((10, 2, 2), (10, 2, 2)),  # mode 0 clamps to 4: every column
            ((10, 2, 2), (3, 1, 2)),
            ((3, 4, 2, 3), (2, 3, 1, 2)),
            ((6, 1, 4), (1, 1, 3)),
        ],
    )
    def test_columns_sliced_from_full_rank_stacks_equal_factor_columns(
        self, shape, rank
    ):
        # a rank-searched run slices its learners' columns from the search's
        # full-rank factors; 70 samples span two chunks of the kernel
        rng = np.random.default_rng([337, *shape])
        samples = [DenseTensor.from_array(rng.standard_normal(shape)) for _ in range(70)]
        stacks, _ = hosvd_factors(*rows(samples), shape)
        sliced = _columns(stacks, clamp_rank(rank, shape))
        expected = factor_columns(*rows(samples), rank)
        assert sorted(sliced) == sorted(expected)
        for key, column in expected.items():
            assert sliced[key].flags.c_contiguous
            assert sliced[key].tobytes() == column.tobytes()

    @pytest.mark.parametrize("threshold", [0.0, 0.2, 0.5, 0.9])
    def test_rank_search_stacks_give_factor_columns_at_its_rank(self, threshold):
        rng = np.random.default_rng(347)
        samples = [DenseTensor.from_array(rng.standard_normal((10, 2, 2)))
                   for _ in range(12)]
        rank, stacks = _search(*rows(samples), threshold)
        assert rank == rank_search(*rows(samples), threshold)
        expected = factor_columns(*rows(samples), rank)
        sliced = _columns(stacks, rank)
        assert sorted(sliced) == sorted(expected)
        assert all(sliced[k].tobytes() == c.tobytes() for k, c in expected.items())

    def test_factor_columns_are_contiguous_slices_of_one_kernel_call(self):
        # (5, 2, 2) clamps mode 0 to rank 4; 70 samples span two chunks
        rng = np.random.default_rng(331)
        samples = [DenseTensor((5, 2, 2), rng.standard_normal(20)) for _ in range(70)]
        stacks, effective = hosvd_factors(*rows(samples), (5, 2, 1))
        columns = factor_columns(*rows(samples), (5, 2, 1))
        assert effective == (4, 2, 1)
        assert sorted(columns) == [(0, r) for r in range(4)] + [(1, 0), (1, 1), (2, 0)]
        for (n, r), column in columns.items():
            assert column.flags.c_contiguous
            assert column.shape == (70, samples[0].shape[n])
            assert np.array_equal(column, stacks[n][:, :, r])


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

    @pytest.mark.parametrize(
        "rank, message",
        [
            ((2.5, 2, 1), "rank must be an integer, got 2.5"),
            ((True, 2, 1), "rank must be a number, got True"),
        ],
        ids=["half", "bool"],
    )
    @pytest.mark.parametrize("caller", ["clamp_rank", "hosvd", "telvi_fit"])
    def test_non_integer_rank_rejected(self, caller, rank, message):
        # int(r) ran these at rank (2, 2, 1) and (1, 2, 1) without a word
        data = random_dataset(np.random.default_rng(359), (4, 4, 3), 3)
        call = {
            "clamp_rank": lambda: clamp_rank(rank, data.shape),
            "hosvd": lambda: hosvd(data.samples[0], rank),
            "telvi_fit": lambda: telvi_fit(data, rank, ClassifierSpec("knn"), 0),
        }[caller]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

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

    def test_one_sample_votes_as_in_its_batch(self, model_and_data):
        rng, _, model = model_and_data
        probes = LabeledTensorDataset.from_rows(
            rng.standard_normal((12, 60)), (5, 4, 3), np.zeros(12, int)
        )
        _, votes = predict_votes(model, probes.data, probes.shape)
        assert [telvi_predict(model, x)[0] for x in probes.samples] == (
            majority_labels(votes).tolist()
        )

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
        datasets = regroup(data, model.rank)
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
    def test_single_estimator_with_permutation_draw_equals_plain_fit(self):
        # find a seed whose one bootstrap draw hits all 5 distinct indices
        seed = next(
            s
            for s in range(10000)
            if sorted(np.random.default_rng(mix_seed(s, 0)).integers(0, 5, size=5))
            == [0, 1, 2, 3, 4]
        )
        rng = np.random.default_rng(367)
        samples = [DenseTensor((2, 3), rng.standard_normal(6)) for _ in range(5)]
        data = LabeledTensorDataset(samples, np.array([0, 0, 1, 1, 1]))
        spec = ClassifierSpec("tree", {"max_depth": 3})

        bagged = bagging_fit(data, 1, 4, spec, seed)
        vectors = rows(samples)[0]
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

    @pytest.mark.parametrize("kind", ["knn", "tree", "logit", "svm"])
    def test_one_class_resample_is_drawn_again(self, kind):
        # five samples of class 0 and one of class 1: about a third of the
        # first draws hold class 0 only, and each estimator then fits on
        # the next draw of its own generator
        rng = np.random.default_rng(401)
        samples = [DenseTensor((2, 3), rng.standard_normal(6)) for _ in range(6)]
        labels = np.array([0, 0, 0, 0, 0, 1])
        data = LabeledTensorDataset(samples, labels)
        model = bagging_fit(data, 12, 4, ClassifierSpec(kind), 5)
        redrawn = 0
        for estimator, seed in zip(model.estimators, model.bootstrap_seeds):
            generator = np.random.default_rng(seed)
            idx = generator.integers(0, 6, size=6)
            while np.all(labels[idx] == 0):
                redrawn += 1
                idx = generator.integers(0, 6, size=6)
            assert estimator.class_labels.tolist() == [0, 1]
            if kind == "knn":  # a knn estimator keeps its resample's rows
                reduced = pca_transform(model.pca, rows(samples)[0])
                assert np.array_equal(estimator.train_features, reduced[idx])
        assert redrawn > 0

    def test_reduced_fit_rejects_one_sample_and_no_estimators(self):
        rng = np.random.default_rng(397)
        data = random_dataset(rng, (3, 2), 4)
        vectors = data.data
        pca = pca_fit(vectors, 3)
        reduced = VectorDataset(pca_transform(pca, vectors), data.labels)
        spec = ClassifierSpec("knn", {"k": 1})
        with pytest.raises(ValueError, match="at least two samples"):
            bagging_fit_reduced(pca, reduced.subset([0]), (3, 2), 3, spec, 0)
        one_class = reduced.subset(np.flatnonzero(data.labels == 0))
        with pytest.raises(ValueError, match="training needs at least two classes"):
            bagging_fit_reduced(pca, one_class, (3, 2), 3, spec, 0)
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
    return [int(model.learner.predict(x.data[None, :])[0])]


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
            flat = VectorDataset(data.data, data.labels)
            model = SingleModel(data.shape, fit(base, flat, 5))
            one_sample = None
        keys, votes = predict_votes(model, *rows(probes))
        assert votes.shape == (len(keys), len(probes))
        for j, x in enumerate(probes):
            assert votes[:, j].tolist() == one_row_votes(model, x)
            if one_sample is not None:
                label, result = one_sample(model, x)
                expected = majority_vote(votes[:, j])
                assert (label, result.counts) == (expected.winner, expected.counts)

    def test_keys_follow_voters(self, data_and_probes):
        data, probes = data_and_probes
        telvi = telvi_fit(data, (2, 2, 1), KINDS["knn"], 5)
        assert predict_votes(telvi, *rows(probes))[0] == sorted(telvi.base_models)
        bagged = bagging_fit(data, 3, 6, KINDS["knn"], 5)
        assert predict_votes(bagged, *rows(probes))[0] == [(-1, 0), (-1, 1), (-1, 2)]

    @pytest.mark.parametrize("method", ["telvi", "bagging"])
    def test_bad_shape_rejected_before_any_decomposition(
        self, data_and_probes, method, monkeypatch
    ):
        data, probes = data_and_probes
        if method == "telvi":
            model = telvi_fit(data, (2, 2, 1), KINDS["knn"], 5)
        else:
            model = bagging_fit(data, 3, 6, KINDS["knn"], 5)
        calls = []
        monkeypatch.setattr(
            "telkit.ensemble.hosvd_factors", lambda *args: calls.append(args)
        )
        data, _ = rows(probes)
        message = r"^sample shape \(4, 2, 3\) does not match training shape"
        with pytest.raises(ValueError, match=message):
            predict_votes(model, data, (4, 2, 3))
        assert calls == []

    def test_empty_sample_set_rejected(self, data_and_probes):
        data, _ = data_and_probes
        model = telvi_fit(data, (2, 2, 1), KINDS["knn"], 5)
        with pytest.raises(ValueError, match="at least one sample"):
            predict_votes(model, np.empty((0, 24)), (4, 3, 2))


class TestSeedRule:
    """A seed, and bagging's estimator count, are read by
    ``canonical.check_number``: a numpy int is its int, a bool fails."""

    SVM = ClassifierSpec("svm", {"max_passes": 3})
    KNN = ClassifierSpec("knn", {"k": 1})

    def test_mix_seed_reads_a_numpy_int_as_its_int(self):
        assert mix_seed(np.int64(3), 1) == mix_seed(3, 1)
        assert mix_seed(np.uint64(2**64 - 1), 5) == mix_seed(-1, 5)
        with pytest.raises(ValueError, match="^seed must be a number, got True$"):
            mix_seed(True, 1)

    def test_numpy_int_seeds_train_as_their_ints(self):
        rng = np.random.default_rng(607)
        data = random_dataset(rng, (3, 2), 6)
        flat = VectorDataset(data.data, data.labels)
        probes = rng.standard_normal((10, 6))
        assert np.array_equal(fit(self.SVM, flat, np.int64(3)).predict(probes),
                              fit(self.SVM, flat, 3).predict(probes))
        assert grid_search_cv([self.KNN, self.SVM], [flat], 3, np.int64(3)) is \
            grid_search_cv([self.KNN, self.SVM], [flat], 3, 3)
        telvi = telvi_fit(data, (1, 1), self.KNN, np.int64(3))
        bagged = bagging_fit(data, np.int64(2), 3, self.KNN, np.int64(3))
        assert type(telvi.seed) is int and telvi.seed == 3
        assert type(bagged.seed) is int and bagged.seed == 3
        assert bagged.n_estimators == 2

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda data, knn: telvi_fit(data, (1, 1), knn, True),
             "seed must be a number, got True"),
            (lambda data, knn: bagging_fit(data, 2, 3, knn, True),
             "seed must be a number, got True"),
            (lambda data, knn: bagging_fit(data, True, 3, knn, 0),
             "n_estimators must be a number, got True"),
            (lambda data, knn: bagging_fit(data, 2.5, 3, knn, 0),
             "n_estimators must be an integer, got 2.5"),
        ],
        ids=["telvi-seed", "bagging-seed", "n_estimators-bool", "n_estimators-half"],
    )
    def test_a_bool_seed_or_estimator_count_fails(self, build, message):
        data = random_dataset(np.random.default_rng(613), (3, 2), 6)
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(data, self.KNN)


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

    def test_an_integral_float_voter_count_is_read_as_an_int(self):
        expected = majority_error_probability(0.3, 11)
        assert majority_error_probability(0.3, 11.0) == expected

    @pytest.mark.parametrize(
        "p, n_voters, message",
        [
            (True, 3, "p must be a number, got True"),
            ("0.3", 3, "p must be a number, got '0.3'"),
            (float("nan"), 3, "p must be finite, got nan"),
            (0.3, True, "n_voters must be a number, got True"),
            (0.3, 2.5, "n_voters must be an integer, got 2.5"),
        ],
        ids=["bool-p", "str-p", "nan-p", "bool-voters", "fractional-voters"],
    )
    def test_untyped_inputs_fail_by_name(self, p, n_voters, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            majority_error_probability(p, n_voters)
