"""File formats and data sources: TELD, PPM/PGM, synthetic, splitting."""

import hashlib
import importlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from telkit.ensemble import LabeledTensorDataset
from telkit.experiment import train_test_split
from telkit.hosvd import hosvd
from telkit.io import (
    BadMagicError,
    ImageFormatError,
    NonFiniteValueError,
    ShapeError,
    TrailingDataError,
    TruncatedFileError,
    UnsupportedDtypeError,
    UnsupportedVersionError,
    decode_ppm,
    load_ppm_dir,
    load_tensor_dataset,
    save_tensor_dataset,
)
from telkit.seeding import mix_seed
from telkit.synth import BENCHMARK_SPEC, CORE_JITTER, SyntheticSpec, synth_generate
from telkit.tensor import DenseTensor, _batch_view, fold, unfold


def random_dataset(rng, shape=None, n=None) -> LabeledTensorDataset:
    if shape is None:
        order = rng.integers(1, 5)
        shape = tuple(int(d) for d in rng.integers(1, 6, size=order))
    if n is None:
        n = int(rng.integers(1, 8))
    size = int(np.prod(shape))
    samples = [DenseTensor(shape, rng.standard_normal(size)) for _ in range(n)]
    return LabeledTensorDataset(samples, rng.integers(0, 4, size=n))


class TestTeldFormat:
    def test_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(401)
        for i in range(25):
            data = random_dataset(rng)
            path = tmp_path / f"ds{i}.teld"
            save_tensor_dataset(data, path)
            back = load_tensor_dataset(path)
            assert back.labels.tolist() == data.labels.tolist()
            assert all(a == b for a, b in zip(back.samples, data.samples))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.teld"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(BadMagicError, match="bad magic"):
            load_tensor_dataset(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.teld"
        path.write_bytes(b"TELD" + struct.pack("<III", 9, 1, 1) + b"\x00" * 16)
        with pytest.raises(UnsupportedVersionError, match="version 9"):
            load_tensor_dataset(path)

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "dtype.teld"
        blob = b"TELD" + struct.pack("<IIII", 1, 1, 1, 2) + struct.pack("<I", 7)
        path.write_bytes(blob + b"\x00" * 16)
        with pytest.raises(UnsupportedDtypeError, match="dtype code 7"):
            load_tensor_dataset(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        rng = np.random.default_rng(409)
        data = random_dataset(rng, shape=(3, 2), n=2)
        path = tmp_path / "trunc.teld"
        save_tensor_dataset(data, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(TruncatedFileError, match="unexpected end of file at byte"):
            load_tensor_dataset(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.teld"
        path.write_bytes(b"TELD\x01\x00")
        with pytest.raises(TruncatedFileError, match="version"):
            load_tensor_dataset(path)

    @staticmethod
    def benchmark_file(tmp_path):
        """The 160-sample benchmark set as TELD: a 32-byte header and 160
        records of 4 + 8 * 192 bytes."""
        path = tmp_path / "bench.teld"
        save_tensor_dataset(synth_generate(BENCHMARK_SPEC), path)
        assert path.stat().st_size == 32 + 160 * 1540
        return path

    def test_bytes_after_the_last_record_are_rejected(self, tmp_path):
        path = self.benchmark_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 21)
        message = "21 bytes after the last of 160 records, at offset 246432"
        with pytest.raises(TrailingDataError, match=f"^{message}$"):
            load_tensor_dataset(path)

    def test_an_understated_sample_count_is_rejected(self, tmp_path):
        # a header count overwritten to 100 leaves 60 whole records over
        path = self.benchmark_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 100)
        path.write_bytes(bytes(blob))
        message = "92400 bytes after the last of 100 records, at offset 154032"
        with pytest.raises(TrailingDataError, match=f"^{message}$"):
            load_tensor_dataset(path)

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "zero.teld"
        blob = b"TELD" + struct.pack("<IIII", 1, 1, 2, 3) + struct.pack("<I", 0)
        path.write_bytes(blob + b"\x00" * 64)
        with pytest.raises(ShapeError, match="zero dimension"):
            load_tensor_dataset(path)

    def test_shape_overflow(self, tmp_path):
        path = tmp_path / "huge.teld"
        dims = struct.pack("<III", 70000, 70000, 70000)
        blob = b"TELD" + struct.pack("<III", 1, 1, 3) + dims
        path.write_bytes(blob + b"\x00" * 16)
        with pytest.raises(ShapeError, match="overflow"):
            load_tensor_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        rng = np.random.default_rng(419)
        data = random_dataset(rng, shape=(3, 2), n=4)
        poisoned = data.samples[2].data.copy()
        poisoned[5] = value
        samples = data.samples[:2] + [DenseTensor((3, 2), poisoned)] + data.samples[3:]
        path = tmp_path / "poisoned.teld"
        save_tensor_dataset(LabeledTensorDataset(samples, data.labels), path)
        with pytest.raises(NonFiniteValueError, match="sample 2 has a non-finite"):
            load_tensor_dataset(path)

    def test_layout_is_the_documented_binary_grammar(self, tmp_path):
        # one 2x2 sample, label 3, values 1..4 column-major
        data = LabeledTensorDataset(
            [DenseTensor((2, 2), [1.0, 2.0, 3.0, 4.0])], np.array([3])
        )
        path = tmp_path / "layout.teld"
        save_tensor_dataset(data, path)
        expected = (
            b"TELD"
            + struct.pack("<III", 1, 1, 2)
            + struct.pack("<II", 2, 2)
            + struct.pack("<I", 1)
            + struct.pack("<I", 3)
            + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
        )
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("label", [2**32, 2**40, 2**63 - 1])
    def test_a_label_beyond_u32_writes_no_file(self, tmp_path, label):
        rng = np.random.default_rng(421)
        data = random_dataset(rng, shape=(2, 2), n=4)
        labels = data.labels.copy()
        labels[2] = label
        labels[3] = 2**33  # only the first offending label is named
        path = tmp_path / "big-label.teld"
        message = f"TELD label of sample 2 is {label}, which does not fit in u32"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            save_tensor_dataset(LabeledTensorDataset(data.samples, labels), path)
        assert not path.exists()

    def test_the_largest_u32_label_round_trips(self, tmp_path):
        data = LabeledTensorDataset(
            [DenseTensor((2,), [1.0, 2.0]), DenseTensor((2,), [3.0, 4.0])],
            np.array([0, 2**32 - 1]),
        )
        path = tmp_path / "max-label.teld"
        save_tensor_dataset(data, path)
        assert load_tensor_dataset(path).labels.tolist() == [0, 2**32 - 1]


class TestOneArray:
    """A set read or generated is one read-only ``(M, P)`` array of rows,
    its samples read-only views of them, and a split shares its samples."""

    @staticmethod
    def read_and_generated(tmp_path):
        spec = SyntheticSpec((16, 12, 3), 2, (2, 2, 1), 6, 0.05, 3)
        generated = synth_generate(spec)
        save_tensor_dataset(generated, tmp_path / "set.teld")
        return generated, load_tensor_dataset(tmp_path / "set.teld")

    def test_samples_are_read_only_views_of_data(self, tmp_path):
        for data in self.read_and_generated(tmp_path):
            array = data.data
            assert (array.shape, array.dtype) == ((12, 576), np.float64)
            assert array.flags.c_contiguous and not array.flags.writeable
            for m, x in enumerate(data.samples):
                assert np.shares_memory(x.to_array(), array[m])
                assert not x.to_array().flags.writeable
                assert x.data.tobytes() == array[m].tobytes()

    def test_batch_views_equal_stacked_batches(self, tmp_path):
        # the batch that stacking the tensors' entries gave, strides too, is
        # a view of the rows, for a whole set and for a slice of it
        for data in self.read_and_generated(tmp_path):
            for part in (slice(None), slice(3, 10)):
                stacked = np.stack([x.data for x in data.samples[part]])
                expected = stacked.T.reshape(data.shape + (len(stacked),), order="F")
                view = _batch_view(data.data[part], data.shape)
                assert view.strides == expected.strides
                assert np.array_equal(view, expected)
                assert np.shares_memory(view, data.data)

    def test_round_trip_is_byte_identical(self, tmp_path):
        generated, read = self.read_and_generated(tmp_path)
        assert read.data.tobytes() == generated.data.tobytes()
        train, _ = train_test_split(read, 0.5, 3)
        for data in (read, train):
            save_tensor_dataset(data, tmp_path / "again.teld")
            again = tmp_path / "again.teld"
            save_tensor_dataset(load_tensor_dataset(again), tmp_path / "third.teld")
            assert again.read_bytes() == (tmp_path / "third.teld").read_bytes()

    def test_a_split_copies_no_sample(self, tmp_path):
        data = self.read_and_generated(tmp_path)[1]
        train, test = train_test_split(data, 0.5, 3)
        position = {id(x): m for m, x in enumerate(data.samples)}
        rows = [position[id(x)] for x in train.samples + test.samples]
        assert sorted(rows) == list(range(data.n_samples))
        assert train.data.tobytes() == data.data[rows[: train.n_samples]].tobytes()

    def test_an_overstated_sample_count_fails_on_the_first_missing_record(
        self, tmp_path
    ):
        # a header claiming 2**32 - 1 samples: rows are made for the 12
        # records the file holds, and the 13th is the short read
        self.read_and_generated(tmp_path)
        path = tmp_path / "set.teld"
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedFileError,
                           match=r"needed 4 bytes for label of sample 12 at"):
            load_tensor_dataset(path)

    def test_a_non_finite_record_fails_before_the_next(self, tmp_path):
        self.read_and_generated(tmp_path)
        path = tmp_path / "set.teld"
        blob = bytearray(path.read_bytes())
        header = 4 + 4 * 3 + 4 * 3 + 4
        record = 4 + 8 * 576
        offset = header + 5 * record + 4 + 8 * 100  # sample 5, entry 100
        blob[offset : offset + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(blob[: header + 7 * record - 1]))  # and short
        with pytest.raises(NonFiniteValueError, match="^sample 5 has a non-finite"):
            load_tensor_dataset(path)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def teld_datasets(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    size = int(np.prod(shape))
    n = draw(st.integers(1, 5))
    samples = [
        DenseTensor(shape, draw(st.lists(finite_floats, min_size=size, max_size=size)))
        for _ in range(n)
    ]
    labels = draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n))
    return LabeledTensorDataset(samples, np.array(labels, dtype=np.int64))


@settings(max_examples=60, deadline=None)
@given(data=teld_datasets(), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_teld_round_trip_property(tmp_path_factory, data, cut):
    path = tmp_path_factory.mktemp("teld") / "ds.teld"
    save_tensor_dataset(data, path)
    back = load_tensor_dataset(path)
    assert back.labels.tolist() == data.labels.tolist()
    for a, b in zip(back.samples, data.samples):
        assert a.shape == b.shape and a.data.tobytes() == b.data.tobytes()
    # every proper prefix of the file is a truncation, never a dataset
    blob = path.read_bytes()
    path.write_bytes(blob[: int(cut * len(blob))])
    with pytest.raises(TruncatedFileError):
        load_tensor_dataset(path)


def test_hypothesis_patch_writer_imports_under_the_warning_filters():
    # on a failing property Hypothesis imports its patch writer, which
    # imports libcst; a deprecation warning from that import, made an error
    # by the warning filters, ended the session with INTERNALERROR
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pytest.skip("without libcst, Hypothesis writes no patch")


RED_2X2_P6 = b"P6\n2 2\n255\n" + bytes([255, 0, 0] * 4)
GRAY_1X1_P5 = b"P5\n1 1\n255\n" + bytes([128])


class TestPpmDecoding:
    def test_red_2x2_p6(self):
        tensor = decode_ppm(RED_2X2_P6)
        assert tensor.shape == (2, 2, 3)
        array = tensor.to_array()
        assert np.all(array[:, :, 0] == 1.0)
        assert np.all(array[:, :, 1:] == 0.0)

    def test_gray_1x1_p5(self):
        tensor = decode_ppm(GRAY_1X1_P5)
        assert tensor.shape == (1, 1, 1)
        assert tensor[0, 0, 0] == pytest.approx(128 / 255)

    def test_ascii_p3_rejected(self):
        with pytest.raises(ImageFormatError, match="unsupported image variant"):
            decode_ppm(b"P3\n1 1\n255\n255 0 0\n")

    def test_comments_in_header(self):
        blob = b"P5\n# a comment\n1 2\n# another\n255\n" + bytes([10, 20])
        tensor = decode_ppm(blob)
        assert tensor.shape == (2, 1, 1)
        assert tensor[0, 0, 0] == pytest.approx(10 / 255)
        assert tensor[1, 0, 0] == pytest.approx(20 / 255)

    def test_wrong_maxval_rejected(self):
        with pytest.raises(ImageFormatError, match="maxval"):
            decode_ppm(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated_raster_rejected(self):
        with pytest.raises(ImageFormatError, match="truncated"):
            decode_ppm(b"P6\n2 2\n255\n\xff\x00")

    def test_matches_byte_level_reference(self):
        """Cross-check against an independent straight-line decode."""
        rng = np.random.default_rng(419)
        width, height = 3, 2
        raster = bytes(rng.integers(0, 256, size=width * height * 3, dtype=np.uint8))
        blob = f"P6\n{width} {height}\n255\n".encode() + raster
        tensor = decode_ppm(blob)
        for y in range(height):
            for x in range(width):
                for c in range(3):
                    byte = raster[(y * width + x) * 3 + c]
                    assert tensor[y, x, c] == byte / 255.0


class TestPpmDirectory:
    def _write_class(self, root, name, blobs):
        sub = root / name
        sub.mkdir()
        for i, blob in enumerate(blobs):
            (sub / f"img{i}.ppm").write_bytes(blob)

    def test_sorted_classes_and_files(self, tmp_path):
        self._write_class(tmp_path, "beta", [GRAY_1X1_P5])
        blob_zero = b"P5\n1 1\n255\n" + bytes([0])
        self._write_class(tmp_path, "alpha", [blob_zero, GRAY_1X1_P5])
        data = load_ppm_dir(tmp_path)
        assert data.labels.tolist() == [0, 0, 1]  # alpha then beta
        assert data.samples[0][0, 0, 0] == 0.0

    def test_one_array_with_the_rows_of_decode_ppm(self, ppm_tree):
        # each image is decoded into its row of one array, which its sample
        # views; the rows are those of the list of decode_ppm tensors that
        # was stacked on first use, digest and all
        root = ppm_tree()
        data = load_ppm_dir(root)
        assert data.shape == (3, 5, 3)
        assert data.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert not data.data.flags.writeable
        files = sorted(root.glob("*/*.ppm"))
        for m, (x, file) in enumerate(zip(data.samples, files)):
            assert np.shares_memory(x.to_array(), data.data)
            assert data.data[m].tobytes() == decode_ppm(file.read_bytes()).data.tobytes()
        digest = hashlib.sha256(data.data.tobytes()).hexdigest()
        assert digest == "87e01e872f170d7b01b6aee9baf5a94c52f2ebf97285db8793a72f3802f2b526"

    def test_mixed_sizes_rejected(self, tmp_path):
        bigger = b"P5\n2 1\n255\n" + bytes([1, 2])
        self._write_class(tmp_path, "a", [GRAY_1X1_P5, bigger])
        with pytest.raises(ImageFormatError, match="inconsistent image sizes"):
            load_ppm_dir(tmp_path)

    def test_empty_class_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ImageFormatError, match="empty class directory"):
            load_ppm_dir(tmp_path)

    def test_no_classes_rejected(self, tmp_path):
        with pytest.raises(ImageFormatError, match="no class subdirectories"):
            load_ppm_dir(tmp_path)


def reference_synth(spec) -> list[np.ndarray]:
    """``synth_generate``'s samples built one at a time, each clean sample
    by the definition of the mode product, fold(U @ unfold(G, n))."""
    scale = float(np.sqrt(np.prod(spec.shape) / np.prod(spec.rank)))
    samples = []
    for k in range(spec.classes):
        class_rng = np.random.default_rng(mix_seed(spec.seed, k))
        factors = [np.linalg.qr(class_rng.standard_normal((i, r)))[0][:, :r]
                   for i, r in zip(spec.shape, spec.rank)]
        base_core = scale * class_rng.standard_normal(spec.rank)
        for m in range(spec.samples_per_class):
            rng = np.random.default_rng(mix_seed(spec.seed, k, m))
            jitter = CORE_JITTER * scale * rng.standard_normal(spec.rank)
            x = DenseTensor.from_array(base_core + jitter)
            for n, factor in enumerate(factors):
                shape = x.shape[:n] + (factor.shape[0],) + x.shape[n + 1 :]
                x = fold(factor @ unfold(x, n), n, shape)
            noise = spec.noise_std * rng.standard_normal(spec.shape)
            samples.append(x.to_array() + noise)
    return samples


class TestSynthetic:
    def test_deterministic(self):
        a = synth_generate(BENCHMARK_SPEC)
        b = synth_generate(BENCHMARK_SPEC)
        assert a.labels.tolist() == b.labels.tolist()
        assert all(x == y for x, y in zip(a.samples, b.samples))

    def test_noiseless_classes_share_subspaces(self):
        spec = SyntheticSpec(
            shape=(6, 5, 4), classes=3, rank=(2, 2, 2),
            samples_per_class=4, noise_std=0.0, seed=3,
        )
        data = synth_generate(spec)
        for label in range(3):
            members = [
                x for x, y in zip(data.samples, data.labels) if y == label
            ]
            reference = hosvd(members[0], spec.rank)
            for x in members[1:]:
                other = hosvd(x, spec.rank)
                for n in range(3):
                    p_ref = reference.factors[n] @ reference.factors[n].T
                    p_other = other.factors[n] @ other.factors[n].T
                    assert np.linalg.norm(p_ref - p_other) <= 1e-9

    # the benchmark spec, a first unfolding of one column, and order 1
    REFERENCE_SPECS = [
        BENCHMARK_SPEC,
        SyntheticSpec(shape=(4, 3, 2), classes=3, rank=(2, 1, 1),
                      samples_per_class=70, noise_std=0.05, seed=3),
        SyntheticSpec(shape=(7,), classes=2, rank=(1,),
                      samples_per_class=5, noise_std=0.05, seed=3),
    ]

    @pytest.mark.parametrize(
        "spec", REFERENCE_SPECS, ids=["benchmark", "rank-211", "order-1"]
    )
    def test_bits_equal_a_per_sample_reference(self, spec):
        expected = reference_synth(spec)
        data = synth_generate(spec)
        assert ([x.data.tobytes() for x in data.samples]
                == [x.tobytes(order="F") for x in expected])

    def test_a_sample_does_not_depend_on_the_class_size(self):
        # sample m of class k has its own generator and its own product,
        # whatever chunk of its class it is built in
        def generate(n):
            return synth_generate(SyntheticSpec(
                shape=(4, 3, 2), classes=2, rank=(2, 1, 1),
                samples_per_class=n, noise_std=0.05, seed=3,
            ))

        largest = generate(70)
        for n in (1, 3):
            data = generate(n)
            for k in range(2):
                for m in range(n):
                    assert (data.samples[k * n + m].data.tobytes()
                            == largest.samples[k * 70 + m].data.tobytes())

    def test_counts_and_labels(self):
        data = synth_generate(BENCHMARK_SPEC)
        assert data.n_samples == 160
        assert data.shape == (8, 8, 3)
        values, counts = np.unique(data.labels, return_counts=True)
        assert values.tolist() == [0, 1, 2, 3]
        assert counts.tolist() == [40] * 4

    def test_overflowing_noise_rejected(self):
        # the samples were made non-finite, and a run failed only later, in
        # its decompose stage
        spec = SyntheticSpec(
            shape=(3, 3), classes=2, rank=(1, 1),
            samples_per_class=2, noise_std=1e308, seed=0,
        )
        with pytest.raises(ValueError, match=r"^noise_std 1e\+308 overflows "):
            synth_generate(spec)

    def test_rank_exceeding_shape_rejected(self):
        with pytest.raises(ValueError, match="exceeds shape"):
            SyntheticSpec(
                shape=(3, 3), classes=2, rank=(4, 1),
                samples_per_class=2, noise_std=0.0, seed=0,
            )


class TestTrainTestSplit:
    def _dataset(self, per_class=(10, 10)):
        rng = np.random.default_rng(421)
        samples, labels = [], []
        for label, count in enumerate(per_class):
            for _ in range(count):
                samples.append(DenseTensor((2, 2), rng.standard_normal(4)))
                labels.append(label)
        return LabeledTensorDataset(samples, np.array(labels))

    def test_half_split_is_exact(self):
        train, test = train_test_split(self._dataset(), 0.5, seed=5)
        for part in (train, test):
            values, counts = np.unique(part.labels, return_counts=True)
            assert counts.tolist() == [5, 5]

    def test_same_seed_same_partition(self):
        data = self._dataset((9, 7))
        a_train, a_test = train_test_split(data, 0.6, seed=8)
        b_train, b_test = train_test_split(data, 0.6, seed=8)
        assert a_train.labels.tolist() == b_train.labels.tolist()
        assert all(x == y for x, y in zip(a_train.samples, b_train.samples))
        assert all(x == y for x, y in zip(a_test.samples, b_test.samples))

    def test_partition_property(self):
        data = self._dataset((9, 7))
        train, test = train_test_split(data, 0.4, seed=2)
        assert train.n_samples + test.n_samples == data.n_samples
        seen = [x.data.tobytes() for x in train.samples + test.samples]
        original = [x.data.tobytes() for x in data.samples]
        assert sorted(seen) == sorted(original)

    def test_stratification_within_one_sample(self):
        data = self._dataset((11, 6))
        fraction = 0.3
        train, _ = train_test_split(data, fraction, seed=1)
        for label, count in [(0, 11), (1, 6)]:
            got = int(np.sum(train.labels == label))
            assert abs(got - fraction * count) < 1.0

    def test_tiny_class_rejected(self):
        data = self._dataset((5, 1))
        with pytest.raises(ValueError, match="at least 2"):
            train_test_split(data, 0.5, seed=0)

    def test_fraction_domain(self):
        with pytest.raises(ValueError, match="train_fraction"):
            train_test_split(self._dataset(), 1.0, seed=0)

    def test_both_sides_nonempty_at_extreme_fraction(self):
        train, test = train_test_split(self._dataset((2, 2)), 0.9, seed=0)
        assert train.n_samples == 2 and test.n_samples == 2
