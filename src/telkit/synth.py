"""Seeded synthetic tensor datasets with per-class low-rank structure.

Each class gets its own random orthonormal factor matrices and a base
core tensor; a sample is the reconstruction of a slightly perturbed core
plus elementwise Gaussian noise, written into its row of the dataset's
one array.  A class is built in chunks of ``hosvd._CHUNK`` samples: their
cores, one batch, times the class factors in one batched
``tensor._mode_product`` per mode (``hosvd._multiply``).
Each sample's own generator draws its jitter, then its noise, and the
kernel gives each item the bits of a batch of one, so a sample's bytes do
not depend on how many samples its class has.  Cores are scaled so the
clean samples have unit-RMS entries, which makes ``noise_std`` directly
comparable across shapes and ranks.  ``SyntheticSpec`` reads its shape by
the one shape rule, ``tensor._check_shape``, its rank by the one rank rule,
``hosvd._check_rank``, the two together by ``hosvd.clamp_rank`` and every
other number field through ``canonical.check_number`` when it is built,
in Python or from a config, so a shape of [8.7, 8, 3] or a seed of true
fails naming its field.  Its own check is the generation constraint: no
rank entry past its dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .canonical import check_keys, check_number, nonfinite_row, plain
from .ensemble import LabeledTensorDataset
from .hosvd import _CHUNK, _check_rank, _multiply, clamp_rank
from .seeding import mix_seed
from .tensor import _batch_view, _check_shape, _empty_rows

__all__ = ["SyntheticSpec", "synth_generate", "BENCHMARK_SPEC"]

CORE_JITTER = 0.5  # per-sample core perturbation, relative to core scale


@dataclass(frozen=True)
class SyntheticSpec:
    shape: tuple[int, ...]
    classes: int
    rank: tuple[int, ...]
    samples_per_class: int
    noise_std: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "shape", _check_shape(self.shape))
        object.__setattr__(self, "rank", _check_rank(self.rank))
        for name in ("classes", "samples_per_class", "seed"):
            object.__setattr__(self, name, check_number(getattr(self, name), name, True))
        object.__setattr__(self, "noise_std", check_number(self.noise_std, "noise_std"))
        clamp_rank(self.rank, self.shape)
        if any(r > s for r, s in zip(self.rank, self.shape)):
            raise ValueError(
                f"rank {self.rank} exceeds shape {self.shape}"
            )
        if self.classes < 1 or self.samples_per_class < 1:
            raise ValueError("classes and samples_per_class must be >= 1")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")

    def to_dict(self) -> dict[str, Any]:
        return plain(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SyntheticSpec":
        check_keys(payload, cls, "synthetic spec")
        return cls(**payload)


# Desk-scale benchmark used by the experiment harness and the test suite.
BENCHMARK_SPEC = SyntheticSpec(
    shape=(8, 8, 3),
    classes=4,
    rank=(2, 2, 1),
    samples_per_class=40,
    noise_std=0.05,
    seed=7,
)


def synth_generate(spec: SyntheticSpec) -> LabeledTensorDataset:
    """Deterministically generate the dataset described by ``spec``."""
    data = _empty_rows(spec.classes * spec.samples_per_class, int(np.prod(spec.shape)))
    classes = data.reshape(spec.classes, spec.samples_per_class, -1)
    # unit-RMS scaling: E||core||^2 = prod(rank) spreads over prod(shape)
    scale = float(np.sqrt(np.prod(spec.shape) / np.prod(spec.rank)))
    for k in range(spec.classes):
        class_rng = np.random.default_rng(mix_seed(spec.seed, k))
        factors = []
        for size, r in zip(spec.shape, spec.rank):
            gaussian = class_rng.standard_normal((size, r))
            q, _ = np.linalg.qr(gaussian)
            factors.append(q[:, :r])
        base_core = scale * class_rng.standard_normal(spec.rank)
        for start in range(0, spec.samples_per_class, _CHUNK):
            stop = min(start + _CHUNK, spec.samples_per_class)
            rngs = [np.random.default_rng(mix_seed(spec.seed, k, m))
                    for m in range(start, stop)]
            cores = np.empty(spec.rank + (len(rngs),), order="F")
            for j, sample_rng in enumerate(rngs):
                jitter = CORE_JITTER * scale * sample_rng.standard_normal(spec.rank)
                cores[..., j] = base_core + jitter
            clean = _multiply(cores, factors)
            rows = _batch_view(classes[k, start:stop], spec.shape)
            with np.errstate(over="ignore", invalid="ignore"):
                for j, sample_rng in enumerate(rngs):
                    noise = spec.noise_std * sample_rng.standard_normal(spec.shape)
                    np.add(clean[..., j], noise, out=rows[..., j])
            bad = nonfinite_row(classes[k, start:stop])
            if bad is not None:
                raise ValueError(f"noise_std {spec.noise_std} overflows "
                                 f"sample {start + bad} of class {k}")
            del clean  # one chunk's product held at a time bounds peak memory
    labels = np.arange(spec.classes).repeat(spec.samples_per_class)
    return LabeledTensorDataset.from_rows(data, spec.shape, labels)
