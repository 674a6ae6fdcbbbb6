"""Seeded synthetic dataset generators, one per experiment.

Determinism contract: every generator uses the fixed PCG64 generator (normals
via numpy's ziggurat), so spec + seed regenerate the same dataset bit for bit
across processes and platforms. The sine generator derives the source-label
noise stream from ``seed XOR SOURCE_NOISE_SALT``, and the offset generator
its one stream from ``seed XOR LQ_OFFSET_SALT``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, make_rng

# Documented sub-seed salts: the companion source labels of the sine dataset,
# and the offsets of the quadratic tracking problem.
SOURCE_NOISE_SALT = 0xA5A5A5A5
LQ_OFFSET_SALT = 0x0FF5_E75

# Variance, not deviation, of the N(0, v) noise on the sine task's source labels.
SINE_SOURCE_NOISE_VAR = 0.01


@dataclass(frozen=True)
class Dataset:
    """In-memory dataset: (N, d) inputs, N targets, optional source targets."""

    inputs: np.ndarray
    targets: np.ndarray
    source_targets: np.ndarray | None = None

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ConfigurationError("inputs and targets must have equal length")

    @property
    def sample_count(self):
        return self.inputs.shape[0]


def gen_linear_toy(n, slope, noise_std, seed):
    """x uniform on [-1, 1], y = slope * x + N(0, noise_std^2)."""
    if n < 1:
        raise ConfigurationError("need at least one sample")
    if noise_std < 0:
        raise ConfigurationError("noise_std must be nonnegative")
    rng = make_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = slope * x + noise_std * rng.standard_normal(n)
    return Dataset(inputs=x.reshape(-1, 1), targets=y)


def gen_sine(n, freq, noise_std, seed):
    """x uniform on [-1, 1], y = sin(freq * x) + noise; source labels x^2 + noise.

    The source noise (variance SINE_SOURCE_NOISE_VAR) comes from a derived sub-seed so target
    and source labels regenerate independently but deterministically.
    """
    if n < 1:
        raise ConfigurationError("need at least one sample")
    rng = make_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = np.sin(freq * x) + noise_std * rng.standard_normal(n)
    src_rng = make_rng(seed ^ SOURCE_NOISE_SALT)
    src_std = np.sqrt(SINE_SOURCE_NOISE_VAR) if noise_std > 0 else 0.0
    y_src = x**2 + src_std * src_rng.standard_normal(n)
    return Dataset(inputs=x.reshape(-1, 1), targets=y, source_targets=y_src)


def gen_moons(n, noise_std, seed):
    """Two interleaved semicircles with isotropic Gaussian corruption.

    Class 0: (cos t, sin t); class 1: (1 - cos t, 0.5 - sin t); t equally
    spaced on [0, pi] within each class; exactly n/2 samples per class.
    """
    if n < 2 or n % 2 != 0:
        raise ConfigurationError("moons generator needs an even sample count >= 2")
    rng = make_rng(seed)
    half = n // 2
    theta = np.linspace(0.0, np.pi, half)
    class0 = np.column_stack([np.cos(theta), np.sin(theta)])
    class1 = np.column_stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
    X = np.vstack([class0, class1]) + noise_std * rng.standard_normal((n, 2))
    y = np.concatenate([np.zeros(half), np.ones(half)])
    return Dataset(inputs=X, targets=y)


def gen_offsets(n, offset_std, seed):
    """N(0, offset_std^2) offsets as the targets of n all-zero inputs."""
    offsets = offset_std * make_rng(seed ^ LQ_OFFSET_SALT).standard_normal(n)
    return Dataset(inputs=np.zeros((n, 1)), targets=offsets)


def write_csv(path, header, rows):
    """Write the header and rows as "\\n"-ended UTF-8 lines: ints as is, None empty, others .17g."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (int, np.integer)) else
                              "" if v is None else format(v, ".17g") for v in row) + "\n")


def dataset_to_csv(dataset, path):
    """Write `x1[,x2],y[,y_source]` rows."""
    d = dataset.inputs.shape[1]
    header = ",".join([f"x{i + 1}" for i in range(d)] + ["y"])
    columns = [dataset.inputs[:, i] for i in range(d)] + [dataset.targets]
    if dataset.source_targets is not None:
        header += ",y_source"
        columns.append(dataset.source_targets)
    write_csv(path, header, zip(*columns))
