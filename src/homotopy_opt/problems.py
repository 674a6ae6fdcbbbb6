"""Parametric problem families with analytic gradients and homotopy maps.

Every family implements one batched oracle over an (R, d) block ``W`` of
iterates, one row per repeat: ``gradient(W, lam, idx)`` is each row's mean
gradient over the samples ``idx[r]`` of row r, or over all N samples when
``idx`` is None, and ``objective(W, lam)`` each row's full objective. It is
the only pair a family implements: the single-point surface,
``full_objective(w, lam)``, ``full_gradient(w, lam)`` and
``minibatch_value_and_gradient(w, lam, indices)`` (None: all N samples), is
its 1-row view. The minibatch gradient over all N indices equals the full
gradient and minibatch gradients are unbiased estimates of it. Instances are
immutable after construction: constructors copy their arrays and mark the
copies read-only, and all evaluations are pure, so they are safe to share
across concurrent runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .core import ConfigurationError, make_rng

TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


class DomainError(ValueError):
    """Argument outside the declared domain (e.g. lambda outside [0, 1])."""


class DataError(ValueError):
    """Dataset violates a problem precondition (e.g. non-binary labels)."""


def _check_lambda(lam):
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"homotopy parameter must lie in [0, 1], got {lam}")


def _block(w):
    """One point as a 1-row block."""
    return np.asarray(w, dtype=float).reshape(1, -1)


def _frozen(a):
    """A read-only float copy of ``a``: a problem shares no writable array with its caller."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LabelInterpolationMap:
    """Affine label deformation: lambda * y_target + (1 - lambda) * y_source."""

    y_target: np.ndarray
    y_source: np.ndarray

    def __post_init__(self):
        yt = _frozen(self.y_target)
        ys = _frozen(self.y_source)
        if yt.shape != ys.shape or yt.ndim != 1:
            raise DataError("target and source label vectors must be equal-length 1-D arrays")
        object.__setattr__(self, "y_target", yt)
        object.__setattr__(self, "y_source", ys)

    def at(self, lam, idx=None):
        """Labels at lambda, of every sample or of the samples ``idx`` (any index shape)."""
        _check_lambda(lam)
        yt = self.y_target if idx is None else self.y_target[idx]
        ys = self.y_source if idx is None else self.y_source[idx]
        if lam == 0.0:
            return ys.copy()
        if lam == 1.0:
            return yt.copy()
        return lam * yt + (1.0 - lam) * ys


class HomotopyProblem(ABC):
    """Base interface for a parametric objective family f(w, lambda).

    A family implements the batched pair ``objective`` and ``gradient``; a
    subclass without them cannot be instantiated. The single-point methods
    are 1-row views of the pair. ``epoch_metrics`` is what a run records per
    epoch for a block; a family with a second per-epoch metric names it in
    ``aux_metric``.
    """

    dimension: int
    sample_count: int
    aux_metric: str | None = None

    def epoch_metrics(self, W, lam):
        """Full objective of each row of W, and the second metric of each row (or None)."""
        return self.objective(W, lam), None

    @abstractmethod
    def objective(self, W, lam):
        """Full objective of each row of the (R, d) block W."""

    @abstractmethod
    def gradient(self, W, lam, idx=None, with_value=False):
        """Mean gradient of each row over its samples idx[r] (None: all N), as an (R, d) block.

        With ``with_value``, returns (values, gradients), values being each
        row's mean loss over the same samples.
        """

    def full_objective(self, w, lam):
        return float(self.objective(_block(w), lam)[0])

    def minibatch_value_and_gradient(self, w, lam, indices):
        idx = None if indices is None else np.asarray(indices)[None]
        values, grads = self.gradient(_block(w), lam, idx, with_value=True)
        return float(values[0]), grads[0]

    def full_gradient(self, w, lam):
        return self.gradient(_block(w), lam)[0]


class ErfRegressionProblem(HomotopyProblem):
    """1-D erf regressor with interpolated labels.

    f(w, lam) = (1/N) sum_j (y_{j,lam} - erf(w x_j))^2 with the analytic
    derivative d/dw erf(u) = (2/sqrt(pi)) e^(-u^2).
    """

    def __init__(self, xs, ys_target, ys_source):
        xs = _frozen(xs)
        if xs.ndim != 1 or xs.size == 0:
            raise ConfigurationError("erf problem needs a non-empty 1-D sample vector")
        self.xs = xs
        self.labels = LabelInterpolationMap(ys_target, ys_source)
        if self.labels.y_target.shape != xs.shape:
            raise ConfigurationError("labels and inputs must have equal length")
        self.dimension = 1
        self.sample_count = xs.size

    def _residuals(self, W, lam, idx):
        x = self.xs if idx is None else self.xs[idx]
        y = self.labels.at(lam, idx)
        u = W[:, :1] * x
        return x, u, erf(u) - y

    def objective(self, W, lam):
        return np.mean(self._residuals(W, lam, None)[2] ** 2, axis=1)

    def gradient(self, W, lam, idx=None, with_value=False):
        x, u, res = self._residuals(W, lam, idx)
        grad = np.mean(2.0 * res * TWO_OVER_SQRT_PI * np.exp(-(u**2)) * x, axis=1, keepdims=True)
        return (np.mean(res**2, axis=1), grad) if with_value else grad


def erf_problem(xs, ys_target, ys_source):
    """Toy erf regression family (dimension 1)."""
    return ErfRegressionProblem(xs, ys_target, ys_source)


# Fixed MLP architecture: 1 - 10 - 10 - 1, tanh hidden units, identity output.
MLP_HIDDEN = 10
MLP_DIMENSION = 1 * MLP_HIDDEN + MLP_HIDDEN + MLP_HIDDEN * MLP_HIDDEN + MLP_HIDDEN + MLP_HIDDEN * 1 + 1


class MlpRegressionProblem(HomotopyProblem):
    """Two-hidden-layer tanh network under MSE, gradients by hand-derived backprop.

    Parameters are packed as [W1 (10x1), b1 (10), W2 (10x10), b2 (10),
    W3 (1x10), b3 (1)] into a flat vector of length 141. It has no f*
    oracle, so runs record its raw target-problem loss instead.
    """

    aux_metric = "target_objective"

    def __init__(self, xs, ys_target, ys_source, init_seed=0):
        xs = _frozen(xs)
        if xs.ndim != 1 or xs.size == 0:
            raise ConfigurationError("mlp problem needs a non-empty 1-D sample vector")
        self.xs = xs
        self.labels = LabelInterpolationMap(ys_target, ys_source)
        if self.labels.y_target.shape != xs.shape:
            raise ConfigurationError("labels and inputs must have equal length")
        self.dimension = MLP_DIMENSION
        self.sample_count = xs.size
        self.init_seed = init_seed

    @staticmethod
    def unpack(w):
        """Views of the six parameter arrays in w, keeping any leading block axes."""
        h = MLP_HIDDEN
        lead = w.shape[:-1]
        o = 0
        W1 = w[..., o:o + h].reshape(*lead, h, 1); o += h
        b1 = w[..., o:o + h]; o += h
        W2 = w[..., o:o + h * h].reshape(*lead, h, h); o += h * h
        b2 = w[..., o:o + h]; o += h
        W3 = w[..., o:o + h].reshape(*lead, 1, h); o += h
        b3 = w[..., o:o + 1]
        return W1, b1, W2, b2, W3, b3

    @staticmethod
    def pack(W1, b1, W2, b2, W3, b3):
        return np.concatenate([W1.ravel(), b1, W2.ravel(), b2, W3.ravel(), b3])

    def default_init(self, seed=None):
        """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
        rng = make_rng(self.init_seed if seed is None else seed)
        h = MLP_HIDDEN
        W1 = rng.uniform(-1.0, 1.0, (h, 1))
        W2 = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), (h, h))
        W3 = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), (1, h))
        return self.pack(W1, np.zeros(h), W2, np.zeros(h), W3, np.zeros(1))

    def _forward(self, layers, x):
        """Hidden activations and output of each block row's layers at inputs x, (N,) or (R, M)."""
        W1, b1, W2, b2, W3, b3 = layers
        # Input dimension is 1, so the first layer is a broadcast, not a matmul.
        a1 = x[..., None] * W1[:, None, :, 0]
        a1 += b1[:, None, :]
        np.tanh(a1, out=a1)
        a2 = a1 @ W2.transpose(0, 2, 1)
        a2 += b2[:, None, :]
        np.tanh(a2, out=a2)
        out = (a2 @ W3[:, 0, :, None])[:, :, 0] + b3
        return a1, a2, out

    def predict(self, w, xs):
        return self._forward(self.unpack(_block(w)), np.asarray(xs, dtype=float))[2][0]

    def objective(self, W, lam):
        out = self._forward(self.unpack(W), self.xs)[2]
        return np.mean((out - self.labels.at(lam)) ** 2, axis=1)

    def epoch_metrics(self, W, lam):
        """Objective at lam and the raw target-problem (lambda = 1) loss, from one forward pass."""
        out = self._forward(self.unpack(W), self.xs)[2]
        return (np.mean((out - self.labels.at(lam)) ** 2, axis=1),
                np.mean((out - self.labels.y_target) ** 2, axis=1))

    def gradient(self, W, lam, idx=None, with_value=False):
        # Sums over the sample axis go through einsum: the same sequential
        # order as ndarray.sum(axis=1), without its per-row loop overhead.
        x = self.xs[None] if idx is None else self.xs[idx]
        layers = self.unpack(W)
        a1, a2, out = self._forward(layers, x)
        W2, w3 = layers[2], layers[4][:, 0, :]
        res = out - self.labels.at(lam, idx)                   # (R, m)
        # MSE backprop: dL/dout = 2 res / m
        d_out = (2.0 / res.shape[1]) * res
        # Once its weight gradient is taken, each activation block is
        # overwritten by tanh' = 1 - tanh^2 and each delta block is dropped,
        # so at most three (R, m, 10) blocks are live at once: the
        # estimators' full-batch blocks (m = N) would otherwise set a run's
        # peak memory.
        gW3 = (d_out[:, None, :] @ a2)[:, 0, :]
        d_a2 = d_out[:, :, None] * w3[:, None, :]
        np.multiply(a2, a2, out=a2)
        np.subtract(1.0, a2, out=a2)
        d_a2 *= a2                                             # (R, m, 10)
        del a2
        gW2 = (d_a2.transpose(0, 2, 1) @ a1).reshape(len(W), -1)
        gb2 = np.einsum("rmk->rk", d_a2)
        d_a1 = d_a2 @ W2
        del d_a2
        np.multiply(a1, a1, out=a1)
        np.subtract(1.0, a1, out=a1)
        d_a1 *= a1                                             # (R, m, 10)
        grad = np.concatenate([
            (x[:, None, :] @ d_a1)[:, 0, :],                   # gW1
            np.einsum("rmk->rk", d_a1),                        # gb1
            gW2, gb2, gW3,
            d_out.sum(axis=1, keepdims=True),                  # gb3
        ], axis=1)
        return (np.mean(res**2, axis=1), grad) if with_value else grad


def mlp_sine_problem(xs, ys_target, ys_source, init_spec=0):
    """Sine-regression MLP family; ``init_spec`` seeds the default init."""
    return MlpRegressionProblem(xs, ys_target, ys_source, init_seed=init_spec)


class CubicLogisticProblem(HomotopyProblem):
    """Binary cross-entropy of sigmoid(score) for the lambda-gated cubic model.

    The loss uses the log-sum-exp form log(1 + e^z) - y z, which is stable for
    large |z|. Products over the design matrix go through ``einsum``, which
    never calls the threaded BLAS.
    """

    aux_metric = "error"

    def __init__(self, features, labels01):
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels01, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2:
            raise DataError("features must be an (N, 2) array")
        if y.shape != (X.shape[0],) or not np.all(np.isin(y, (0.0, 1.0))):
            raise DataError("labels must be 0/1 with one entry per sample")
        x1, x2 = X[:, 0], X[:, 1]
        # Design matrix: the six nonlinear terms carry the lambda gate, the linear part does not.
        self.phi = _frozen(np.column_stack([x1**3, x2**3, x1**2, x2**2, x1**2 * x2,
                                            x1 * x2**2, x1, x2, np.ones_like(x1)]))
        self.phi_lin = self.phi[:, 6:]  # a view of a read-only array is read-only
        self.labels01 = _frozen(y)
        self.dimension = 9
        self.sample_count = X.shape[0]

    @staticmethod
    def _gate(lam):
        return np.array([lam] * 6 + [1.0] * 3)

    def scores(self, w, lam):
        """Scores of every sample: (N,) under one point w, (R, N) under an (R, 9) block."""
        gated = np.asarray(w, dtype=float) * self._gate(lam)
        return np.einsum("...k,...k->...", self.phi, gated[..., None, :])

    @staticmethod
    def _loss(z, y):
        return np.mean(np.logaddexp(0.0, z) - y * z, axis=1)

    def objective(self, W, lam):
        _check_lambda(lam)
        return self._loss(self.scores(W, lam), self.labels01)

    def epoch_metrics(self, W, lam):
        """Objective and 0/1 classification error of each row, from one pass over the scores."""
        _check_lambda(lam)
        z = self.scores(W, lam)
        return self._loss(z, self.labels01), np.mean((z >= 0.0) != (self.labels01 == 1.0), axis=1)

    def gradient(self, W, lam, idx=None, with_value=False):
        _check_lambda(lam)
        phi = self.phi if idx is None else self.phi[idx]
        y = self.labels01 if idx is None else self.labels01[idx]
        gate = self._gate(lam)
        z = np.einsum("...k,...k->...", phi, (W * gate)[:, None, :])
        d = (1.0 / (1.0 + np.exp(-z)) - y) / z.shape[1]
        grad = np.einsum("...m,...mk->...k", d, phi) * gate
        return (self._loss(z, y), grad) if with_value else grad

    def classification_error(self, w, lam):
        """Mean 0/1 misclassification at decision threshold sigmoid(z) >= 0.5."""
        return float(self.epoch_metrics(_block(w), lam)[1][0])


def cubic_logistic_problem(features, labels01):
    """Moons-classification family (dimension 9)."""
    return CubicLogisticProblem(features, labels01)


class QuadraticTrackingProblem(HomotopyProblem):
    """Synthetic 1-D family f(w, lam) = mu/2 * (w - lam)^2 with exact constants.

    Per-sample objectives mu/2 (w - lam)^2 + mu * b_j (w - lam) with centered
    offsets b_j give an unbiased stochastic oracle whose variance is known in
    closed form, while the full objective and f*(lam) = 0 stay exact.
    """

    def __init__(self, mu, offsets):
        if mu <= 0:
            raise ConfigurationError("curvature mu must be positive")
        b = np.asarray(offsets, dtype=float)
        if b.ndim != 1 or b.size < 1:
            raise ConfigurationError("offsets must be a non-empty 1-D array")
        self.mu = float(mu)
        self.offsets = _frozen(b - b.mean())
        self.dimension = 1
        self.sample_count = b.size

    def objective(self, W, lam):
        _check_lambda(lam)
        return 0.5 * self.mu * (W[:, 0] - lam) ** 2

    def gradient(self, W, lam, idx=None, with_value=False):
        _check_lambda(lam)
        d = W[:, :1] - lam
        b = np.mean(self.offsets if idx is None else self.offsets[idx], axis=-1, keepdims=True)
        grad = self.mu * d + self.mu * b
        return ((0.5 * self.mu * d**2 + self.mu * b * d)[:, 0], grad) if with_value else grad

    def oracle_variance(self, minibatch):
        """Exact E||g - grad f||^2 for sampling without replacement."""
        n, m = self.sample_count, minibatch
        var_b = float(np.mean(self.offsets**2))
        if m >= n:
            return 0.0
        correction = (n - m) / (n - 1) if n > 1 else 0.0
        return self.mu**2 * var_b * correction / m


def quadratic_tracking_problem(mu, offsets):
    return QuadraticTrackingProblem(mu, offsets)
