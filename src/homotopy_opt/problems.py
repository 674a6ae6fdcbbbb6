"""Parametric problem families with analytic gradients and homotopy maps.

Every family implements one batched pair over an (R, d) block ``W`` of
iterates, one row per repeat: ``_epoch_metrics(W, lam)``, each row's full
objective and second metric (or None), and ``_gradient(W, lam, idx=None,
with_metrics=False)``, each row's mean gradient over the samples ``idx[r]``
of row r, or over all N samples when ``idx`` is None. With ``with_metrics``
it returns ``(metrics, grads)`` from the same model pass: at ``idx`` None,
bit for bit the rows of ``_epoch_metrics`` (the engine's full-batch
record); at a minibatch, each row's objective and second metric over its
own samples. Callers use the base's ``epoch_metrics`` and ``gradient``,
which hand the pair a few rows at a time (``in_row_chunks``).
``objective(W, lam)`` is the first half of ``epoch_metrics``,
``objectives(W, lams)`` its rows at each lambda of a sequence (one model
pass for a label family), and the single-point surface, ``full_objective``,
``full_gradient`` and ``minibatch_value_and_gradient(w, lam, indices)``
(None: all N samples), is their 1-row view. ``lam`` is a float, the same
lambda for every row, or an (R, 1) column giving row r its own lambda
``lam[r, 0]``; each row's result is, bit for bit, the one the float call
at that lambda gives. Every lambda must lie in [0, 1]; the base's public
evaluations judge it once per call, so a family's pair may assume it.
The minibatch gradient over all N indices equals the full gradient and
minibatch gradients are unbiased estimates of it.
Instances are immutable after construction: constructors copy their arrays
and mark the copies read-only, and all evaluations are pure, so they are
safe to share across concurrent runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial

import numpy as np

from .core import ConfigurationError, make_rng

TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)
# Elements of the widest per-sample temporary (rows x ``sample_width`` x samples)
# one family evaluation works on: a block goes max(1, EPOCH_CHUNK_ELEMENTS //
# (m * sample_width)) rows at a time, m = N or the minibatch, as a whole block's
# temporaries (sine-mlp: R x 10 x m) would spill out of cache and set the peak
# memory. No row's bits depend on its chunk (``in_row_chunks``).
EPOCH_CHUNK_ELEMENTS = 25_000


def _check_lambda(lam):
    """Reject a lambda, or a column entry, outside [0, 1] or NaN."""
    # The engine passes a float on every step; only a column pays for numpy calls.
    if isinstance(lam, np.ndarray):
        bad = lam[~((lam >= 0.0) & (lam <= 1.0))]
        if bad.size:
            raise ConfigurationError(f"homotopy parameter must lie in [0, 1], got {bad[0]}")
    elif not (0.0 <= lam <= 1.0):
        raise ConfigurationError(f"homotopy parameter must lie in [0, 1], got {lam}")


def _block(w):
    """One point as a 1-row block."""
    return np.asarray(w, dtype=float).reshape(1, -1)


def _joined(parts):
    """Chunk results concatenated in row order, tuples item by item at any depth; None stays None."""
    if isinstance(parts[0], tuple):
        return tuple(_joined(items) for items in zip(*parts))
    return None if parts[0] is None else np.concatenate(parts)


def _frozen(a):
    """A read-only float copy of ``a``: a problem shares no writable array with its caller."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class HomotopyProblem(ABC):
    """Base interface for a parametric objective family f(w, lambda).

    A family implements the batched pair ``_epoch_metrics`` and
    ``_gradient``, which the public ``epoch_metrics`` and ``gradient`` call
    in row chunks; a subclass without the pair cannot be instantiated.
    ``objective`` and the single-point methods are views of the public pair.
    """

    dimension: int
    sample_count: int
    # Values per sample in the family's widest temporary: a model property, not an option.
    sample_width = 1

    def in_row_chunks(self, evaluate, W, lam, idx=None):
        """``evaluate(W, lam[, idx])`` on a few rows of W (of idx, of a column lam) at a time."""
        m = self.sample_count if idx is None else idx.shape[1]
        rows = max(1, EPOCH_CHUNK_ELEMENTS // (m * self.sample_width))
        if len(W) <= rows:
            return evaluate(W, lam) if idx is None else evaluate(W, lam, idx)
        parts = []
        for c in (slice(i, i + rows) for i in range(0, len(W), rows)):
            lam_c = lam[c] if isinstance(lam, np.ndarray) else lam
            parts.append(evaluate(W[c], lam_c) if idx is None else evaluate(W[c], lam_c, idx[c]))
        return _joined(parts)

    @abstractmethod
    def _epoch_metrics(self, W, lam):
        """Full objective and second metric (or None) of each row of the (R, d) block W."""

    @abstractmethod
    def _gradient(self, W, lam, idx=None, with_metrics=False):
        """Mean gradient of each row over its samples idx[r] (None: all N), as an (R, d) block.

        With ``with_metrics``, returns (metrics, gradients), the metrics from
        the same model pass: at idx=None each row bit for bit the rows of
        ``_epoch_metrics``; at a minibatch each row's mean objective and
        second metric (or None) over the same samples.
        """

    def epoch_metrics(self, W, lam):
        _check_lambda(lam)
        return self.in_row_chunks(self._epoch_metrics, W, lam)

    def gradient(self, W, lam, idx=None, with_metrics=False):
        _check_lambda(lam)
        return self.in_row_chunks(partial(self._gradient, with_metrics=with_metrics), W, lam, idx)

    def objective(self, W, lam):
        """Full objective of each row of the (R, d) block W."""
        return self.epoch_metrics(W, lam)[0]

    def objectives(self, W, lams):
        """``objective`` at each lambda of the sequence ``lams``, one (R,) row per lambda."""
        return np.array([self.objective(W, lam) for lam in lams])

    def full_objective(self, w, lam):
        return float(self.objective(_block(w), lam)[0])

    def minibatch_value_and_gradient(self, w, lam, indices):
        idx = None if indices is None else np.asarray(indices)[None]
        (values, _), grads = self.gradient(_block(w), lam, idx, with_metrics=True)
        return float(values[0]), grads[0]

    def full_gradient(self, w, lam):
        return self.gradient(_block(w), lam)[0]


class LabelInterpolationProblem(HomotopyProblem):
    """A 1-D regression family whose labels move with lambda.

    The labels at lambda are y_lam = lambda * y_target + (1 - lambda) *
    y_source and the objective is f(w, lambda) = mean((o(w) - y_lam)^2); a
    family supplies the lambda-free model output o(w) (``outputs``) and its
    ``_gradient``, and ``loss`` turns outputs into objectives. A model pass
    forms its residual once, and ``_gradient`` takes its metrics from it.
    """

    def __init__(self, xs, ys_target, ys_source):
        self.xs = _frozen(xs)
        self.y_target = _frozen(ys_target)
        self.y_source = _frozen(ys_source)
        if self.xs.ndim != 1 or self.xs.size == 0:
            raise ConfigurationError(f"{type(self).__name__} needs a non-empty 1-D sample vector")
        if not self.xs.shape == self.y_target.shape == self.y_source.shape:
            raise ConfigurationError("labels and inputs must have equal length")
        self.sample_count = self.xs.size

    def labels(self, lam, idx=None):
        """Labels at lambda, of every sample or of the samples ``idx`` (any index shape).

        A column ``lam`` gives an (R, N) block, or idx's (R, M) shape, one row per lambda.
        The result is read-only (an endpoint's labels at idx=None) or fresh: write into neither.
        """
        # An endpoint gathers only its own side: the blend's bytes at a third of its
        # cost on a minibatch. A column's endpoint rows copy, so both keep the same bits.
        if not isinstance(lam, np.ndarray) and lam in (0.0, 1.0):
            y = self.y_source if lam == 0.0 else self.y_target
            return y if idx is None else y[idx]
        yt = self.y_target if idx is None else self.y_target[idx]
        ys = self.y_source if idx is None else self.y_source[idx]
        y = lam * yt + (1.0 - lam) * ys
        if isinstance(lam, np.ndarray):
            np.copyto(y, ys, where=lam == 0.0)
            np.copyto(y, yt, where=lam == 1.0)
        return y

    @abstractmethod
    def outputs(self, W):
        """Model output of each row of the (R, d) block W at every sample, an (R, N) array."""

    def loss(self, outputs, lam, idx=None):
        """Each row's objective at lam from its ``outputs`` (at the samples idx), for any lambda."""
        return self.mse(outputs - self.labels(lam, idx))

    @staticmethod
    def mse(res):
        """Each row's mean squared residual, squaring ``res`` in place."""
        # np.mean's arithmetic (a sum, then one division), without its ~5 µs Python wrapper.
        return np.add.reduce(np.square(res, out=res), axis=1) / res.shape[1]

    def objectives(self, W, lams):
        """One model pass over the whole block W: the caller bounds its rows."""
        _check_lambda(np.asarray(lams, dtype=float))
        out = self.outputs(W)
        return np.array([self.loss(out, lam) for lam in lams])

    def _epoch_metrics(self, W, lam):
        return self.loss(self.outputs(W), lam), None


class ErfRegressionProblem(LabelInterpolationProblem):
    """1-D erf regressor with interpolated labels.

    f(w, lam) = (1/N) sum_j (y_{j,lam} - erf(w x_j))^2 with the analytic
    derivative d/dw erf(u) = (2/sqrt(pi)) e^(-u^2).
    """

    dimension = 1

    def __init__(self, *arrays):
        super().__init__(*arrays)
        from scipy.special import erf  # here, not at import: only this family needs scipy
        self.erf = erf

    def outputs(self, W):
        return self.erf(W[:, :1] * self.xs)

    def _gradient(self, W, lam, idx=None, with_metrics=False):
        x = self.xs if idx is None else self.xs[idx]
        u = W[:, :1] * x
        res = self.erf(u)
        res -= self.labels(lam, idx)
        # res * c * e^(-u^2) * x, left to right, in place: res's buffer unless metrics need res.
        g = np.multiply(res, 2.0 * TWO_OVER_SQRT_PI, out=None if with_metrics else res)
        g *= np.exp(np.negative(np.square(u, out=u), out=u), out=u)
        g *= x
        grad = np.add.reduce(g, axis=1, keepdims=True) / g.shape[1]  # np.mean, as in ``mse``
        return ((self.mse(res), None), grad) if with_metrics else grad


# Fixed MLP architecture: 1 - 10 - 10 - 1, tanh hidden units, identity output.
MLP_HIDDEN = 10
MLP_DIMENSION = 1 * MLP_HIDDEN + MLP_HIDDEN + MLP_HIDDEN * MLP_HIDDEN + MLP_HIDDEN + MLP_HIDDEN * 1 + 1


class MlpRegressionProblem(LabelInterpolationProblem):
    """Two-hidden-layer tanh network under MSE, gradients by hand-derived backprop.

    Parameters are packed as [W1 (10x1), b1 (10), W2 (10x10), b2 (10),
    W3 (1x10), b3 (1)] into a flat vector of length 141. It has no f*
    oracle, so runs record its raw target-problem loss instead. Its hidden blocks are (R, 10, m),
    hidden-major, at a full batch and a minibatch alike; each matmul runs one block row at a
    time, and a sample's bits may depend on its position within its row, never on other rows.
    """

    dimension = MLP_DIMENSION
    sample_width = MLP_HIDDEN  # the (R, 10, m) hidden activation and delta blocks

    def __init__(self, *arrays):
        super().__init__(*arrays)
        # [x; 1], (2, N): with one input, the first layer is one K = 2 gemm, [W1 b1] @ [x; 1].
        self.xs1 = _frozen(np.stack([self.xs, np.ones_like(self.xs)]))

    @staticmethod
    def unpack(w):
        """Views of the six parameter arrays in w, keeping any leading block axes."""
        h = MLP_HIDDEN
        w = np.ascontiguousarray(w)  # else numpy's non-BLAS matmul loop changes the bits
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

    def default_init(self, seed):
        """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
        rng = make_rng(seed)
        h = MLP_HIDDEN
        W1 = rng.uniform(-1.0, 1.0, (h, 1))
        W2 = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), (h, h))
        W3 = rng.uniform(-1.0 / np.sqrt(h), 1.0 / np.sqrt(h), (1, h))
        return self.pack(W1, np.zeros(h), W2, np.zeros(h), W3, np.zeros(1))

    def _forward(self, layers, X1):
        """Each row's activations (R, 10, m) and outputs (R, m) at [x; 1], (2, N) or (R, 2, M)."""
        W1, b1, W2, b2, W3, b3 = layers
        a1 = np.concatenate([W1, b1[..., None]], axis=-1) @ X1
        np.tanh(a1, out=a1)
        a2 = W2 @ a1
        a2 += b2[..., None]
        np.tanh(a2, out=a2)
        out = (W3 @ a2)[:, 0]
        out += b3
        return a1, a2, out

    def outputs(self, W):
        return self._forward(self.unpack(W), self.xs1)[2]

    def _epoch_metrics(self, W, lam):
        """Objective at lam and the raw target-problem (lambda = 1) loss, from one forward pass."""
        out = self.outputs(W)
        value = self.loss(out, lam)  # at a float lambda of 1, the target loss bit for bit
        return value, value.copy() if np.ndim(lam) == 0 and lam == 1.0 else self.loss(out, 1.0)

    def _gradient(self, W, lam, idx=None, with_metrics=False):
        X1 = self.xs1 if idx is None else self.xs1.take(idx, axis=1).transpose(1, 0, 2)
        _, _, W2, _, W3, _ = layers = self.unpack(W)
        a1, a2, out = self._forward(layers, X1)
        res = out - self.labels(lam, idx)                      # (R, m)
        at_target = np.ndim(lam) == 0 and lam == 1.0  # there ``mse(res)`` is the target loss too
        raw = self.loss(out, 1.0, idx) if with_metrics and not at_target else None
        # MSE backprop: dL/dout = 2 res / m, in the output buffer
        d_out = np.multiply(2.0 / res.shape[1], res, out=out)
        # Each weight gradient goes into its slice of ``grad``; sample sums run in einsum,
        # since a threaded gemv splits its sum over m and its bits then move with the thread
        # count. Each activation block, once its weight gradient is taken, becomes tanh' =
        # 1 - tanh^2 and d_a1 takes a2's buffer: at most three (R, 10, m) blocks are live
        # at once, where the estimators' full-batch blocks (m = N) would set the peak memory.
        grad = np.empty((len(W), self.dimension))
        gW1, gb1, gW2, gb2, gW3, gb3 = self.unpack(grad)
        np.einsum("rkm,rm->rk", a2, d_out, out=gW3[:, 0])
        d_a2 = W3.transpose(0, 2, 1) * d_out[:, None, :]
        np.multiply(a2, a2, out=a2)
        np.subtract(1.0, a2, out=a2)
        d_a2 *= a2                                             # (R, 10, m)
        np.matmul(d_a2, a1.transpose(0, 2, 1), out=gW2)
        np.einsum("rkm->rk", d_a2, out=gb2)
        d_a1 = np.matmul(W2.transpose(0, 2, 1), d_a2, out=a2)
        np.multiply(a1, a1, out=a1)
        np.subtract(1.0, a1, out=a1)
        d_a1 *= a1                                             # (R, 10, m)
        np.einsum("...km,...m->...k", d_a1, X1[..., 0, :], out=gW1[..., 0])
        np.einsum("rkm->rk", d_a1, out=gb1)
        np.add.reduce(d_out, axis=1, keepdims=True, out=gb3)
        value = self.mse(res) if with_metrics else None
        return ((value, value.copy() if at_target else raw), grad) if with_metrics else grad


# The design terms of CubicLogisticProblem that lambda gates: the six nonlinear ones.
GATED_MASK = np.array([True] * 6 + [False] * 3)
# Samples per gemv of the moons gradient's sum over samples. OpenBLAS 0.3.31 threads
# a gemv from 9 x 51,200 elements and then splits its sum between the threads, so a
# longer row sums chunks of this many samples, added in order: its bits do not depend
# on the thread count. Every default N fits in one chunk, a single gemv.
GEMV_CHUNK_SAMPLES = 32_768


class CubicLogisticProblem(HomotopyProblem):
    """Binary cross-entropy of sigmoid(score) for the lambda-gated cubic model.

    The loss uses the log-sum-exp form log(1 + e^z) - y z, which is stable for
    large |z|. The design matrix is stored once, feature-major (9, N), and both products
    run along the sample axis as one BLAS gemv per block row, whatever its neighbours: a
    sample's bits may depend on its position within its row, never on other rows. The
    gradient's sum over samples takes one gemv per GEMV_CHUNK_SAMPLES samples, none of
    them large enough for OpenBLAS to thread, so its bits do not move with the thread count.
    """

    def __init__(self, features, labels01):
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels01, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2:
            raise ConfigurationError("features must be an (N, 2) array")
        if y.shape != (X.shape[0],) or not np.all(np.isin(y, (0.0, 1.0))):
            raise ConfigurationError("labels must be 0/1 with one entry per sample")
        x1, x2 = X[:, 0], X[:, 1]
        # Design matrix, one row per term: the six nonlinear terms carry the lambda gate.
        self.phiT = _frozen(np.stack([x1**3, x2**3, x1**2, x2**2, x1**2 * x2,
                                      x1 * x2**2, x1, x2, np.ones_like(x1)]))
        self.labels01 = _frozen(y)
        self.dimension = 9
        self.sample_count = X.shape[0]

    @staticmethod
    def _gate(lam):
        """The coefficient gate: (9,) for a float lambda, one (R, 9) row per entry of a column."""
        return np.where(GATED_MASK, lam, 1.0)

    @staticmethod
    def _scores(phiT, gated):
        """Scores of the design columns phiT under the gated coefficients, one row per block row."""
        return (gated[..., None, :] @ phiT)[..., 0, :]

    def scores(self, w, lam):
        """Scores of every sample: (N,) under one point w, (R, N) under an (R, 9) block."""
        return self._scores(self.phiT, np.asarray(w, dtype=float) * self._gate(lam))

    @staticmethod
    def _metrics(z, y):
        """Objective and 0/1 classification error of each row of the scores z under the labels y."""
        # np.logaddexp(0, z)'s split, max(z, 0) + log1p(e^-|z|), on the vector exp and log1p.
        loss = np.abs(z)
        np.log1p(np.exp(np.negative(loss, out=loss), out=loss), out=loss)
        loss += np.maximum(z, 0.0)
        # np.mean's arithmetic, as in ``mse``; the error's sum is an exact count, as np.mean's is.
        return (np.add.reduce(np.subtract(loss, y * z, out=loss), axis=1) / z.shape[1],
                np.add.reduce((z >= 0.0) != (y == 1.0), axis=1) / z.shape[1])

    def _epoch_metrics(self, W, lam):
        """Objective and 0/1 classification error of each row, from one pass over the scores."""
        return self._metrics(self.scores(W, lam), self.labels01)

    def _gradient(self, W, lam, idx=None, with_metrics=False):
        # Each row's (9, M) columns at a row stride of R x M: the full batch's orientation.
        phiT = self.phiT if idx is None else self.phiT.take(idx, axis=1).transpose(1, 0, 2)
        y = self.labels01 if idx is None else self.labels01.take(idx)
        gate = self._gate(lam)
        z = self._scores(phiT, W * gate)
        # The sigmoid residual (1 / (1 + e^-z) - y) / m, in one buffer.
        d = np.negative(z)
        np.divide(1.0, np.add(1.0, np.exp(d, out=d), out=d), out=d)
        d -= y
        d /= z.shape[1]
        d, chunk = d[..., :, None], GEMV_CHUNK_SAMPLES
        sums = phiT[..., :chunk] @ d[..., :chunk, :]
        for c in range(chunk, z.shape[1], chunk):
            sums += phiT[..., c:c + chunk] @ d[..., c:c + chunk, :]
        grad = sums[..., 0] * gate
        return (self._metrics(z, y), grad) if with_metrics else grad


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

    def _epoch_metrics(self, W, lam):
        return 0.5 * self.mu * (W[:, :1] - lam)[:, 0] ** 2, None

    def _gradient(self, W, lam, idx=None, with_metrics=False):
        d = W[:, :1] - lam
        b = self.offsets if idx is None else self.offsets[idx]
        b = np.add.reduce(b, axis=-1, keepdims=True) / b.shape[-1]  # np.mean, as in ``mse``
        grad = self.mu * d + self.mu * b
        if not with_metrics:
            return grad
        if idx is None:
            return self._epoch_metrics(W, lam), grad
        # The minibatch objective: the mean of the per-sample objectives.
        return ((0.5 * self.mu * d**2 + self.mu * b * d)[:, 0], None), grad

    def oracle_variance(self, minibatch):
        """Exact E||g - grad f||^2 for sampling without replacement."""
        n, m = self.sample_count, minibatch
        var_b = float(np.mean(self.offsets**2))
        if m >= n:
            return 0.0
        correction = (n - m) / (n - 1) if n > 1 else 0.0
        return self.mu**2 * var_b * correction / m
