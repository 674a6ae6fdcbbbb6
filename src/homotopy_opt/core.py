"""Inner SGD solver, outer homotopy loop and homotopy-parameter schedules.

The optimizer minimizes a parametric family f(w, lambda) exposed through the
``HomotopyProblem`` interface: the inner loop is plain constant-step SGD on
f(., lambda), the outer loop increases lambda from 0 to 1 according to a
schedule whose increments sum to one, warm-starting each inner solve from the
previous approximate solution.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-12

# The minibatch stream contract recorded in every run's metadata; a replay
# under another contract would silently produce different traces.
SAMPLER = "floyd-block-v1"
# Index elements (steps x repeats x minibatch) drawn in one sampler call: a
# run draws the minibatches of B = max(1, SAMPLER_BLOCK_ELEMENTS // (R * M))
# steps at once, clipped to the stage. Not part of the contract: the indices
# do not depend on B. 128,000 int64 elements are 1 MB, the block of 64 steps
# of moons-logistic (R = 100, M = 20); sine-mlp (M = 5) gets 256 steps.
SAMPLER_BLOCK_ELEMENTS = 128_000
# Matrix elements (rows x samples) one block evaluation works on: a record,
# and every estimator in diagnostics, evaluates max(1, EPOCH_CHUNK_ELEMENTS
# // N) rows at a time (``in_row_chunks``). The per-sample temporaries of a
# whole block (sine-mlp: R x N x 10) spill out of cache and would set the
# peak memory; each row's arithmetic does not change.
EPOCH_CHUNK_ELEMENTS = 25_000
# Repeat-steps (repeats x steps of one arm) from which a run cuts an arm's
# repeats into one slice per usable CPU, each slice but the first in a
# forked worker (``harness._run_arm``). Not part of the contract: no output
# depends on the slice count. On a 2-CPU host a fork and its result pipe
# cost about 15 ms, more than half of synthetic-lq's default arm
# (100,000 repeat-steps) saves, so that arm and toy-erf's (40,000) run in
# one process; moons-logistic and sine-mlp arms at R = 100 and k >= 100
# (200,000 and more) are split.
FORK_REPEAT_STEPS = 150_000


def clamp_lambda(lam):
    """Snap an accumulated homotopy parameter onto [0, 1].

    Left-to-right summation of valid increments can overshoot the endpoints
    by a few ulps; anything further out than SUM_TOL is a real error and is
    left alone for the callers' range checks to reject.
    """
    if 1.0 < lam <= 1.0 + SUM_TOL:
        return 1.0
    if -SUM_TOL <= lam < 0.0:
        return 0.0
    return lam


class ConfigurationError(ValueError):
    """Invalid configuration, data or argument (e.g. non-binary labels, lambda outside [0, 1])."""


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v):
    # Finite as a float; Python compares an int with a float exactly, never overflowing.
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


class NonFiniteError(RuntimeError):
    """A repeat's gradient or iterate (``what``) became NaN/Inf at ``step``.

    The message is built from the fields, which are also its ``args``, so it pickles.
    """

    def __init__(self, what, step, repeat, homotopy_iteration=None, lam=None):
        super().__init__(what, step, repeat, homotopy_iteration, lam)
        self.what = what
        self.step = step
        self.repeat = repeat
        self.homotopy_iteration = homotopy_iteration
        self.lam = lam

    def __str__(self):
        where = f"repeat {self.repeat}"
        if self.homotopy_iteration is not None:
            where += f", homotopy iteration {self.homotopy_iteration}, lambda={self.lam}"
        return f"non-finite {self.what} at step {self.step} ({where})"


@dataclass
class SgdConfig:
    """Constant step-size SGD configuration.

    ``record_every`` controls how often (in steps) the trace sink is invoked;
    None disables recording even when a sink is supplied.
    """

    alpha: float
    steps: int
    minibatch: int
    record_every: int | None = None

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ConfigurationError(f"step size must be positive, got {self.alpha}")
        if self.steps < 1:
            raise ConfigurationError(f"step count must be >= 1, got {self.steps}")
        if self.minibatch < 1:
            raise ConfigurationError(f"minibatch size must be >= 1, got {self.minibatch}")
        if self.record_every is not None and self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1 when set")

    def warn_if_out_of_range(self, smoothness_estimate):
        """Warn unless alpha <= 1/L_tilde, the range the convergence analysis covers."""
        if not self.alpha <= 1.0 / smoothness_estimate:
            warnings.warn(
                f"step size {self.alpha} exceeds 1/L_tilde = {1.0 / smoothness_estimate:.6g}; "
                "convergence guarantees do not apply",
                stacklevel=2,
            )


@dataclass(frozen=True)
class Schedule:
    """Homotopy increments h(1..n) in (0, 1] whose lambda path (``lambdas``) ends at 1."""

    increments: np.ndarray

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        object.__setattr__(self, "increments", inc)
        if inc.ndim != 1 or inc.size == 0:
            raise ConfigurationError(f"increments must be a non-empty 1-D array, got shape {inc.shape}")
        if not np.all((inc > 0) & (inc <= 1)):  # false for a NaN increment too
            raise ConfigurationError("schedule increments must lie in (0, 1]")
        # The path the outer loop visits, not numpy's pairwise sum; its last point is its largest.
        last = float(self.lambdas()[-1])
        if abs(last - 1.0) > SUM_TOL:
            raise ConfigurationError(f"schedule increments summed left to right reach {last!r} "
                                     f"at n = {inc.size}, expected 1")

    @property
    def n(self):
        return self.increments.size

    def lambdas(self):
        """The lambda values the outer loop (``hsgd_run``) visits.

        The increments are summed left to right and each partial sum is
        snapped onto [0, 1] by ``clamp_lambda``.
        """
        out = np.empty(self.n)
        lam = 0.0
        for i, h in enumerate(self.increments):
            lam = clamp_lambda(lam + h)
            out[i] = lam
        return out


def make_schedule(kind, n, eta=None, explicit=None):
    """Build a homotopy schedule of the given kind.

    constant:    h(i) = 1/n.
    exponential: geometric weights e^(-eta*i) renormalized to sum 1.
    explicit:    positive entries, normalized to sum 1.
    """
    if n < 1:
        raise ConfigurationError(f"schedule length must be >= 1, got n={n}")
    if kind == "constant":
        return Schedule(np.full(n, 1.0 / n))
    if kind == "exponential":
        if eta is None or eta < 0:
            raise ConfigurationError("exponential schedule requires eta >= 0")
        # e^(-eta*i) / sum_j e^(-eta*j); cancelling e^(-eta) would change every schedule's bits
        weights = np.exp(-eta * np.arange(1, n + 1, dtype=float))
        # Checked before the division, which a zero last weight turns into 0/0 (all weights 0).
        if weights[-1] == 0.0 or weights[-1] / weights.sum() == 0.0:
            raise ConfigurationError(f"exponential schedule's last increment e^(-eta*n) / sum_j "
                                     f"e^(-eta*j) underflows to 0 at eta = {eta}, n = {n}")
        return Schedule(weights / weights.sum())
    if kind == "explicit":
        if explicit is None:
            raise ConfigurationError("explicit schedule requires the increment list")
        entries = np.asarray(explicit, dtype=float)
        if entries.shape != (n,):
            raise ConfigurationError(f"expected {n} explicit entries, got shape {entries.shape}")
        if np.any(entries <= 0):
            raise ConfigurationError("explicit schedule entries must be positive")
        return Schedule(entries / entries.sum())
    raise ConfigurationError(f"unknown schedule kind {kind!r}")


def _draw_minibatch(rng, sample_count, minibatch, steps):
    """The next ``steps`` minibatches of one generator, or of each of a sequence of R.

    Returns a (steps, minibatch) block of index rows for one generator and
    a (steps, R, minibatch) block for R, each row a uniform subset of
    range(sample_count). Floyd's algorithm (Bentley & Floyd, "A sample of
    brilliance", CACM 1987) on every row at once: column c draws t uniformly
    from [0, hi_c], with hi_c = N - M + c, and takes hi_c instead when t
    already occurs earlier in its row. Each generator makes one ``integers``
    call, which numpy fills element by element in C order, so a stream's rows
    do not depend on how its steps are cut into blocks nor on R. A full batch
    (M = N) draws nothing and returns None.
    """
    if minibatch == sample_count:
        return None
    hi = np.arange(sample_count - minibatch, sample_count)
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    # Column-major copy: column c of every row of every repeat is one
    # contiguous slab cols[c], compared with all earlier (already resolved)
    # columns at once and reduced over the leading axis.
    cols = np.empty((minibatch, steps, len(rngs)), dtype=np.int64)
    for r, g in enumerate(rngs):
        cols[:, :, r] = g.integers(0, hi + 1, size=(steps, minibatch)).T
    for c in range(1, minibatch):
        dup = (cols[:c] == cols[c]).any(axis=0)
        np.copyto(cols[c], hi[c], where=dup)
    # Back to row-major: a gather's result takes the layout of its index
    # array, and a family's reductions over it must see the same layout.
    block = np.ascontiguousarray(np.moveaxis(cols, 0, -1))
    return block[:, 0] if single else block


def in_row_chunks(problem, evaluate, W, lam, idx=None):
    """``evaluate(W, lam)``, or ``evaluate(W, lam, idx)``, a few rows of W at a time.

    ``evaluate`` is a batched method of ``problem`` (``objective``,
    ``gradient``, ``epoch_metrics``). W, and ``idx`` and an (R, 1) column
    ``lam`` alongside it, is cut into chunks of max(1, EPOCH_CHUNK_ELEMENTS
    // m) rows, m the samples a row reads (N, or idx.shape[1]). The chunk
    results are concatenated in row order, item by item when ``evaluate``
    returns a tuple (a None item stays None).
    """
    rows = max(1, EPOCH_CHUNK_ELEMENTS // (problem.sample_count if idx is None else idx.shape[1]))
    if len(W) <= rows:
        return evaluate(W, lam) if idx is None else evaluate(W, lam, idx)

    def chunk(c):
        lam_c = lam[c] if isinstance(lam, np.ndarray) else lam
        return evaluate(W[c], lam_c) if idx is None else evaluate(W[c], lam_c, idx[c])
    parts = [chunk(slice(i, i + rows)) for i in range(0, len(W), rows)]
    if isinstance(parts[0], tuple):
        return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))
    return np.concatenate(parts)


def _raise_if_nonfinite(grad, w, step, homotopy_iteration, lam):
    """Raise NonFiniteError naming the first repeat whose gradient or iterate has a NaN/Inf.

    ``grad`` and ``w`` are the step's gradient and the iterate it produced,
    one repeat per row (a 1-D pair is one repeat).
    """
    for what, block in (("gradient", grad), ("iterate", w)):
        bad = np.flatnonzero(~np.isfinite(np.atleast_2d(block)).all(axis=1))
        if bad.size:
            raise NonFiniteError(what, step, int(bad[0]), homotopy_iteration, lam)


def sgd_run(w0, cfg, problem, lam, rng, sink=None, step_offset=0, homotopy_iteration=None):
    """Run exactly cfg.steps iterates of w <- w - alpha * g(w, xi, lambda).

    The SGD engine. ``w0`` is one start point of shape (d,) with its
    generator ``rng``, or an (R, d) block of R repeats with a sequence of R
    generators, all stepped in lockstep. Every B steps (see
    SAMPLER_BLOCK_ELEMENTS), each repeat draws the next block of minibatches
    (cfg.minibatch distinct sample indices per step) from its own stream, in
    repeat order, so a repeat's trajectory does not depend on R; a full
    batch passes ``idx=None`` and draws nothing. A block goes through the batched oracle
    (``problem.gradient``, ``epoch_metrics`` in row chunks); one point through the
    single-point one (``minibatch_value_and_gradient``, ``full_objective``),
    one call per step and per record, as a sequential solver makes them.

    ``sink``, when present, is called as sink(global_step, lam, w, f) at
    multiples of cfg.record_every. f is the full objective of a point; for
    a block it is ``problem.epoch_metrics(w, lam)``, each repeat's objective
    and second metric. Every step checks the whole gradient and iterate
    block and raises NonFiniteError naming the step and the repeat on a
    NaN/Inf; ``cli.main`` turns numpy's overflow warnings off around it.
    """
    single = isinstance(rng, np.random.Generator)
    if not single:
        rng = list(rng)
    w0 = np.asarray(w0, dtype=float)
    expected = (problem.dimension,) if single else (len(rng), problem.dimension)
    if w0.shape != expected:
        raise ConfigurationError(
            f"initial point has shape {w0.shape}, expected {expected} "
            f"for {'one generator' if single else f'{len(rng)} generators'}"
        )
    if cfg.minibatch > problem.sample_count:
        raise ConfigurationError(
            f"minibatch size {cfg.minibatch} exceeds sample count {problem.sample_count}"
        )
    if single:
        def gradient(w, lam, idx):
            return problem.minibatch_value_and_gradient(w, lam, idx)[1]

        metrics = problem.full_objective
    else:
        gradient = problem.gradient

        def metrics(W, lam):
            return in_row_chunks(problem, problem.epoch_metrics, W, lam)
    repeats = 1 if single else len(rng)
    block_steps = max(1, SAMPLER_BLOCK_ELEMENTS // (repeats * cfg.minibatch))
    w = w0
    alpha = cfg.alpha
    record = sink is not None and cfg.record_every is not None
    step = step_offset
    for start in range(0, cfg.steps, block_steps):
        steps = min(block_steps, cfg.steps - start)
        block = _draw_minibatch(rng, problem.sample_count, cfg.minibatch, steps)
        for idx in [None] * steps if block is None else block:
            step += 1
            grad = gradient(w, lam, idx)
            w = w - alpha * grad
            # A NaN/Inf in the gradient reaches the iterate, so one screen of
            # the iterate covers both. A finite sum certifies a finite block,
            # so the row scan only runs on suspect steps; a sum never calls
            # threaded BLAS.
            if not math.isfinite(w.sum()):
                _raise_if_nonfinite(grad, w, step, homotopy_iteration, lam)
            if record and step % cfg.record_every == 0:
                sink(step, lam, w, metrics(w, lam))
    return w


def hsgd_run(w0, schedule, cfg, problem, rng, sink=None, stage_hook=None):
    """Outer homotopy loop: lambda_0 = 0, lambda_i += h(i), warm-started SGD.

    Returns w_n, the approximate solution of the lambda = 1 problem. ``w0``
    and ``rng`` are one point and its generator, or a block and one
    generator per repeat, as for sgd_run; each continuing stream feeds all
    inner solves of its repeat. ``stage_hook(i, lam, w)``, when present, is
    called with the iterate(s) at the end of homotopy iteration i.
    """
    w = w0
    step_offset = 0
    for i, lam in enumerate(schedule.lambdas().tolist(), start=1):
        w = sgd_run(
            w, cfg, problem, lam, rng,
            sink=sink, step_offset=step_offset, homotopy_iteration=i,
        )
        step_offset += cfg.steps
        if stage_hook is not None:
            stage_hook(i, lam, w)
    return w


def stream_seed(master_seed, repeat_index):
    """Documented per-repeat sub-seeding rule: master_seed XOR repeat_index."""
    return int(master_seed) ^ int(repeat_index)


def make_rng(seed):
    """The fixed PRNG used everywhere: PCG64, normals via numpy's ziggurat."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def steps_per_epoch(sample_count, minibatch):
    """One epoch = ceil(N/M) minibatch steps."""
    return math.ceil(sample_count / minibatch)
