"""Inner SGD solver, outer homotopy loop and homotopy-parameter schedules.

The optimizer minimizes a parametric family f(w, lambda) exposed through the
``HomotopyProblem`` interface: the inner loop is plain constant-step SGD on
f(., lambda), the outer loop steps lambda from 0 to 1 along the lambda path
that a ``Schedule`` computes once from its increments, warm-starting each
inner solve from the previous approximate solution. ``fork_rows`` runs a
block of rows in forked slices.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import sys
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-12

# The minibatch stream contract recorded in every run's metadata; a replay
# under another contract would silently produce different traces.
SAMPLER = "floyd-block-v1"
# Index elements (steps x rows x minibatch) drawn in one sampler call: a
# run draws the minibatches of B = max(1, SAMPLER_BLOCK_ELEMENTS // (R * M))
# steps at once, R the rows of the block, clipped to the stage. Not part of
# the contract: the indices do not depend on B. 256,000 int64 elements are
# 2 MB, the block of 128 steps of moons-logistic (M = 20) at R = 100, a
# slice of 50 repeats of both arms; sine-mlp (M = 5) gets 512 steps.
SAMPLER_BLOCK_ELEMENTS = 256_000
# Sample-gradient evaluations (rows x steps x samples per step, the unit of
# the grad_evals column) from which ``_slice_count`` cuts a block of rows, a
# run's repeats over the steps of all its arms at M samples or a
# multistart's restarts at N, into one slice per usable CPU. Not part of the
# contract: no output depends on the slice count. A fork and its pipe cost
# about 15 ms on 2 CPUs, so toy-erf's one-repeat run (80,000) stays in
# process; synthetic-lq's default run (1,600,000), both benchmark runs at
# k = 100 and the default moons-logistic and sine-mlp runs and multistarts
# fork.
FORK_GRAD_EVALS = 1_000_000


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

    ``record_every`` is how often (in steps) a run calls its trace sink; a
    run records only when it is given a sink.
    """

    alpha: float
    steps: int
    minibatch: int
    record_every: int = 1

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ConfigurationError(f"step size must be positive, got {self.alpha}")
        if self.steps < 1:
            raise ConfigurationError(f"step count must be >= 1, got {self.steps}")
        if self.minibatch < 1:
            raise ConfigurationError(f"minibatch size must be >= 1, got {self.minibatch}")
        if self.record_every < 1:
            raise ConfigurationError(f"record_every must be >= 1, got {self.record_every}")

    def warn_if_out_of_range(self, smoothness_estimate):
        """Warn unless alpha <= 1/L_tilde, the range the convergence analysis covers."""
        if not self.alpha <= 1.0 / smoothness_estimate:
            warnings.warn(
                f"step size {self.alpha} exceeds 1/L_tilde = {1.0 / smoothness_estimate:.6g}; "
                "convergence guarantees do not apply",
                stacklevel=2,
            )


@dataclass(frozen=True, eq=False)  # identity: arrays have no truth value to compare by
class Schedule:
    """Homotopy increments h(1..n) in (0, 1] whose lambda path ``lambdas`` ends at 1.

    Both arrays are read-only copies, and the path is computed once, here.
    It is the path the outer loop visits: the increments summed left to
    right, the first partial sum in (1, 1 + SUM_TOL] snapped to 1, and each
    later 1 + h snapped again while it stays within SUM_TOL of 1; from the
    first 1 + h beyond that the sum runs on unsnapped. Its last point must
    lie within SUM_TOL of 1.
    """

    increments: np.ndarray
    lambdas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float)
        inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)
        if inc.ndim != 1 or inc.size == 0:
            raise ConfigurationError(f"increments must be a non-empty 1-D array, got shape {inc.shape}")
        if not np.all((inc > 0) & (inc <= 1)):  # false for a NaN increment too
            raise ConfigurationError("schedule increments must lie in (0, 1]")
        # numpy's 1-D accumulate adds left to right, as the outer loop does.
        path = np.cumsum(inc)
        first = int(np.argmax(path > 1.0))
        if 1.0 < path[first] <= 1.0 + SUM_TOL:
            path[first:] = 1.0
            beyond = 1.0 + inc[first + 1:] > 1.0 + SUM_TOL
            if beyond.any():
                restart = first + 1 + int(beyond.argmax())
                path[restart:] = np.cumsum(np.concatenate([[1.0], inc[restart:]]))[1:]
        path.flags.writeable = False
        object.__setattr__(self, "lambdas", path)
        # The path never falls, so its last point is its largest.
        last = float(path[-1])
        if abs(last - 1.0) > SUM_TOL:
            raise ConfigurationError(f"schedule increments summed left to right reach {last!r} "
                                     f"at n = {inc.size}, expected 1")

    @property
    def n(self):
        return self.increments.size


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
        entries = np.asarray(explicit, dtype=float)  # None: a 0-d NaN, which fails the shape test
        if entries.shape != (n,):
            raise ConfigurationError(f"explicit schedule needs n = {n} entries, got {explicit!r}")
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
    already occurs earlier in its row. The draw is defined as each
    generator's ``integers(0, hi + 1, size=(steps, M))``, which numpy fills
    element by element in C order, so a stream's rows do not depend on how
    its steps are cut into blocks nor on R. A full batch (M = N) draws
    nothing and returns None.

    For N <= 2^32 numpy makes each bounded value from one 32-bit word x by
    Lemire's method ("Fast random integer generation in an interval", ACM
    TOMACS 2019): with span = hi_c + 1 and m = x * span, the value is
    m >> 32, unless m mod 2^32 < (2^32 - span) mod span, where it rejects x
    and takes another word. So each generator draws its block's words in one
    scalar-bound call, and the whole block is reduced at once. A generator
    with a rejected word (p < 2.4e-7 per value at N = 1000) gets its state
    back and makes the defining call; so does every generator when N > 2^32.
    Both give the same indices and leave the same generator state.
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
    redraw = range(len(rngs))
    if sample_count <= 2**32:
        states = [g.bit_generator.state for g in rngs]
        words = np.empty(cols.shape, dtype=np.uint64)
        for r, g in enumerate(rngs):
            words[:, :, r] = g.integers(0, 2**32, size=(steps, minibatch), dtype=np.uint64).T
        span = (hi + 1).astype(np.uint64)[:, None, None]
        words *= span
        np.right_shift(words, 32, out=cols, casting="unsafe")
        words &= 0xFFFFFFFF
        redraw = np.flatnonzero((words < (2**32 - span) % span).any(axis=(0, 1)))
        del words  # freed before the collision pass and the row-major copy, which set the peak
        for r in redraw:
            rngs[r].bit_generator.state = states[r]
    for r in redraw:
        cols[:, :, r] = rngs[r].integers(0, hi + 1, size=(steps, minibatch)).T
    for c in range(1, minibatch):
        dup = (cols[:c] == cols[c]).any(axis=0)
        np.copyto(cols[c], hi[c], where=dup)
    # Back to row-major: a gather's result takes the layout of its index
    # array, and a family's reductions over it must see the same layout.
    block = np.ascontiguousarray(np.moveaxis(cols, 0, -1))
    return block[:, 0] if single else block


def _raise_if_nonfinite(grad, w, step, homotopy_iteration, lam):
    """Raise NonFiniteError naming the first repeat whose gradient or iterate has a NaN/Inf.

    ``grad`` and ``w`` are the step's gradient and the iterate it produced,
    one repeat per row (a 1-D pair is one repeat).
    """
    for what, block in (("gradient", grad), ("iterate", w)):
        bad = np.flatnonzero(~np.isfinite(np.atleast_2d(block)).all(axis=1))
        if bad.size:
            raise NonFiniteError(what, step, int(bad[0]), homotopy_iteration, lam)


def _block_error(failures):
    """The NonFiniteError one block of all rows raises, from (first row, error) per failing slice.

    That is the error ``_raise_if_nonfinite`` meets first: the smallest step,
    a gradient before an iterate, then the smallest row.
    """
    errors = [NonFiniteError(e.what, e.step, first + e.repeat, e.homotopy_iteration, e.lam)
              for first, e in failures]
    return min(errors, key=lambda e: (e.step, e.what != "gradient", e.repeat))


def sgd_run(w0, cfg, problem, lam, rng, sink=None, step_offset=0, homotopy_iteration=None):
    """Run exactly cfg.steps iterates of w <- w - alpha * g(w, xi, lambda).

    The SGD engine. ``w0`` is one start point of shape (d,) with its
    generator ``rng``, or an (R, d) block of R repeats with a sequence of R
    generators, all stepped in lockstep; ``lam`` is a float, or for a block
    an (R, 1) column giving each row its own lambda. Every B steps (see
    SAMPLER_BLOCK_ELEMENTS), each repeat draws the next block of minibatches
    (cfg.minibatch distinct sample indices per step) from its own stream, in
    repeat order, so a repeat's trajectory does not depend on R; a full
    batch passes ``idx=None`` and draws nothing. A block goes through the batched oracle
    (``problem.gradient``, ``epoch_metrics``); one point through the
    single-point one (``minibatch_value_and_gradient``, ``full_objective``),
    one call per step and per record, as a sequential solver makes them.

    ``sink``, when present, is called as sink(global_step, lam, w, f) at
    multiples of cfg.record_every. f is the full objective of a point; for
    a block it is ``problem.epoch_metrics(w, lam)``, each repeat's objective
    and second metric. On a full-batch block, a record before the call's
    last step comes from the next step's ``gradient(w, lam,
    with_metrics=True)``, the same rows from the pass that step makes
    anyway, and the sink gets it before that step's update; the call's
    last record is evaluated directly. Every step checks the whole gradient
    and iterate block and raises NonFiniteError naming the step and the
    repeat on a NaN/Inf; ``cli.main`` turns numpy's overflow warnings off
    around it.
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
        gradient, metrics = problem.gradient, problem.epoch_metrics
    repeats = 1 if single else len(rng)
    block_steps = max(1, SAMPLER_BLOCK_ELEMENTS // (repeats * cfg.minibatch))
    w = w0
    alpha = cfg.alpha
    # A full-batch block defers a record before the call's last step: the
    # next gradient pass, at the same point and lambda, also gives it.
    defer = not single and cfg.minibatch == problem.sample_count
    last = step_offset + cfg.steps
    pending = None
    step = step_offset
    for start in range(0, cfg.steps, block_steps):
        steps = min(block_steps, cfg.steps - start)
        block = _draw_minibatch(rng, problem.sample_count, cfg.minibatch, steps)
        for idx in [None] * steps if block is None else block:
            step += 1
            if pending is None:
                grad = gradient(w, lam, idx)
            else:
                f, grad = gradient(w, lam, with_metrics=True)
                sink(pending, lam, w, f)
                pending = None
            w = w - alpha * grad
            # A NaN/Inf in the gradient reaches the iterate, so one screen of
            # the iterate covers both. A finite sum certifies a finite block,
            # so the row scan only runs on suspect steps; a sum never calls
            # threaded BLAS.
            if not math.isfinite(w.sum()):
                _raise_if_nonfinite(grad, w, step, homotopy_iteration, lam)
            if sink is not None and step % cfg.record_every == 0:
                if defer and step < last:
                    pending = step
                else:
                    sink(step, lam, w, metrics(w, lam))
    return w


def hsgd_run(w0, schedule, cfg, problem, rng, sink=None):
    """Outer homotopy loop: lambda_0 = 0, lambda_i += h(i), warm-started SGD.

    Returns w_n, the approximate solution of the lambda = 1 problem. ``w0``
    and ``rng`` are one point and its generator, or a block and one
    generator per repeat, as for sgd_run; each continuing stream feeds all
    inner solves of its repeat.
    """
    w = w0
    for i, lam in enumerate(schedule.lambdas.tolist(), start=1):
        w = sgd_run(
            w, cfg, problem, lam, rng,
            sink=sink, step_offset=(i - 1) * cfg.steps, homotopy_iteration=i,
        )
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


def _slice_count(rows, steps, samples):
    """How many slices a block of ``rows`` x ``steps`` steps of ``samples`` each is cut into.

    One per usable CPU, but never more than the rows; a block below
    FORK_GRAD_EVALS sample-gradient evaluations runs in this process, where
    a fork would cost more than it saves.
    """
    if rows * steps * samples < FORK_GRAD_EVALS or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), rows)


def fork_rows(run, rows, steps, samples):
    """``run(part)`` of each contiguous slice ``part`` of ``range(rows)``, in row order.

    ``_slice_count`` sets the slice count. Slice 0 runs here and each other
    in a forked ``_part_worker``; no worker outlives the call, and a caller
    reads only what ``run`` returns, never what a slice leaves here. An error
    in this process's slice is raised at once; else the first worker error in
    row order is raised, and a worker that exits without a result raises a
    RuntimeError naming its first row.
    """
    parts = np.array_split(np.arange(rows), _slice_count(rows, steps, samples))
    fork = multiprocessing.get_context("fork") if len(parts) > 1 else None
    workers = []
    try:
        for part in parts[1:]:
            receive, send = fork.Pipe(duplex=False)
            worker = fork.Process(target=_part_worker, args=(send, run, part), daemon=True)
            worker.start()
            send.close()
            workers.append((int(part[0]), receive, worker))
        outcomes = [(True, run(parts[0]))]
        for first, receive, worker in workers:
            try:
                outcomes.append(receive.recv())
            except EOFError:
                outcomes.append((False, RuntimeError(
                    f"the worker for repeats from {first} exited without a result")))
            worker.join()
    finally:  # reached early when this process's own slice raises
        for _, receive, worker in workers:
            if worker.exitcode is None:
                worker.terminate()
                worker.join()
            receive.close()
    for ok, result in outcomes:
        if not ok:
            raise result
    return [result for _, result in outcomes]


def _part_worker(send, run, part):
    """Forked worker: run one part, send (ok, result or exception) and exit.

    ``os._exit`` ends the worker without the interpreter's shutdown, so it
    never flushes the copy of the parent's stdout it inherited.
    """
    try:
        try:
            outcome = (True, run(part))
        except Exception as exc:  # raised again in the parent, which never sees this traceback
            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             f"raised in a forked worker:\n{traceback.format_exc()}"]
            outcome = (False, exc)
        send.send(outcome)
    finally:
        os._exit(0)
