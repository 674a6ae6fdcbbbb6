"""Empirical estimators for the landscape constants and gradient checking.

These back the bound calculators with measured quantities: smoothness L_hat,
the pointwise PL modulus mu_hat(w), the oracle variance sigma2_hat, the
lambda-Lipschitz witness delta_hat, and grid / multi-start estimates of the
optimal value f*(lambda). The finite-difference checker guards the
hand-derived gradients of the problem families.

An estimator draws its random points in a fixed stream order, each row in
place, then evaluates them as one block through the batched
``problem.gradient`` and ``problem.objective``, which take a few rows at a
time; each row's value is the one a single-point evaluation gives. The L
estimate redraws a zero direction only by rerunning its loop from the saved
generator state, and sigma^2 at a full batch evaluates no draws (each is the
full gradient). Where the rows need different lambdas (the f* refine of a
lambda table, the delta witness), lambda is an (R, 1) column. No estimator
evaluates point by point: the norms, ratios and maxima are block arithmetic
over the evaluated rows, in the bits of the per-point formulas they replace
(``_row_dots``). The multistart f* descends its restarts in the slices
``core.fork_rows`` cuts, as a run steps an arm's repeats; no value depends on
the slice count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core
from .core import ConfigurationError, _draw_minibatch, make_rng


LEAST_NORMAL = np.finfo(float).tiny
# A norm below this has a sum of squares under LEAST_NORMAL, which loses bits or reads 0.
SQUARES_UNDERFLOW = np.sqrt(LEAST_NORMAL)
PL_GAP_FLOOR = 1e-12  # at a gap f - f* at or below it, the PL modulus is undefined


class EstimationError(RuntimeError):
    """An estimator could not produce a value (degenerate sampling, zero gap)."""


def _row_dots(A):
    """Each row's dot product with itself, bit for bit ``row.dot(row)``, of a C-contiguous block.

    One stacked matmul: numpy hands each (1, d) @ (d, 1) product to the
    dot kernel of ``ndarray.dot``, the sum of squares ``np.linalg.norm``
    takes; ``einsum`` and ``sum`` add in other orders.
    """
    return (A[:, None, :] @ A[:, :, None])[:, 0, 0]


def _max_sample(values, what):
    """max(0.0, *values) as Python evaluates it (no NaN wins, none gives 0.0); all NaN raises."""
    finite = values[~np.isnan(values)]
    if values.size and not finite.size:
        raise EstimationError(f"every sampled {what} is NaN")
    return max(0.0, float(np.max(finite))) if finite.size else 0.0


def estimate_L(problem, lam, num_pairs, radius, rng):
    """Max sampled gradient-difference ratio: a lower bound L_tilde on L.

    The ratio max is taken over pairs drawn inside the radius ball about the
    origin; growing num_pairs with the same stream extends the sample, so
    the estimate is monotone in num_pairs.
    """
    if num_pairs < 1:
        raise ConfigurationError("need at least one pair")
    if radius <= 0:
        raise ConfigurationError("radius must be positive")
    dim = problem.dimension
    if 2 * num_pairs * dim > np.iinfo(np.intp).max // 8:  # numpy would refuse the block
        raise EstimationError(f"{num_pairs} pairs of {dim} values exceed numpy's index range")
    # Pair i is rows 2i and 2i + 1; a coincident pair is evaluated but not
    # used. A zero direction (a sum of squares reads 0; min, as all() buffers a
    # cast that raises the peak memory) reruns the loop from the saved state,
    # drawing each direction again while its sum of squares is 0.
    W, scale = np.empty((2 * num_pairs, dim)), np.empty(2 * num_pairs)
    state, exponent = rng.bit_generator.state, 1.0 / dim
    for redraw in (False, True):
        for i, row in enumerate(W):
            rng.standard_normal(out=row)
            while redraw and row.dot(row) == 0.0:
                rng.standard_normal(out=row)
            scale[i] = radius * rng.random() ** exponent
        sq = _row_dots(W)
        if sq.min() > 0.0:
            break
        rng.bit_generator.state = state
    # scale * direction / ||direction||, row by row.
    W *= scale[:, None]
    W /= np.sqrt(sq)[:, None]
    gaps = np.sqrt(_row_dots(W[0::2] - W[1::2]))
    if np.max(gaps) < 1e-14:
        raise EstimationError("all sampled pairs were coincident")
    grads = problem.gradient(W, lam)
    used = gaps >= 1e-14
    ratios = _norms(grads[0::2][used] - grads[1::2][used]) / gaps[used]
    return _max_sample(ratios, "gradient-difference ratio")


def _norms(V):
    """Each row's Euclidean norm, taken of row / max|row| where its sum of squares underflows.

    A row of subnormal entries carries too few bits for a ratio and keeps its plain norm.
    """
    norms = np.sqrt(_row_dots(V))
    for r in np.flatnonzero(~(norms >= SQUARES_UNDERFLOW)):
        scale = np.max(np.abs(V[r]))
        if scale >= LEAST_NORMAL:
            norms[r] = scale * np.linalg.norm(V[r] / scale)
    return norms


def estimate_mu(problem, lam, w, fstar_lambda):
    """Pointwise PL modulus ||grad f||^2 / (2 (f - f*)); undefined at a gap <= PL_GAP_FLOOR."""
    mu, gap = pl_moduli(problem, lam, np.asarray(w, dtype=float).reshape(1, -1), fstar_lambda)
    if gap[0] <= PL_GAP_FLOOR:
        raise EstimationError(f"objective gap {gap[0]} is below tolerance; mu is undefined at the optimum")
    return float(mu[0])


def pl_moduli(problem, lam, W, fstar_lambda):
    """``estimate_mu`` at each row of W, and each row's gap f - f*; mu is NaN at gap <= PL_GAP_FLOOR."""
    gaps = problem.objective(W, lam) - fstar_lambda
    grads = problem.gradient(W, lam)
    mu = np.full(len(W), np.nan)
    rows = gaps > PL_GAP_FLOOR
    mu[rows] = _row_dots(grads)[rows] / (2.0 * gaps[rows])
    return mu, gaps


def estimate_sigma2(problem, lam, w_samples, minibatch, draws, rng):
    """Max over w samples of the Monte-Carlo mean of ||g - grad f||^2."""
    if draws < 2:
        raise ConfigurationError("need at least two draws")
    if not 1 <= minibatch <= problem.sample_count:
        raise ConfigurationError(f"minibatch must be in [1, {problem.sample_count}], got {minibatch}")
    if not len(w_samples):
        raise ConfigurationError("need at least one w sample")
    W = np.array(w_samples, dtype=float).reshape(len(w_samples), problem.dimension)
    full = problem.gradient(W, lam)[:, None]
    # The draws of each w sample in turn, one row per draw (the sampler's rows do
    # not depend on how they are cut into calls). A full batch (idx None) evaluates
    # none: each draw is full itself, and full - full is 0 (NaN where not finite).
    idx = _draw_minibatch(rng, problem.sample_count, minibatch, len(W) * draws)
    diff = full if idx is None else problem.gradient(np.repeat(W, draws, axis=0), lam, idx)
    diff = diff.reshape(len(W), -1, problem.dimension)
    diff -= full
    sq = np.einsum("rdk,rdk->rd", diff, diff)
    return _max_sample(np.array([sum(row.tolist()) / draws for row in sq]), "oracle variance")


@dataclass
class FstarEstimate:
    value: float
    minimizer: np.ndarray
    upper_bound_only: bool = False


def _grid_fstar(problem, lams, spec):
    """The grid f* at each lambda of ``lams``: the first grid minimum, then a bisection refine.

    One pass over the grid, in row chunks: ``problem.objectives`` gives a
    chunk's values at every lambda (a label-interpolation family from one
    model-output pass). Each chunk keeps only its first least value and
    cell per lambda, and the first least of the chunk winners is the cell
    ``np.argmin`` over the whole grid picks, a tie or a NaN (the first NaN
    wins) included.
    """
    lo, hi, step = spec["lo"], spec["hi"], spec["step"]
    grid = np.arange(lo, hi + step / 2, step)
    if grid.size == 0:
        raise ConfigurationError("empty search grid")
    cols = np.arange(len(lams))

    def chunk_winners(W, _):
        vals = problem.objectives(W, lams)
        j = np.argmin(vals, axis=1)
        return vals[cols, j][None], W[j, 0][None]
    vals, ws = problem.in_row_chunks(chunk_winners, grid[:, None], None)
    c = np.argmin(vals, axis=0)
    return _bisect_refine(problem, lams, vals[c, cols].tolist(), ws[c, cols].tolist(), step)


def _bisect_refine(problem, lams, best_vals, best_ws, step):
    """Refine each lambda's grid minimum by bisection on the gradient sign inside its bracketing cell.

    The minimum w of lambda brackets [w - step, w + step] when the gradient
    is negative at the left end and positive at the right; each bracket is
    halved 60 times toward the sign change, and the midpoint replaces the
    grid value where its objective is lower. All brackets move in lockstep:
    each halving is one gradient block, lambda as a column. The loop ends
    early once every midpoint equals an end of its bracket: from there a
    bracket stays, or shrinks to (m, m), and its midpoint stays m.
    """
    lam = np.array(lams, dtype=float)[:, None]
    a, b = np.array(best_ws) - step, np.array(best_ws) + step
    g = problem.gradient(np.concatenate([a, b])[:, None], np.concatenate([lam, lam]))[:, 0]
    rows = np.flatnonzero((g[:len(a)] < 0) & (0 < g[len(a):]))
    if rows.size:
        a, b, lam = a[rows], b[rows], lam[rows]
        for _ in range(60):
            m = 0.5 * (a + b)
            if not np.any((m != a) & (m != b)):
                break
            left = problem.gradient(m[:, None], lam)[:, 0] < 0
            a, b = np.where(left, m, a), np.where(left, b, m)
        w_ref = 0.5 * (a + b)
        v_ref = problem.objective(w_ref[:, None], lam)
        for r, w, v in zip(rows, w_ref.tolist(), v_ref.tolist()):
            if v < best_vals[r]:
                best_vals[r], best_ws[r] = v, w
    return [FstarEstimate(v, np.array([w])) for v, w in zip(best_vals, best_ws)]


def _multistart_fstar(problem, lam, spec):
    """The first least objective over ``restarts`` full-batch descents from init_center + N(0, I).

    Each slice of ``core.fork_rows`` descends as one block, which a restart
    leaves at its first non-finite iterate. A row's descent does not depend
    on the rows beside it, so the joined rows do not depend on the slice count.
    """
    restarts, steps, alpha, seed = spec["restarts"], spec["steps"], spec["alpha"], spec["seed"]
    if restarts < 1:
        raise ConfigurationError("need at least one restart")
    rng = make_rng(seed)
    center = spec.get("init_center")
    center = np.zeros(problem.dimension) if center is None else np.asarray(center, float)
    W = center + rng.standard_normal((restarts, problem.dimension))

    def descend(part):
        Wp = W[part]
        for _ in range(steps):
            Wp = Wp - alpha * problem.gradient(Wp, lam)
            # A finite sum certifies a finite block, as in the engine.
            if not math.isfinite(Wp.sum()):
                Wp = Wp[np.isfinite(Wp).all(axis=1)]
                if not len(Wp):
                    break
        return Wp

    W = np.concatenate(core.fork_rows(descend, restarts, steps, problem.sample_count))
    best_val, best_w = np.inf, None
    for w, val in zip(W, problem.objective(W, lam)):
        if val < best_val:
            best_val, best_w = float(val), w
    if best_w is None:
        raise EstimationError("every descent restart diverged")
    return FstarEstimate(best_val, best_w, upper_bound_only=True)


def estimate_fstar(problem, lam, search_spec):
    """Estimate f*(lambda).

    search_spec kinds, every key required but init_center (default: the origin):
      {"kind": "grid", "lo": -10, "hi": 10, "step": 1e-2}  (1-D problems)
      {"kind": "multistart", "restarts": 10, "steps": 1500, "alpha": 0.1,
       "seed": 0[, "init_center"]}                          (upper bound only)
    A grid search also takes a sequence of lambdas, and returns their
    estimates as a list, from one pass over the grid.
    """
    kind = search_spec.get("kind")
    if kind == "grid":
        if problem.dimension != 1:
            raise ConfigurationError("grid search requires a 1-D problem")
        estimates = _grid_fstar(problem, np.atleast_1d(lam).tolist(), search_spec)
        return estimates if np.ndim(lam) else estimates[0]
    if kind == "multistart":
        return _multistart_fstar(problem, lam, search_spec)
    raise ConfigurationError(f"unknown search kind {kind!r}")


@dataclass
class GradientCheckReport:
    coords: list
    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray

    @property
    def max_rel_error(self):
        return float(np.max(self.rel_errors)) if self.rel_errors.size else 0.0


def check_gradient(problem, lam, w, coords=None, fd_step=1e-6):
    """Central-difference check of the analytic gradient.

    Relative error uses the denominator max(1, |analytic|) per coordinate.
    """
    if fd_step <= 0:
        raise ConfigurationError("fd_step must be positive")
    w = np.asarray(w, dtype=float)
    coords = list(range(problem.dimension)) if coords is None else list(coords)
    grad = problem.full_gradient(w, lam)
    # The +h points, then the -h points, as one block.
    k = len(coords)
    W = np.tile(w, (2 * k, 1))
    W[np.arange(k), coords] += fd_step
    W[np.arange(k, 2 * k), coords] -= fd_step
    vals = problem.objective(W, lam)
    numeric = (vals[:k] - vals[k:]) / (2 * fd_step)
    analytic = grad[coords]
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return GradientCheckReport(coords, analytic, numeric, rel)


def estimate_delta(problem, num_probes, rng):
    """Lambda-Lipschitz witness: max |f(w, l1) - f(w, l2)| / |l1 - l2| over probes w ~ N(0, 9 I)."""
    if num_probes < 1:
        raise ConfigurationError("need at least one probe")
    # Each probe draws w in place, then l1, then l2: one probe at a time.
    W = np.empty((num_probes, problem.dimension))
    lams = np.empty((num_probes, 2))
    for w, pair in zip(W, lams):
        rng.standard_normal(out=w)
        pair[:] = rng.random(), rng.random()
    W *= 3.0
    sep = np.abs(lams[:, 0] - lams[:, 1])
    used = sep >= 1e-9
    W, lam1, lam2 = W[used], lams[used, :1], lams[used, 1:]
    diff = np.abs(problem.objective(W, lam1) - problem.objective(W, lam2))
    return _max_sample(diff / sep[used], "objective-difference ratio")


@dataclass
class PlProbeResult:
    ratio: float
    mean_sq_grad_norm: float
    mean_gap: float
    draws: int


def expected_pl_probe(problem, lam, draws, fstar_lambda, rng):
    """Monte-Carlo mu_tilde = E||grad f||^2 / (2 (E f - f*)) over w ~ N(0, I).

    A positive stable ratio is evidence for the expected-PL property under
    that law, not under the algorithm's iterate law. A mean gap that is not
    positive (NaN included), or a result that is not finite, raises
    EstimationError.
    """
    if draws < 100:
        raise ConfigurationError("need at least 100 draws")
    W = rng.standard_normal((draws, problem.dimension))
    sq_grads = _row_dots(problem.gradient(W, lam))
    vals = problem.objective(W, lam)
    mean_gap = float(np.mean(vals) - fstar_lambda)
    if not mean_gap > 0:  # NaN included
        raise EstimationError(f"mean objective gap {mean_gap} is not positive")
    mean_sq = float(np.mean(sq_grads))
    ratio = mean_sq / (2.0 * mean_gap)
    if not np.isfinite([ratio, mean_sq, mean_gap]).all():
        raise EstimationError(f"ratio {ratio} = {mean_sq} / (2 * {mean_gap}) is not finite")
    return PlProbeResult(ratio, mean_sq, mean_gap, draws)


@dataclass
class LandscapeEstimates:
    """Measured landscape constants for one (problem, lambda)."""

    L_hat: float | None = None
    sigma2_hat: float | None = None
    delta_hat: float | None = None
    fstar: float | None = None
    fstar_upper_bound_only: bool = False
    mu_grid: np.ndarray | None = None
    mu_values: np.ndarray | None = None
    pl_probe: PlProbeResult | None = None
    errors: dict = field(default_factory=dict)

    def to_text(self):
        """Flat key-value block consumed by the CLI report."""
        lines = []
        for key in ("L_hat", "sigma2_hat", "delta_hat", "fstar"):
            val = getattr(self, key)
            if val is not None:
                lines.append(f"{key} = {val:.12g}")
        if self.fstar is not None:
            lines.append(f"fstar_upper_bound_only = {str(self.fstar_upper_bound_only).lower()}")
        if self.pl_probe is not None:
            lines.append(f"expected_pl_ratio = {self.pl_probe.ratio:.12g}")
            lines.append(f"expected_pl_mean_sq_grad = {self.pl_probe.mean_sq_grad_norm:.12g}")
            lines.append(f"expected_pl_mean_gap = {self.pl_probe.mean_gap:.12g}")
        for key, msg in self.errors.items():
            lines.append(f"error.{key} = {msg}")
        return "\n".join(lines) + "\n"
