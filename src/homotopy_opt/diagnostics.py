"""Empirical estimators for the landscape constants and gradient checking.

These back the bound calculators with measured quantities: smoothness L_hat,
the pointwise PL modulus mu_hat(w), the oracle variance sigma2_hat, the
lambda-Lipschitz witness delta_hat, and grid / multi-start estimates of the
optimal value f*(lambda). The finite-difference checker guards the
hand-derived gradients of the problem families.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ConfigurationError, _draw_minibatch, make_rng


class EstimationError(RuntimeError):
    """An estimator could not produce a value (degenerate sampling, zero gap)."""


def _sample_in_ball(rng, dim, center, radius):
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    while norm < 1e-300:
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
    return center + radius * rng.random() ** (1.0 / dim) * direction / norm


def estimate_L(problem, lam, num_pairs, radius, rng, center=None):
    """Max sampled gradient-difference ratio: a lower bound L_tilde on L.

    The ratio max is taken over pairs drawn inside the radius ball; growing
    num_pairs with the same stream extends the sample, so the estimate is
    monotone in num_pairs.
    """
    if num_pairs < 1:
        raise ConfigurationError("need at least one pair")
    if radius <= 0:
        raise ConfigurationError("radius must be positive")
    center = np.zeros(problem.dimension) if center is None else np.asarray(center, dtype=float)
    best = 0.0
    usable = 0
    for _ in range(num_pairs):
        w1 = _sample_in_ball(rng, problem.dimension, center, radius)
        w2 = _sample_in_ball(rng, problem.dimension, center, radius)
        gap = np.linalg.norm(w1 - w2)
        if gap < 1e-14:
            continue
        usable += 1
        g1 = problem.full_gradient(w1, lam)
        g2 = problem.full_gradient(w2, lam)
        best = max(best, float(np.linalg.norm(g1 - g2) / gap))
    if usable == 0:
        raise EstimationError("all sampled pairs were coincident")
    return best


def estimate_mu(problem, lam, w, fstar_lambda, tol=1e-12):
    """Pointwise PL modulus ||grad f||^2 / (2 (f - f*)); undefined at the optimum."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    gap = problem.full_objective(w, lam) - fstar_lambda
    if gap <= tol:
        raise EstimationError(f"objective gap {gap} is below tolerance; mu is undefined at the optimum")
    grad = problem.full_gradient(w, lam)
    return float(np.dot(grad, grad) / (2.0 * gap))


def estimate_sigma2(problem, lam, w_samples, minibatch, draws, rng):
    """Max over w samples of the Monte-Carlo mean of ||g - grad f||^2."""
    if draws < 2:
        raise ConfigurationError("need at least two draws")
    n = problem.sample_count
    worst = 0.0
    for w in w_samples:
        w = np.atleast_1d(np.asarray(w, dtype=float))
        full = problem.full_gradient(w, lam)
        idx = _draw_minibatch(rng, n, minibatch, draws)
        if idx is None:
            # Ordered indices keep the summation identical to the full
            # gradient, so the full-batch estimate is exactly zero.
            idx = np.tile(np.arange(n), (draws, 1))
        # All draws at once through the batched oracle, one row per draw.
        diff = problem.gradient(np.tile(w, (draws, 1)), lam, idx) - full
        worst = max(worst, sum(np.einsum("rk,rk->r", diff, diff).tolist()) / draws)
    return worst


@dataclass
class FstarEstimate:
    value: float
    minimizer: np.ndarray
    upper_bound_only: bool = False


def _grid_fstar(problem, lam, lo, hi, step):
    grid = np.arange(lo, hi + step / 2, step)
    if grid.size == 0:
        raise ConfigurationError("empty search grid")
    # Chunked evaluation keeps the grid x samples product bounded in memory.
    best_val, best_w = np.inf, grid[0]
    for chunk in np.array_split(grid, max(1, grid.size // 20000)):
        vals = problem.objective(chunk[:, None], lam)
        j = int(np.argmin(vals))
        if vals[j] < best_val:
            best_val, best_w = float(vals[j]), float(chunk[j])
    # Refine by bisection on the gradient sign inside the bracketing cell.
    a, b = best_w - step, best_w + step
    ga = problem.full_gradient(np.array([a]), lam)[0]
    gb = problem.full_gradient(np.array([b]), lam)[0]
    if ga < 0 < gb:
        for _ in range(60):
            m = 0.5 * (a + b)
            if problem.full_gradient(np.array([m]), lam)[0] < 0:
                a = m
            else:
                b = m
        w_ref = 0.5 * (a + b)
        v_ref = problem.full_objective(np.array([w_ref]), lam)
        if v_ref < best_val:
            best_val, best_w = float(v_ref), float(w_ref)
    return FstarEstimate(best_val, np.array([best_w]), upper_bound_only=False)


def _multistart_fstar(problem, lam, restarts, steps, alpha, seed, init_radius=1.0, init_center=None):
    rng = make_rng(seed)
    best_val, best_w = np.inf, None
    center = np.zeros(problem.dimension) if init_center is None else np.asarray(init_center, float)
    for _ in range(restarts):
        w = center + init_radius * rng.standard_normal(problem.dimension)
        for _ in range(steps):
            w = w - alpha * problem.full_gradient(w, lam)
            if not np.all(np.isfinite(w)):
                break
        else:
            val = problem.full_objective(w, lam)
            if val < best_val:
                best_val, best_w = float(val), w
    if best_w is None:
        raise EstimationError("every descent restart diverged")
    return FstarEstimate(best_val, best_w, upper_bound_only=True)


def estimate_fstar(problem, lam, search_spec):
    """Estimate f*(lambda).

    search_spec kinds:
      {"kind": "grid", "lo": -10, "hi": 10, "step": 1e-2}  (1-D problems)
      {"kind": "multistart", "restarts": 10, "steps": 2000, "alpha": 0.1,
       "seed": 0[, "init_radius", "init_center"]}           (upper bound only)
    """
    kind = search_spec.get("kind")
    if kind == "grid":
        if problem.dimension != 1:
            raise ConfigurationError("grid search requires a 1-D problem")
        return _grid_fstar(problem, lam, search_spec["lo"], search_spec["hi"], search_spec["step"])
    if kind == "multistart":
        return _multistart_fstar(
            problem, lam,
            restarts=search_spec.get("restarts", 10),
            steps=search_spec.get("steps", 2000),
            alpha=search_spec["alpha"],
            seed=search_spec.get("seed", 0),
            init_radius=search_spec.get("init_radius", 1.0),
            init_center=search_spec.get("init_center"),
        )
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
    numeric = np.empty(len(coords))
    for j, c in enumerate(coords):
        wp, wm = w.copy(), w.copy()
        wp[c] += fd_step
        wm[c] -= fd_step
        numeric[j] = (problem.full_objective(wp, lam) - problem.full_objective(wm, lam)) / (2 * fd_step)
    analytic = grad[coords]
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return GradientCheckReport(coords, analytic, numeric, rel)


def estimate_delta(problem, num_probes, rng, w_radius=3.0, w_center=None):
    """Lambda-Lipschitz witness: max |f(w, l1) - f(w, l2)| / |l1 - l2| over probes."""
    if num_probes < 1:
        raise ConfigurationError("need at least one probe")
    center = np.zeros(problem.dimension) if w_center is None else np.asarray(w_center, float)
    worst = 0.0
    for _ in range(num_probes):
        w = center + w_radius * rng.standard_normal(problem.dimension)
        l1, l2 = rng.random(), rng.random()
        if abs(l1 - l2) < 1e-9:
            continue
        diff = abs(problem.full_objective(w, l1) - problem.full_objective(w, l2))
        worst = max(worst, diff / abs(l1 - l2))
    return worst


@dataclass
class PlProbeResult:
    ratio: float
    mean_sq_grad_norm: float
    mean_gap: float
    draws: int


def expected_pl_probe(problem, lam, draws, fstar_lambda, rng, sampler=None):
    """Monte-Carlo mu_tilde = E||grad f||^2 / (2 (E f - f*)) under a w-sampler.

    The default sampler is standard normal. A positive stable ratio is
    evidence for the expected-PL property under that sampler; note the probe
    samples from the supplied distribution, not the algorithm's iterate law.
    """
    if draws < 100:
        raise ConfigurationError("need at least 100 draws")
    if sampler is None:
        sampler = lambda r: r.standard_normal(problem.dimension)
    sq_grads = np.empty(draws)
    vals = np.empty(draws)
    for i in range(draws):
        w = np.atleast_1d(np.asarray(sampler(rng), dtype=float))
        g = problem.full_gradient(w, lam)
        sq_grads[i] = float(np.dot(g, g))
        vals[i] = problem.full_objective(w, lam)
    mean_gap = float(np.mean(vals) - fstar_lambda)
    if mean_gap <= 0:
        raise EstimationError("mean objective gap is nonpositive; sampler concentrated at the optimum")
    mean_sq = float(np.mean(sq_grads))
    return PlProbeResult(mean_sq / (2.0 * mean_gap), mean_sq, mean_gap, draws)


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
