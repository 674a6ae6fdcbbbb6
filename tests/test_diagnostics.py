"""Landscape-constant estimators, gradient checker and PL probes."""

import itertools
import math
import multiprocessing
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_family
from homotopy_opt import core, diagnostics, harness, problems
from homotopy_opt.core import ConfigurationError, SgdConfig, make_rng, sgd_run, stream_seed
from homotopy_opt.problems import ErfRegressionProblem, HomotopyProblem


class Scalar1D(HomotopyProblem):
    """Wraps a scalar function pair (f, f') as a noise-free 1-D problem."""

    def __init__(self, f, df, samples=4):
        self.f = f
        self.df = df
        self.dimension = 1
        self.sample_count = samples

    def _epoch_metrics(self, W, lam):
        return np.array([float(self.f(w)) for w in W[:, 0]]), None

    def _gradient(self, W, lam, idx=None, with_metrics=False):
        grads = np.array([[self.df(w)] for w in W[:, 0]], dtype=float)
        return ((self.objective(W, lam), None), grads) if with_metrics else grads


def quadratic(a=1.0, center=0.0):
    return Scalar1D(lambda w: 0.5 * a * (w - center) ** 2, lambda w: a * (w - center))


# ---------------------------------------------------------------- estimate_L


def test_estimate_L_exact_on_quadratic():
    prob = quadratic(a=2.5)
    assert abs(diagnostics.estimate_L(prob, 1.0, 50, 3.0, make_rng(0)) - 2.5) < 1e-9


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-305])
def test_estimate_L_at_tiny_scales(scale):
    # The gradient differences are normal floats whose squares underflow,
    # so the plain norm loses bits (a 4% error at 1e-160) or reads 0; the
    # rescaled norm keeps the curvature.
    assert diagnostics.estimate_L(quadratic(a=scale), 1.0, 50, 3.0, make_rng(0)) == pytest.approx(
        scale, rel=1e-12)


def test_estimate_L_of_subnormal_differences_is_zero():
    # Entries below the least normal float carry too few bits for a ratio.
    assert diagnostics.estimate_L(quadratic(a=1e-320), 1.0, 50, 3.0, make_rng(0)) == 0.0


def test_estimate_L_quartic_approaches_supremum():
    # f = w^4/4 has f'' = 3 w^2, so the Lipschitz constant on a radius-R
    # ball is 3 R^2 and the pair estimate approaches it from below.
    prob = Scalar1D(lambda w: 0.25 * w**4, lambda w: w**3)
    radius = 2.0
    small = diagnostics.estimate_L(prob, 1.0, 500, radius, make_rng(3))
    large = diagnostics.estimate_L(prob, 1.0, 5000, radius, make_rng(3))
    sup = 3.0 * radius**2
    assert small <= large <= sup + 1e-9
    assert large >= 0.95 * sup


def test_estimate_L_monotone_in_num_pairs(toy_problem):
    # Same stream, nested sample: the max can only grow.
    a = diagnostics.estimate_L(toy_problem, 1.0, 200, 10.0, make_rng(5))
    b = diagnostics.estimate_L(toy_problem, 1.0, 800, 10.0, make_rng(5))
    assert b >= a


def test_estimate_L_stable_on_toy(toy_problem):
    a = diagnostics.estimate_L(toy_problem, 1.0, 10000, 10.0, make_rng(11))
    b = diagnostics.estimate_L(toy_problem, 1.0, 10000, 10.0, make_rng(12))
    assert a > 0 and abs(a - b) / a < 0.10


def test_estimate_L_validation():
    with pytest.raises(ConfigurationError):
        diagnostics.estimate_L(quadratic(), 1.0, 0, 1.0, make_rng(0))
    with pytest.raises(ConfigurationError):
        diagnostics.estimate_L(quadratic(), 1.0, 10, 0.0, make_rng(0))


# ---------------------------------------------------------------- estimate_mu


def test_estimate_mu_exact_on_quadratic():
    prob = quadratic(a=1.7, center=0.4)
    for w in (-2.0, 0.0, 3.0):
        assert abs(diagnostics.estimate_mu(prob, 1.0, np.array([w]), 0.0) - 1.7) < 1e-12


def test_estimate_mu_cubic_modulus_vanishes_at_origin():
    # f = |w|^3: mu(w) = 9 w^4 / (2 |w|^3) = 4.5 |w| -> 0.
    prob = Scalar1D(lambda w: abs(w) ** 3, lambda w: 3.0 * w * abs(w))
    for w in (0.5, 0.1, 0.01):
        assert abs(diagnostics.estimate_mu(prob, 1.0, np.array([w]), 0.0) - 4.5 * w) < 1e-10


def test_estimate_mu_undefined_at_optimum():
    with pytest.raises(diagnostics.EstimationError):
        diagnostics.estimate_mu(quadratic(), 1.0, np.array([0.0]), 0.0)


# ------------------------------------------------------------- estimate_sigma2


def test_estimate_sigma2_zero_at_full_batch(toy_problem):
    val = diagnostics.estimate_sigma2(
        toy_problem, 1.0, [np.array([-4.0])], toy_problem.sample_count, 10, make_rng(0))
    assert val == 0.0


def test_estimate_sigma2_matches_enumeration():
    xs = np.array([0.1, -0.5, 0.8, 0.3])
    ys = np.array([1.0, -1.0, 0.5, 0.2])
    prob = ErfRegressionProblem(xs, ys, 0.0 * xs)
    w, lam = np.array([0.7]), 0.6
    full = prob.full_gradient(w, lam)
    exact = np.mean([
        np.sum((prob.minibatch_value_and_gradient(w, lam, np.array(idx))[1] - full) ** 2)
        for idx in itertools.combinations(range(4), 1)
    ])
    mc = diagnostics.estimate_sigma2(prob, lam, [w], 1, 20000, make_rng(9))
    assert abs(mc - exact) / exact < 0.05


def test_estimate_sigma2_needs_draws():
    with pytest.raises(ConfigurationError):
        diagnostics.estimate_sigma2(quadratic(), 1.0, [np.array([1.0])], 1, 1, make_rng(0))


# ------------------------------------------------------------- estimate_fstar


def test_fstar_grid_on_shifted_quadratic():
    prob = Scalar1D(lambda w: (w - 2.0) ** 2, lambda w: 2.0 * (w - 2.0))
    est = diagnostics.estimate_fstar(prob, 1.0, {"kind": "grid", "lo": -10, "hi": 10, "step": 1e-4})
    assert est.value <= 1e-8
    assert abs(est.minimizer[0] - 2.0) < 1e-4
    assert not est.upper_bound_only


def test_fstar_source_problem_near_initial_point(toy_problem):
    # Source labels follow the line -4x, so the best erf fit sits on the
    # negative branch and w = -4 is already close to optimal in value (the
    # erf shape cannot match a line exactly, so the minimizer drifts a bit).
    est = diagnostics.estimate_fstar(
        toy_problem, 0.0, {"kind": "grid", "lo": -10, "hi": 10, "step": 1e-4})
    f_at_w0 = toy_problem.full_objective(np.array([-4.0]), 0.0)
    assert est.value <= f_at_w0 + 1e-12
    assert est.minimizer[0] < -2.0
    assert f_at_w0 - est.value < 0.05 * f_at_w0


def test_fstar_multistart_flags_upper_bound():
    prob = quadratic(a=1.0, center=1.5)
    est = diagnostics.estimate_fstar(
        prob, 1.0, {"kind": "multistart", "restarts": 5, "steps": 400, "alpha": 0.5, "seed": 2})
    assert est.upper_bound_only
    assert est.value < 1e-10


def test_fstar_spec_validation(toy_problem):
    with pytest.raises(ConfigurationError):
        diagnostics.estimate_fstar(toy_problem, 1.0, {"kind": "annealing"})


# ------------------------------------------------------------- check_gradient


def test_check_gradient_exact_on_affine():
    prob = Scalar1D(lambda w: 3.0 * w + 1.0, lambda w: 3.0)
    report = diagnostics.check_gradient(prob, 1.0, np.array([0.7]))
    assert report.max_rel_error < 1e-9


def test_check_gradient_second_order_scaling(toy_problem):
    # Central differences have O(h^2) truncation error; halving h should
    # shrink the error by about 4 away from the roundoff floor.
    rng = make_rng(7)
    factors = []
    for _ in range(20):
        w = np.array([rng.uniform(-3, 3)])
        lam = rng.random()
        e1 = diagnostics.check_gradient(toy_problem, lam, w, fd_step=1e-4).max_rel_error
        e2 = diagnostics.check_gradient(toy_problem, lam, w, fd_step=5e-5).max_rel_error
        if e1 > 1e-11:
            factors.append(e1 / e2)
    assert 3.5 <= float(np.median(factors)) <= 4.5


def test_check_gradient_validation(toy_problem):
    with pytest.raises(ConfigurationError):
        diagnostics.check_gradient(toy_problem, 1.0, np.array([0.0]), fd_step=0.0)


# ------------------------------------------------------------- estimate_delta


def test_estimate_delta_finite_and_stable(toy_problem):
    a = diagnostics.estimate_delta(toy_problem, 100, make_rng(5))
    b = diagnostics.estimate_delta(toy_problem, 200, make_rng(6))
    assert np.isfinite(a) and np.isfinite(b) and a > 0
    assert 0.5 < a / b < 2.0


# ---------------------------------------------------------- expected_pl_probe


def test_pl_probe_exact_on_quadratics():
    # For f = (w - c)^2 / 2 the sample ratio is identically 1, whatever the
    # draw, because numerator and denominator share every sample.
    for center in (0.0, 3.0):
        probe = diagnostics.expected_pl_probe(
            quadratic(a=1.0, center=center), 1.0, 500, 0.0, make_rng(1))
        assert abs(probe.ratio - 1.0) < 1e-12


def test_pl_probe_positive_where_pointwise_pl_fails():
    # Bumpy landscape: the expected-PL ratio stays positive even though the
    # pointwise modulus vanishes at interior stationary points with f > f*.
    f = lambda w: 0.5 * w**2 + 0.3 * np.sin(20.0 * w)  # noqa: E731
    df = lambda w: w + 6.0 * np.cos(20.0 * w)  # noqa: E731
    prob = Scalar1D(f, df)
    grid = np.linspace(-3, 3, 200001)
    vals = np.array([f(w) for w in grid])
    fstar = float(vals.min())
    # Find a sign change of f' away from the global minimizer.
    dvals = np.array([df(w) for w in grid])
    sign_flip = np.nonzero((dvals[:-1] > 0) & (dvals[1:] < 0))[0]
    assert sign_flip.size > 0
    i = sign_flip[-1]
    lo, hi = grid[i], grid[i + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if df(mid) > 0:
            lo = mid
        else:
            hi = mid
    w_stat = 0.5 * (lo + hi)
    assert f(w_stat) - fstar > 0.01
    assert diagnostics.estimate_mu(prob, 1.0, np.array([w_stat]), fstar) < 1e-10
    probe = diagnostics.expected_pl_probe(prob, 1.0, 2000, fstar, make_rng(2))
    assert probe.ratio > 0.1


def test_pl_probe_validation():
    with pytest.raises(ConfigurationError):
        diagnostics.expected_pl_probe(quadratic(), 1.0, 50, 0.0, make_rng(0))
    with pytest.raises(diagnostics.EstimationError):
        diagnostics.expected_pl_probe(quadratic(), 1.0, 100, 1e12, make_rng(0))


def test_pl_probe_of_a_nonfinite_landscape_is_an_error():
    # A NaN mean gap fails no `<= 0` test, and an infinite gradient gives an
    # infinite ratio: neither is a measured PL constant.
    nan_objective = Scalar1D(lambda w: np.nan, lambda w: w)
    with pytest.raises(diagnostics.EstimationError, match="mean objective gap nan is not positive"):
        diagnostics.expected_pl_probe(nan_objective, 1.0, 100, 0.0, make_rng(0))
    inf_gradient = Scalar1D(lambda w: 0.5 * w**2, lambda w: np.inf)
    with pytest.raises(diagnostics.EstimationError, match="ratio inf = inf / .* is not finite"):
        diagnostics.expected_pl_probe(inf_gradient, 1.0, 100, 0.0, make_rng(0))


# ------------------------------------------------- sublevel-set invariance


def test_mean_gap_sublevel_invariance(toy_problem):
    # Once the Monte-Carlo mean gap drops below a level reached during the
    # descent phase, it stays below it (up to 3 paired standard errors).
    L = diagnostics.estimate_L(toy_problem, 1.0, 2000, 10.0, make_rng(3))
    fstar = diagnostics.estimate_fstar(
        toy_problem, 1.0, {"kind": "grid", "lo": -10, "hi": 10, "step": 1e-4}).value
    repeats, epochs = 100, 120
    gaps = np.empty((repeats, epochs + 1))
    # All repeats step as one block, repeat r on its own stream.
    rngs = [make_rng(stream_seed(20240, r)) for r in range(repeats)]
    W = np.full((repeats, 1), -4.0)
    gaps[:, 0] = toy_problem.objective(W, 1.0) - fstar
    for e in range(1, epochs + 1):
        W = sgd_run(W, SgdConfig(1.0 / L, 10, 10), toy_problem, 1.0, rngs)
        gaps[:, e] = toy_problem.objective(W, 1.0) - fstar
    mean = gaps.mean(axis=0)
    se_term = gaps[:, -1].std(ddof=1) / math.sqrt(repeats)
    refs = [s for s in range(epochs) if mean[s] >= mean[-1] + 10.0 * se_term]
    assert refs, "descent phase should provide reference levels"
    for s in refs:
        diff = gaps[:, s + 1:] - gaps[:, [s]]
        excess = diff.mean(axis=0) - 3.0 * diff.std(axis=0, ddof=1) / math.sqrt(repeats)
        assert float(np.max(excess)) <= 1e-12


# ------------------------------------------- block estimators vs point loops
#
# Each estimator evaluates its points as one block through the batched pair.
# The references below are the per-point loops it replaced, through the
# single-point views; the block result must equal them bit for bit, on every
# family, whether the block is evaluated whole or in row chunks.

def sample_in_ball(rng, dim, center, radius):
    """One point of the L estimate's stream: a direction, redrawn while its norm reads 0, then a radius."""
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    while norm < 1e-300:
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
    return center + radius * rng.random() ** (1.0 / dim) * direction / norm


def reference_L(problem, lam, num_pairs, radius, rng):
    center = np.zeros(problem.dimension)
    best = 0.0
    for _ in range(num_pairs):
        w1 = sample_in_ball(rng, problem.dimension, center, radius)
        w2 = sample_in_ball(rng, problem.dimension, center, radius)
        gap = np.linalg.norm(w1 - w2)
        if gap < 1e-14:
            continue
        g1, g2 = problem.full_gradient(w1, lam), problem.full_gradient(w2, lam)
        best = max(best, float(np.linalg.norm(g1 - g2) / gap))
    return best


def reference_multistart(problem, lam, restarts, steps, alpha, seed):
    """(best value, its minimizer, which restarts diverged), one restart at a time."""
    rng = make_rng(seed)
    best_val, best_w, diverged = np.inf, None, []
    for _ in range(restarts):
        w = rng.standard_normal(problem.dimension)
        for _ in range(steps):
            w = w - alpha * problem.full_gradient(w, lam)
            if not np.all(np.isfinite(w)):
                diverged.append(True)
                break
        else:
            diverged.append(False)
            val = problem.full_objective(w, lam)
            if val < best_val:
                best_val, best_w = float(val), w
    return best_val, best_w, diverged


def reference_grid_fstar(problem, lam, lo, hi, step):
    """(value, minimizer): the first grid minimum, then the bisection refine."""
    grid = np.arange(lo, hi + step / 2, step)
    vals = [problem.full_objective(np.array([w]), lam) for w in grid]
    j = int(np.argmin(vals))
    return reference_bisect_refine(problem, lam, vals[j], float(grid[j]), step)


def reference_bisect_refine(problem, lam, best_val, best_w, step):
    """(value, minimizer): one lambda's refine of its grid minimum, 60 halvings, point by point."""
    a, b = best_w - step, best_w + step
    ga, gb = (problem.full_gradient(np.array([w]), lam)[0] for w in (a, b))
    if ga < 0 < gb:
        for _ in range(60):
            m = 0.5 * (a + b)
            if problem.full_gradient(np.array([m]), lam)[0] < 0:
                a = m
            else:
                b = m
        v_ref = problem.full_objective(np.array([0.5 * (a + b)]), lam)
        if v_ref < best_val:
            best_val, best_w = v_ref, 0.5 * (a + b)
    return best_val, best_w


def reference_delta(problem, num_probes, rng):
    worst = 0.0
    for _ in range(num_probes):
        w = 3.0 * rng.standard_normal(problem.dimension)
        l1, l2 = rng.random(), rng.random()
        if abs(l1 - l2) < 1e-9:
            continue
        diff = abs(problem.full_objective(w, l1) - problem.full_objective(w, l2))
        worst = max(worst, diff / abs(l1 - l2))
    return worst


def reference_sigma2(problem, lam, w_samples, minibatch, draws, rng):
    n = problem.sample_count
    worst = 0.0
    for w in w_samples:
        full = problem.full_gradient(w, lam)
        idx = core._draw_minibatch(rng, n, minibatch, draws)
        if idx is None:
            idx = np.tile(np.arange(n), (draws, 1))
        diff = np.array([problem.minibatch_value_and_gradient(w, lam, i)[1] for i in idx]) - full
        worst = max(worst, sum(np.einsum("rk,rk->r", diff, diff).tolist()) / draws)
    return worst


def reference_pl_probe(problem, lam, draws, fstar, rng):
    sq_grads, vals = np.empty(draws), np.empty(draws)
    for i in range(draws):
        w = rng.standard_normal(problem.dimension)
        g = problem.full_gradient(w, lam)
        sq_grads[i] = float(np.dot(g, g))
        vals[i] = problem.full_objective(w, lam)
    mean_gap = float(np.mean(vals) - fstar)
    mean_sq = float(np.mean(sq_grads))
    return mean_sq / (2.0 * mean_gap), mean_sq, mean_gap


def reference_numeric_gradient(problem, lam, w, coords, h):
    numeric = np.empty(len(coords))
    for j, c in enumerate(coords):
        wp, wm = w.copy(), w.copy()
        wp[c] += h
        wm[c] -= h
        numeric[j] = (problem.full_objective(wp, lam) - problem.full_objective(wm, lam)) / (2 * h)
    return numeric


def reference_mu(problem, lam, w, fstar, tol=1e-12):
    gap = problem.full_objective(w, lam) - fstar
    if gap <= tol:
        return np.nan
    g = problem.full_gradient(w, lam)
    return float(np.dot(g, g) / (2.0 * gap))


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
@pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
def test_block_estimate_L_equals_point_loop(experiment, lam, chunk_budget):
    problem = small_family(experiment)
    block = diagnostics.estimate_L(problem, lam, 40, 2.0, make_rng(21))
    assert block == reference_L(problem, lam, 40, 2.0, make_rng(21))


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_block_multistart_equals_point_loop(experiment, chunk_budget):
    problem = small_family(experiment)
    spec = {"kind": "multistart", "restarts": 9, "steps": 40, "alpha": 0.2, "seed": 6}
    est = diagnostics.estimate_fstar(problem, 0.37, spec)
    value, minimizer, diverged = reference_multistart(problem, 0.37, 9, 40, 0.2, 6)
    assert not any(diverged)
    assert est.value == value and np.array_equal(est.minimizer, minimizer)


def test_block_multistart_drops_diverged_restarts(chunk_budget):
    # At this step size every MLP restart grows without bound; within 98
    # steps 4 of the 8 overflow, at steps 97 and 98, and the other 4 are
    # still finite, so the block loses rows at two different steps.
    problem = small_family("sine-mlp")
    spec = {"kind": "multistart", "restarts": 8, "steps": 98, "alpha": 1.95, "seed": 4}
    with np.errstate(over="ignore", invalid="ignore"):
        est = diagnostics.estimate_fstar(problem, 1.0, spec)
        value, minimizer, diverged = reference_multistart(problem, 1.0, 8, 98, 1.95, 4)
    assert diverged == [False, True, True, True, True, False, False, False]
    assert est.value == value and np.array_equal(est.minimizer, minimizer)


def test_block_multistart_mixed_divergence_on_quartic():
    # w <- w - w^3 diverges from |w| > sqrt(2) and converges from inside.
    prob = Scalar1D(lambda w: 0.25 * w**4, lambda w: w**3)
    spec = {"kind": "multistart", "restarts": 12, "steps": 30, "alpha": 1.0, "seed": 5}
    with np.errstate(over="ignore", invalid="ignore"):
        est = diagnostics.estimate_fstar(prob, 1.0, spec)
        value, minimizer, diverged = reference_multistart(prob, 1.0, 12, 30, 1.0, 5)
        assert 0 < sum(diverged) < len(diverged)
        assert est.value == value and np.array_equal(est.minimizer, minimizer)
        # Started around w = 5, every restart diverges.
        with pytest.raises(diagnostics.EstimationError, match="every descent restart diverged"):
            diagnostics.estimate_fstar(prob, 1.0, {**spec, "init_center": [5.0]})


QUARTIC = Scalar1D(lambda w: 0.25 * w**4, lambda w: w**3)
# (problem, lambda, spec): two families; w <- w - w^3 from around w = 1,
# where restarts 0-2, 4-7 and 9 diverge, so at 3 slices the whole second
# slice (restarts 4-7) leaves no row; and a double well whose restarts 0-2
# end at w = 1 and 3-5 at w = -1 with equal values, so only the restart
# order of the joined rows makes the first least restart 0's.
SLICED_MULTISTARTS = {
    "double well": (lambda: Scalar1D(lambda w: (w**2 - 1) ** 2, lambda w: 4 * w * (w**2 - 1)),
                    1.0, {"kind": "multistart", "restarts": 6, "steps": 200, "alpha": 0.05,
                          "seed": 3}),
    "moons-logistic": (lambda: small_family("moons-logistic"), 0.37,
                       {"kind": "multistart", "restarts": 9, "steps": 40, "alpha": 0.2, "seed": 6}),
    "sine-mlp": (lambda: small_family("sine-mlp"), 0.37,
                 {"kind": "multistart", "restarts": 9, "steps": 40, "alpha": 0.2, "seed": 6}),
    "quartic": (lambda: QUARTIC, 1.0, {"kind": "multistart", "restarts": 12, "steps": 30,
                                       "alpha": 1.0, "seed": 6, "init_center": [1.0]}),
}


@pytest.mark.parametrize("case", sorted(SLICED_MULTISTARTS))
def test_multistart_does_not_depend_on_the_slice_count(slices, case):
    make_problem, lam, spec = SLICED_MULTISTARTS[case]
    problem = make_problem()
    estimates = []
    for count in (1, 2, 3):
        started = slices(count)
        with np.errstate(over="ignore", invalid="ignore"):
            est = diagnostics.estimate_fstar(problem, lam, spec)
        assert len(started) == count - 1
        estimates.append((est.value, est.minimizer.tobytes(), est.upper_bound_only))
    assert estimates[1] == estimates[0] and estimates[2] == estimates[0]
    assert multiprocessing.active_children() == []


def test_multistart_all_diverged_in_every_slice_is_one_error(slices):
    spec = {"kind": "multistart", "restarts": 12, "steps": 30, "alpha": 1.0, "seed": 5,
            "init_center": [5.0]}
    for count in (1, 2, 3):
        slices(count)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(diagnostics.EstimationError) as err:
            diagnostics.estimate_fstar(QUARTIC, 1.0, spec)
        assert str(err.value) == "every descent restart diverged"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("experiment", ["toy-erf", "synthetic-lq"])
@pytest.mark.parametrize("lam", [0.0, 0.37, 1.0])
def test_block_grid_fstar_equals_point_loop(experiment, lam, chunk_budget):
    problem = small_family(experiment)
    est = diagnostics.estimate_fstar(problem, lam, {"kind": "grid", "lo": -6, "hi": 6, "step": 0.05})
    value, minimizer = reference_grid_fstar(problem, lam, -6, 6, 0.05)
    assert est.value == value and est.minimizer[0] == minimizer


GRID = {"kind": "grid", "lo": -6, "hi": 6, "step": 0.05}


def test_grid_fstar_exact_tie_picks_the_first_cell():
    # With every input at 0 the model output is erf(0) = 0 at each w, so
    # every cell's direct value is the same float and the gradient is 0:
    # the first grid cell wins and no bisection runs.
    problem = ErfRegressionProblem(np.zeros(5), [1.0, -2.0, 0.5, 3.0, 0.25],
                                   [0.3, 0.1, -0.7, 2.0, -1.5])
    lams = [0.0, 0.4, 1.0]
    for lam, est in zip(lams, diagnostics.estimate_fstar(problem, lams, GRID)):
        value, minimizer = reference_grid_fstar(problem, lam, -6, 6, 0.05)
        assert est.minimizer[0] == minimizer == -6.0
        assert est.value == value == problem.full_objective(np.array([-6.0]), lam)


GRIDS = [(-3.0, 3.0, 0.25), (-6.0, 6.0, 0.05), (-1.0, 2.0, 0.1)]
finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    data=st.lists(st.tuples(st.one_of(st.just(0.0), finite), finite, finite),
                  min_size=1, max_size=12),
    inner=st.lists(st.floats(0.0, 1.0), max_size=4),
    grid=st.sampled_from(GRIDS),
    chunk_rows=st.sampled_from([1, 7, 10_000]),
)
def test_multi_lambda_grid_fstar_equals_per_lambda_reference(data, inner, grid, chunk_rows):
    # One grid pass for all lambdas gives each lambda the value and the
    # minimizer of the per-lambda argmin and refine, bit for bit, however
    # the pass is cut into row chunks.
    xs, yt, ys = (np.array(col) for col in zip(*data))
    problem = ErfRegressionProblem(xs, yt, ys)
    lams = [0.0, *inner, 1.0]
    spec = {"kind": "grid", "lo": grid[0], "hi": grid[1], "step": grid[2]}
    with unittest.mock.patch.object(problems, "EPOCH_CHUNK_ELEMENTS", chunk_rows * len(xs)):
        estimates = diagnostics.estimate_fstar(problem, lams, spec)
    assert len(estimates) == len(lams)
    for lam, est in zip(lams, estimates):
        value, minimizer = reference_grid_fstar(problem, lam, *grid)
        assert est.value == value and est.minimizer[0] == minimizer


class RowCountingErf(ErfRegressionProblem):
    """An erf problem that counts the rows of its model outputs and of its direct objective."""

    def __init__(self, *arrays):
        super().__init__(*arrays)
        self.output_rows = self.objective_rows = 0

    def outputs(self, W):
        self.output_rows += len(W)
        return super().outputs(W)

    def objective(self, W, lam):
        self.objective_rows += len(W)
        return super().objective(W, lam)


@pytest.mark.parametrize("count", [1, 12])
def test_grid_pass_rows_do_not_depend_on_lambda_count(count):
    erf_family = small_family("toy-erf")
    problem = RowCountingErf(erf_family.xs, erf_family.y_target, erf_family.y_source)
    lams = np.linspace(0.0, 1.0, count).tolist()
    diagnostics.estimate_fstar(problem, lams, GRID)
    # The grid pass computes each cell's outputs once. Every other outputs row
    # comes from a direct objective call, which only the refine makes, at one
    # refined point per lambda.
    assert problem.output_rows - problem.objective_rows == np.arange(-6, 6 + 0.025, 0.05).size
    assert problem.objective_rows <= count


@pytest.mark.parametrize("chunk_rows", [1, 3, None])
def test_grid_fstar_nan_cell_equals_reference(chunk_rows):
    # An infinite input makes erf(w x) NaN at w = 0 (0 * inf) and +-1 elsewhere,
    # so the w = 0 cell is NaN at every lambda and wins the argmin, as the
    # first NaN does in np.argmin, however the pass is cut into row chunks.
    xs = np.array([np.inf, 0.5, -1.0])
    problem = ErfRegressionProblem(xs, [0.2, -0.4, 1.0], [1.0, 0.3, -0.6])
    lams = [0.0, 0.5, 1.0]
    cells = np.arange(-1.0, 1.0 + 0.125, 0.25).size
    with unittest.mock.patch.object(problems, "EPOCH_CHUNK_ELEMENTS", (chunk_rows or cells) * len(xs)):
        with np.errstate(invalid="ignore"):
            estimates = diagnostics.estimate_fstar(
                problem, lams, {"kind": "grid", "lo": -1.0, "hi": 1.0, "step": 0.25})
    with np.errstate(invalid="ignore"):
        for lam, est in zip(lams, estimates):
            value, minimizer = reference_grid_fstar(problem, lam, -1.0, 1.0, 0.25)
            assert np.isnan(est.value) and np.isnan(value)
            assert est.minimizer[0] == minimizer == 0.0


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
@pytest.mark.parametrize("minibatch", [5, 30])
def test_block_sigma2_equals_point_loop(experiment, minibatch, chunk_budget):
    problem = small_family(experiment)
    rng = make_rng(13)
    w_samples = [0.5 * rng.standard_normal(problem.dimension) for _ in range(3)]
    block = diagnostics.estimate_sigma2(problem, 0.37, w_samples, minibatch, 20, make_rng(14))
    assert block == reference_sigma2(problem, 0.37, w_samples, minibatch, 20, make_rng(14))
    assert (block == 0.0) == (minibatch == problem.sample_count)


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_block_pl_probe_equals_point_loop(experiment, chunk_budget):
    problem = small_family(experiment)
    probe = diagnostics.expected_pl_probe(problem, 0.37, 100, 0.0, make_rng(17))
    ref = reference_pl_probe(problem, 0.37, 100, 0.0, make_rng(17))
    assert (probe.ratio, probe.mean_sq_grad_norm, probe.mean_gap) == ref


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_block_check_gradient_equals_point_loop(experiment, chunk_budget):
    problem = small_family(experiment)
    w = 0.5 * make_rng(19).standard_normal(problem.dimension)
    coords = list(range(problem.dimension))
    report = diagnostics.check_gradient(problem, 0.37, w, fd_step=1e-5)
    assert np.array_equal(report.numeric,
                          reference_numeric_gradient(problem, 0.37, w, coords, 1e-5))


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_block_pl_moduli_equal_point_loop(experiment, chunk_budget):
    problem = small_family(experiment)
    W = 0.5 * make_rng(23).standard_normal((12, problem.dimension))
    # f* at the objective of row 0 leaves mu undefined there.
    fstar = problem.full_objective(W[0], 0.37)
    mu, gaps = diagnostics.pl_moduli(problem, 0.37, W, fstar)
    ref = np.array([reference_mu(problem, 0.37, w, fstar) for w in W])
    assert np.isnan(mu[0]) and np.array_equal(mu, ref, equal_nan=True)
    assert np.array_equal(gaps, [problem.full_objective(w, 0.37) - fstar for w in W])


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_block_delta_equals_point_loop(experiment, chunk_budget):
    problem = small_family(experiment)
    assert diagnostics.estimate_delta(problem, 40, make_rng(29)) == reference_delta(
        problem, 40, make_rng(29))


class ShiftedQuadratic(HomotopyProblem):
    """f(w, lam) = (w - shift - lam)^2 for a float or column lambda; counts its gradient calls."""

    dimension, sample_count = 1, 4

    def __init__(self, shift):
        self.shift = shift
        self.gradient_calls = 0

    def _epoch_metrics(self, W, lam):
        return ((W[:, :1] - self.shift - lam) ** 2)[:, 0], None

    def _gradient(self, W, lam, idx=None, with_metrics=False):
        self.gradient_calls += 1
        grad = 2.0 * (W[:, :1] - self.shift - lam)
        return ((self.objective(W, lam), None), grad) if with_metrics else grad


@pytest.mark.parametrize("shift, stops_early", [(0.0, False), (1e6, True)])
def test_lockstep_refine_equals_per_lambda_refine(shift, stops_early):
    # The minimum of lambda is shift + lambda. The grid ends at shift + 0.5,
    # so the brackets of lambda = 0.8 and 1 fail (both ends descend) and keep
    # the grid edge. Near shift = 1e6 floats are 1.2e-10 apart, so every
    # bracket of width 0.1 reaches adjacent floats after about 30 halvings
    # and the loop stops there; at shift = 0 the bracket of lambda = 0 closes
    # on 0, where floats lie ever closer, so all 60 halvings run.
    problem = ShiftedQuadratic(shift)
    lo, hi, step = shift - 1.0, shift + 0.5, 0.05
    lams = [0.0, 0.3, 0.8, 0.45, 1.0, 0.05]
    spec = {"kind": "grid", "lo": lo, "hi": hi, "step": step}
    estimates = diagnostics.estimate_fstar(problem, lams, spec)
    for lam, est in zip(lams, estimates):
        value, minimizer = reference_grid_fstar(ShiftedQuadratic(shift), lam, lo, hi, step)
        assert est.value == value and est.minimizer[0] == minimizer
    grid_end = np.arange(lo, hi + step / 2, step)[-1]
    assert [est.minimizer[0] == grid_end for est in estimates] == [
        False, False, True, False, True, False]
    # One gradient block for the bracket ends, then one per halving.
    assert (problem.gradient_calls < 1 + 60) == stops_early


class Blowup(HomotopyProblem):
    """Gradient w, but ``fill`` in every entry of a point with w_0 > 1."""

    dimension, sample_count = 2, 4

    def __init__(self, fill):
        self.fill = fill

    def _epoch_metrics(self, W, lam):
        return np.zeros(len(W)), None

    def _gradient(self, W, lam, idx=None, with_metrics=False):
        grad = np.where(W[:, :1] > 1.0, self.fill, W)
        return ((self.objective(W, lam), None), grad) if with_metrics else grad


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_estimate_L_skips_nan_ratios_as_the_point_loop(fill):
    # A pair with a NaN difference (NaN - x, inf - inf) has a NaN ratio and is
    # skipped; a pair with one infinite gradient has an infinite ratio.
    with np.errstate(invalid="ignore"):
        block = diagnostics.estimate_L(Blowup(fill), 1.0, 60, 2.0, make_rng(8))
        assert block == reference_L(Blowup(fill), 1.0, 60, 2.0, make_rng(8))
    assert block == (1.0 if np.isnan(fill) else np.inf)


@pytest.mark.parametrize("d", [1, 2, 9, 141])
def test_row_dots_equal_the_norms_sum_of_squares(d):
    # The block estimators square norms through one stacked matmul; they keep
    # the per-point bits only while it sums as ndarray.dot does, which a numpy
    # or BLAS change could break.
    A = make_rng(d).standard_normal((50, d)) * np.logspace(-150, 150, 50)[:, None]
    dots = diagnostics._row_dots(A)
    assert np.array_equal(dots, [row.dot(row) for row in A])
    assert np.array_equal(np.sqrt(dots), [np.linalg.norm(row) for row in A])
