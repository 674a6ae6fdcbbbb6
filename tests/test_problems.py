"""Problem families: objectives, analytic gradients and homotopy maps."""

import ast
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from conftest import small_family
from homotopy_opt import core, datasets, harness, problems
from homotopy_opt.core import ConfigurationError, make_rng
from homotopy_opt.problems import (
    MLP_DIMENSION,
    CubicLogisticProblem,
    ErfRegressionProblem,
    HomotopyProblem,
    MlpRegressionProblem,
    QuadraticTrackingProblem,
)


def exhaustive_mean_gradient(problem, w, lam, minibatch):
    """Average minibatch gradient over every C(N, M) index set."""
    total = np.zeros(problem.dimension)
    count = 0
    for idx in itertools.combinations(range(problem.sample_count), minibatch):
        _, g = problem.minibatch_value_and_gradient(w, lam, np.array(idx))
        total += g
        count += 1
    return total / count


@pytest.fixture
def small_erf():
    xs = np.array([0.1, -0.5, 0.8, 0.3, -0.9, 0.6])
    ys = np.array([1.0, -1.2, 0.5, 0.2, -0.8, 1.1])
    return ErfRegressionProblem(xs, ys, -2.0 * xs)


@pytest.fixture
def small_mlp():
    xs = np.array([0.1, -0.5, 0.8, 0.3, -0.9])
    return MlpRegressionProblem(xs, np.sin(10 * xs), xs**2)


@pytest.fixture
def small_moons():
    X = np.array([[1.0, 0.0], [-1.0, 0.1], [0.0, 0.5], [2.0, 0.4], [0.3, 0.9], [1.4, -0.2]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    return CubicLogisticProblem(X, y)


# ---------------------------------------------------------------- label map


def test_label_interpolation_endpoints_exact():
    labels = ErfRegressionProblem(np.zeros(2), np.array([2.0, -1.0]), np.array([0.5, 3.0])).labels
    assert np.array_equal(labels(0.0), [0.5, 3.0])
    assert np.array_equal(labels(1.0), [2.0, -1.0])
    assert np.array_equal(labels(0.5), [1.25, 1.0])


def test_label_interpolation_validates():
    with pytest.raises(ConfigurationError, match="equal length"):
        ErfRegressionProblem(np.zeros(2), np.array([1.0, 2.0]), np.array([1.0]))
    problem = ErfRegressionProblem(np.zeros(1), np.array([1.0]), np.array([0.0]))
    for lam in (1.5, -0.01):
        for evaluate in (problem.objective, problem.gradient):
            with pytest.raises(ConfigurationError):
                evaluate(np.zeros((1, 1)), lam)


@pytest.mark.parametrize("family", [ErfRegressionProblem, MlpRegressionProblem])
def test_label_interpolation_input_error_names_the_family(family):
    with pytest.raises(ConfigurationError, match=f"{family.__name__} needs a non-empty 1-D"):
        family(np.zeros((2, 1)), np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------- erf family


def test_erf_closed_form_at_zero(small_erf):
    # erf(0) = 0 and erf'(0) = 2/sqrt(pi).
    y = small_erf.y_target
    x = small_erf.xs
    value, grad = small_erf.minibatch_value_and_gradient(
        np.array([0.0]), 1.0, np.arange(x.size))
    assert abs(value - np.mean(y**2)) < 1e-15
    expected = -(4.0 / (x.size * np.sqrt(np.pi))) * np.sum(y * x)
    assert abs(grad[0] - expected) < 1e-14


def test_erf_zero_residual_dataset():
    xs = np.linspace(-1, 1, 8)
    wbar = 1.7
    prob = ErfRegressionProblem(xs, erf(wbar * xs), np.zeros(8))
    value, grad = prob.minibatch_value_and_gradient(np.array([wbar]), 1.0, np.arange(8))
    assert value < 1e-30
    assert abs(grad[0]) < 1e-15


def test_erf_batched_objective_matches_scalar(small_erf):
    ws = np.linspace(-3, 3, 11)
    grid_vals = small_erf.objective(ws[:, None], 0.4)
    for w, v in zip(ws, grid_vals):
        assert abs(v - small_erf.full_objective(np.array([w]), 0.4)) < 1e-14


def test_erf_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        ErfRegressionProblem(np.array([]), np.array([]), np.array([]))
    with pytest.raises(ConfigurationError):
        ErfRegressionProblem(np.array([1.0, 2.0]), np.array([1.0]), np.array([1.0]))
    prob = ErfRegressionProblem(np.array([0.5]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(ConfigurationError):
        prob.full_objective(np.array([0.0]), 1.2)


# ---------------------------------------------------------------- MLP family


def test_mlp_dimension_and_pack_roundtrip(small_mlp):
    assert small_mlp.dimension == MLP_DIMENSION == 141
    w = make_rng(0).standard_normal(141)
    assert np.array_equal(MlpRegressionProblem.pack(*MlpRegressionProblem.unpack(w)), w)


def test_mlp_zero_parameters_closed_form(small_mlp):
    w = np.zeros(141)
    lam = 0.7
    y = lam * small_mlp.y_target + (1 - lam) * small_mlp.y_source
    n = small_mlp.sample_count
    value, grad = small_mlp.minibatch_value_and_gradient(w, lam, np.arange(n))
    assert abs(value - np.mean(y**2)) < 1e-15
    # tanh(0) = 0 kills every activation, so only the first-layer parameters
    # and the output bias can receive gradient.
    W1g, b1g, W2g, b2g, W3g, b3g = MlpRegressionProblem.unpack(grad)
    assert np.all(W2g == 0.0) and np.all(W3g == 0.0) and np.all(b2g == 0.0)
    assert np.all(W1g == 0.0) and np.all(b1g == 0.0)
    assert abs(b3g[0] - (-2.0 / n) * np.sum(y)) < 1e-14


def test_mlp_objective_quadratic_in_lambda(small_mlp):
    # The residual is affine in lambda, so f(w, .) is an exact quadratic.
    w = small_mlp.default_init(seed=3)
    lams = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
    vals = [small_mlp.full_objective(w, l) for l in lams]
    coeffs = np.polyfit(lams, vals, 2)
    predicted = np.polyval(coeffs, 1.0)
    assert abs(predicted - small_mlp.full_objective(w, 1.0)) < 1e-10


def test_mlp_predict_matches_objective(small_mlp):
    w = small_mlp.default_init(seed=5)
    res = small_mlp.outputs(w[None])[0] - small_mlp.y_target
    assert abs(small_mlp.full_objective(w, 1.0) - np.mean(res**2)) < 1e-15


def test_mlp_default_init_layout(small_mlp):
    w = small_mlp.default_init(seed=12)
    W1, b1, W2, b2, W3, b3 = MlpRegressionProblem.unpack(w)
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0) and b3[0] == 0.0
    assert np.all(np.abs(W1) <= 1.0)
    bound = 1.0 / math.sqrt(10)
    assert np.all(np.abs(W2) <= bound) and np.all(np.abs(W3) <= bound)


def test_mlp_default_init_needs_a_seed(small_mlp):
    # The init seed is the config's problem.init_seed; the problem keeps no default.
    with pytest.raises(TypeError):
        small_mlp.default_init()


# ------------------------------------------------------- cubic logistic family


def test_cubic_score_examples():
    problem = CubicLogisticProblem([[1.0, 2.0]], [1])
    assert problem.scores(np.ones(9), 0.0)[0] == 4.0
    # term-by-term: 1 + 8 + 1 + 4 + 2 + 4 nonlinear, 1 + 2 + 1 linear
    assert problem.scores(np.ones(9), 1.0)[0] == 24.0


def test_cubic_zero_coefficients_give_log_two(small_moons):
    for lam in (0.0, 0.5, 1.0):
        assert abs(small_moons.full_objective(np.zeros(9), lam) - math.log(2.0)) < 1e-15


def test_cubic_gradient_nonlinear_block_scales_with_lambda(small_moons):
    # At w = 0 the sigmoid factor is lambda-independent, so the nonlinear
    # block of the gradient is exactly linear in lambda.
    g1 = small_moons.full_gradient(np.zeros(9), 1.0)
    for lam in (0.25, 0.5, 0.75):
        g = small_moons.full_gradient(np.zeros(9), lam)
        assert np.allclose(g[:6], lam * g1[:6], rtol=0, atol=1e-15)
        assert np.array_equal(g[6:], g1[6:])


def test_cubic_rejects_bad_labels():
    X = np.zeros((4, 2))
    with pytest.raises(ConfigurationError):
        CubicLogisticProblem(X, np.array([0.0, 1.0, 2.0, 0.0]))
    with pytest.raises(ConfigurationError):
        CubicLogisticProblem(np.zeros((4, 3)), np.array([0.0, 1.0, 0.0, 1.0]))


def test_cubic_classification_error(small_moons):
    # c9 large positive scores everything as class 1.
    w = np.zeros(9)
    w[8] = 10.0
    assert small_moons.epoch_metrics(w[None], 1.0)[1][0] == 0.5


def test_cubic_loss_stable_for_large_scores(small_moons):
    w = np.full(9, 50.0)
    value = small_moons.full_objective(w, 1.0)
    assert np.isfinite(value)


def test_cubic_loss_is_np_logaddexp_within_two_ulp():
    # The loss is np.logaddexp(0, z)'s own split on numpy's vector exp and log1p, where
    # np.logaddexp runs a scalar libm loop: the two differ by at most 2 ulp (both lie
    # within about 1.5 ulp of an extended-precision reference), never in NaN or inf.
    # A one-sample row's objective at label 0 is the loss itself (it subtracts 0 * z = +-0).
    tiny = np.finfo(float).smallest_subnormal
    z = np.concatenate([np.linspace(-800.0, 800.0, 400_001),
                        [tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308]])
    objective, _ = CubicLogisticProblem._metrics(z[:, None], np.zeros((len(z), 1)))
    reference = np.logaddexp(0.0, z)
    assert np.all(np.isfinite(objective)) and np.array_equal(objective[:1], [0.0])
    ulps = np.abs(objective.view(np.int64) - reference.view(np.int64))
    assert ulps.max() <= 2 and np.mean(ulps > 0) < 0.05
    # At 0, -0, +-inf and NaN the objective is np.logaddexp(0, z) - y z's (a NaN's sign apart).
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        for y in (0.0, 1.0):
            labels = np.full((len(special), 1), y)
            objective, _ = CubicLogisticProblem._metrics(special[:, None], labels)
            old = np.logaddexp(0.0, special) - y * special
            assert np.array_equal(objective, old, equal_nan=True)


# A family's oracle under one OPENBLAS_NUM_THREADS setting: the digest of its
# full-batch and minibatch results, in a 3-row block at a float and a column lambda.
BLAS_THREAD_SCRIPT = """
import hashlib, numpy as np
from homotopy_opt import core, datasets, problems
{build}
rng = core.make_rng(51)
W = rng.standard_normal((3, problem.dimension))
idx = {draw}
column = np.array([[0.0], [0.37], [1.0]])
parts = [problem.epoch_metrics(W, 0.37), problem.epoch_metrics(W, column),
         problem.gradient(W, 0.37, with_metrics=True), problem.gradient(W, column, idx, True)]
flat = lambda x: b"".join(map(flat, x)) if isinstance(x, tuple) else x.tobytes()
print(hashlib.sha256(b"".join(map(flat, parts))).hexdigest())
"""


def blas_thread_digests(build, draw):
    """The digests of BLAS_THREAD_SCRIPT under OPENBLAS_NUM_THREADS 1 and 2.

    ``build`` makes ``problem``; ``draw`` is the expression of its (3, M) minibatch indices.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = BLAS_THREAD_SCRIPT.format(build=build, draw=draw)
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    return digests


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_a_row_does_not_depend_on_the_layout_of_its_block(experiment):
    # A strided view of a Fortran-ordered block and a C-ordered copy of the same rows
    # give the same bytes: no family's arithmetic may depend on its operands' layout.
    problem = small_family(experiment)
    rng = make_rng(52)
    W = np.asfortranarray(rng.standard_normal((10, problem.dimension)))
    idx = core._draw_minibatch(rng, problem.sample_count, 20, len(W))
    results = []
    for rows, at in ((W[::2], idx[::2]), (np.ascontiguousarray(W[::2]), idx[::2].copy())):
        (value, aux), grad = problem.gradient(rows, 0.37, at, with_metrics=True)
        arrays = [*problem.epoch_metrics(rows, 0.37), problem.gradient(rows, 0.37), value, aux]
        results.append([None if a is None else a.tobytes() for a in [*arrays, grad]])
    assert results[0] == results[1]


def test_cubic_oracle_bytes_do_not_depend_on_blas_threads():
    # A moons oracle on N = 20,000 samples. OpenBLAS 0.3.31 threads a gemv only from
    # 460,800 elements (9 x m, m >= 51,200), so it threads none of these; at N = 200,000
    # the gradient gemv splits its sum over m between threads and its bytes move.
    build = ("data = datasets.gen_moons(20_000, 0.1, 5)\n"
             "problem = problems.CubicLogisticProblem(data.inputs, data.targets)")
    draw = "core._draw_minibatch(rng, problem.sample_count, 2_000, 3)"
    assert len(blas_thread_digests(build, draw)) == 1


def test_mlp_oracle_bytes_do_not_depend_on_blas_threads():
    # An MLP oracle on N = 100,000 samples and minibatches of 60,000. On 2 CPUs,
    # OpenBLAS 0.3.31 threaded the hidden layer's gemms (W2 @ a1, W2^T @ d_a2) from about
    # m = 10,000, the output gemv (W3 @ a2, 10 x m elements) from m = 46,080 and the first
    # layer's K = 2 gemm from about m = 50,000; a gemv that sums over m would split its
    # sum at the same size, so the oracle sums over the samples in einsum.
    build = ("data = datasets.gen_sine(100_000, 10.0, 0.3, 5)\n"
             "problem = problems.MlpRegressionProblem(data.inputs[:, 0], data.targets,"
             " data.source_targets)")
    draw = "np.stack([rng.permutation(problem.sample_count)[:60_000] for _ in range(3)])"
    assert len(blas_thread_digests(build, draw)) == 1


# ------------------------------------------------------- quadratic tracking


def test_quadratic_tracking_objective_and_offsets():
    prob = QuadraticTrackingProblem(2.0, np.array([1.0, 2.0, 3.0, 6.0]))
    assert abs(prob.offsets.mean()) < 1e-15
    assert prob.full_objective(np.array([0.5]), 0.5) == 0.0
    assert prob.full_objective(np.array([1.5]), 0.5) == 1.0


def test_quadratic_tracking_validates_lambda():
    prob = QuadraticTrackingProblem(1.0, np.array([0.5, -0.5]))
    with pytest.raises(ConfigurationError):
        prob.full_objective(np.array([0.0]), 1.2)
    with pytest.raises(ConfigurationError):
        prob.minibatch_value_and_gradient(np.array([0.0]), -0.1, np.array([0]))


def test_quadratic_oracle_variance_matches_enumeration():
    rng = make_rng(8)
    prob = QuadraticTrackingProblem(1.3, rng.standard_normal(6))
    w, lam = np.array([0.7]), 0.4
    full = prob.full_gradient(w, lam)
    for m in (1, 2):
        sq = [
            float(np.sum((prob.minibatch_value_and_gradient(w, lam, np.array(idx))[1] - full) ** 2))
            for idx in itertools.combinations(range(6), m)
        ]
        assert abs(np.mean(sq) - prob.oracle_variance(m)) < 1e-12
    assert prob.oracle_variance(6) == 0.0


# ------------------------------------------------------- cross-family contracts


@pytest.mark.parametrize("family", ["erf", "mlp", "moons", "quadratic"])
def test_full_gradient_equals_all_sample_minibatch(family, small_erf, small_mlp, small_moons):
    prob = {
        "erf": small_erf,
        "mlp": small_mlp,
        "moons": small_moons,
        "quadratic": QuadraticTrackingProblem(1.0, np.array([0.3, -0.2, 0.5, -0.6])),
    }[family]
    rng = make_rng(21)
    for _ in range(5):
        w = rng.standard_normal(prob.dimension)
        lam = rng.random()
        _, g_all = prob.minibatch_value_and_gradient(w, lam, np.arange(prob.sample_count))
        g_full = prob.full_gradient(w, lam)
        scale = max(1.0, float(np.linalg.norm(g_full)))
        assert np.linalg.norm(g_all - g_full) / scale < 1e-12


@pytest.mark.parametrize("family", ["erf", "mlp", "moons", "quadratic"])
def test_oracle_unbiasedness_exhaustive(family, small_erf, small_mlp, small_moons):
    prob = {
        "erf": small_erf,
        "mlp": small_mlp,
        "moons": small_moons,
        "quadratic": QuadraticTrackingProblem(1.0, np.array([0.3, -0.2, 0.5, -0.6])),
    }[family]
    rng = make_rng(13)
    w = 0.5 * rng.standard_normal(prob.dimension)
    for lam in (0.0, 0.6, 1.0):
        full = prob.full_gradient(w, lam)
        for m in (1, 2, 3):
            if m > prob.sample_count:
                continue
            mean_g = exhaustive_mean_gradient(prob, w, lam, m)
            scale = max(1.0, float(np.linalg.norm(full)))
            assert np.linalg.norm(mean_g - full) / scale < 1e-12


def test_endpoint_consistency(small_erf, small_mlp, small_moons):
    # f(w, 1) must equal the target objective and f(w, 0) the source
    # objective computed directly from the stored labels.
    rng = make_rng(30)
    for _ in range(100):
        w = rng.standard_normal(1)
        u = erf(w[0] * small_erf.xs)
        tgt = np.mean((u - small_erf.y_target) ** 2)
        src = np.mean((u - small_erf.y_source) ** 2)
        assert abs(small_erf.full_objective(w, 1.0) - tgt) <= 1e-12 * max(1, tgt)
        assert abs(small_erf.full_objective(w, 0.0) - src) <= 1e-12 * max(1, src)
    for _ in range(20):
        w = 0.3 * rng.standard_normal(141)
        pred = small_mlp.outputs(w[None])[0]
        tgt = np.mean((pred - small_mlp.y_target) ** 2)
        src = np.mean((pred - small_mlp.y_source) ** 2)
        assert abs(small_mlp.full_objective(w, 1.0) - tgt) <= 1e-12 * max(1, tgt)
        assert abs(small_mlp.full_objective(w, 0.0) - src) <= 1e-12 * max(1, src)
    for _ in range(20):
        w = rng.standard_normal(9)
        z0 = small_moons.scores(w, 0.0)
        lin = w[6:] @ small_moons.phiT[6:]
        assert np.allclose(z0, lin, rtol=0, atol=1e-15)


# A lambda column of 11 rows, each endpoint three times: with the chunked
# budget (7 rows of N = 30, 1 on the MLP) it is cut as W is.
COLUMN_LAMBDAS = [0.0, 1.0, 0.37, 0.0, 0.91, 1.0, 0.5, 0.12, 0.63, 1.0, 0.0]


def label_minibatch_outputs(problem, W, idx):
    """Each row's model outputs at its own samples idx[r], from a family built on those samples."""
    return np.concatenate([type(problem)(problem.xs[i], problem.y_target[i], problem.y_source[i])
                           .outputs(W[r:r + 1]) for r, i in enumerate(idx)])


def erf_minibatch_metrics(problem, W, lam, idx):
    res = erf(W[:, :1] * problem.xs[idx]) - problem.labels(lam, idx)
    return np.mean(res**2, axis=1), None


def mlp_minibatch_metrics(problem, W, lam, idx):
    out = label_minibatch_outputs(problem, W, idx)
    res = out - problem.labels(lam, idx)
    return np.mean(res**2, axis=1), np.mean((out - problem.y_target[idx]) ** 2, axis=1)


def moons_minibatch_metrics(problem, W, lam, idx):
    # A sample's score bits may depend on its position in the gemv's sample vector,
    # so each row's scores come from a family built on its own samples, in order.
    z = np.concatenate([CubicLogisticProblem(problem.phiT[6:8, i].T, problem.labels01[i])
                        .scores(W[r:r + 1], lam[r:r + 1] if np.ndim(lam) else lam)
                        for r, i in enumerate(idx)])
    y = problem.labels01[idx]
    loss = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))  # np.logaddexp(0, z)'s split
    return np.mean(loss - y * z, axis=1), np.mean((z >= 0.0) != (y == 1.0), axis=1)


def quadratic_minibatch_metrics(problem, W, lam, idx):
    d = W[:, :1] - lam
    b = np.mean(problem.offsets[idx], axis=-1, keepdims=True)
    return (0.5 * problem.mu * d**2 + problem.mu * b * d)[:, 0], None


# Each family's objective and second metric over the samples idx[r] of row
# r, by its per-sample formulas (the minibatch value is the one ``gradient``
# gave before it returned metrics at a minibatch).
MINIBATCH_METRICS = {
    "toy-erf": erf_minibatch_metrics,
    "sine-mlp": mlp_minibatch_metrics,
    "moons-logistic": moons_minibatch_metrics,
    "synthetic-lq": quadratic_minibatch_metrics,
}


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_column_lambda_equals_float_calls_row_for_row(experiment, chunk_budget):
    problem = small_family(experiment)
    rng = make_rng(31)
    W = 0.5 * rng.standard_normal((len(COLUMN_LAMBDAS), problem.dimension))
    column = np.array(COLUMN_LAMBDAS)[:, None]
    # 25 of 30 samples per row: 8 rows per chunk (1 on the MLP) under the chunked budget.
    idx = core._draw_minibatch(rng, problem.sample_count, 25, len(W))

    objective = problem.objective(W, column)
    metrics = problem.epoch_metrics(W, column)
    full = problem.gradient(W, column, with_metrics=True)
    mini = problem.gradient(W, column, idx, with_metrics=True)
    for r, lam in enumerate(COLUMN_LAMBDAS):
        row = W[r:r + 1]
        assert objective[r] == problem.objective(row, lam)[0]
        values, aux = problem.epoch_metrics(row, lam)
        assert metrics[0][r] == values[0]
        assert (metrics[1] is None) if aux is None else metrics[1][r] == aux[0]
        for ((block_value, block_aux), block_grad), ((value, aux), grad) in (
                (full, problem.gradient(row, lam, with_metrics=True)),
                (mini, problem.gradient(row, lam, idx[r:r + 1], with_metrics=True))):
            assert block_value[r] == value[0]
            assert (block_aux is None) if aux is None else block_aux[r] == aux[0]
            assert np.array_equal(block_grad[r], grad[0])
    # The metrics at a minibatch are, bit for bit, the per-sample formulas over
    # each row's samples, under a column and under a float lambda.
    for lam, ((value, aux), _) in ((column, mini),
                                   (0.37, problem.gradient(W, 0.37, idx, with_metrics=True))):
        ref_value, ref_aux = MINIBATCH_METRICS[experiment](problem, W, lam, idx)
        assert value.tobytes() == ref_value.tobytes()
        assert (aux is None) if ref_aux is None else aux.tobytes() == ref_aux.tobytes()


def cubic_fancy_index_gradient(problem, W, lam, idx, with_metrics):
    """``CubicLogisticProblem._gradient`` with a fancy-index gather and a branch per gate shape."""
    # A slice-plus-fancy index lays (9, R, M) out sample-major: the copy is feature-major,
    # the layout ``take`` gives, so BLAS runs the same kernel.
    phiT = np.ascontiguousarray(problem.phiT[:, idx]).transpose(1, 0, 2)
    y = problem.labels01[idx]
    if isinstance(lam, np.ndarray):
        gate = np.concatenate([np.repeat(lam, 6, axis=1), np.ones((len(lam), 3))], axis=1)
    else:
        gate = np.array([lam] * 6 + [1.0] * 3)
    z = problem._scores(phiT, W * gate)
    d = (1.0 / (1.0 + np.exp(-z)) - y) / z.shape[1]
    grad = np.matmul(phiT, d[:, :, None])[:, :, 0] * gate
    return (problem._metrics(z, y), grad) if with_metrics else grad


@pytest.mark.parametrize("column", [False, True])
@pytest.mark.parametrize("with_metrics", [False, True])
def test_cubic_minibatch_oracle_equals_a_fancy_index_gather(column, with_metrics):
    problem = small_family("moons-logistic")
    rng = make_rng(43)
    W = rng.standard_normal((len(COLUMN_LAMBDAS), problem.dimension))
    lam = np.array(COLUMN_LAMBDAS)[:, None] if column else 0.37
    idx = core._draw_minibatch(rng, problem.sample_count, 20, len(W))
    got = problem.gradient(W, lam, idx, with_metrics=with_metrics)
    ref = cubic_fancy_index_gradient(problem, W, lam, idx, with_metrics)
    if with_metrics:
        (got_value, got_error), got = got
        (ref_value, ref_error), ref = ref
        assert got_value.tobytes() == ref_value.tobytes()
        assert got_error.tobytes() == ref_error.tobytes()
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("samples", [30, 1_000])
def test_cubic_all_indices_in_order_are_the_full_batch_bit_for_bit(samples, chunk_budget):
    # The sampler gives no indices at M = N and the engine and sigma^2 take the full
    # batch instead: a row's gradient and metrics over all N indices in order must be
    # its full-batch ones, in a block, in one row and under a column lambda.
    data = datasets.gen_moons(samples, 0.1, 5)
    problem = CubicLogisticProblem(data.inputs, data.targets)
    rng = make_rng(53)
    W = rng.standard_normal((len(COLUMN_LAMBDAS), problem.dimension))
    idx = np.tile(np.arange(samples), (len(W), 1))
    for lam in (np.array(COLUMN_LAMBDAS)[:, None], 0.0, 0.37, 1.0):
        for rows in (slice(None), slice(4, 5)):
            lam_rows = lam[rows] if isinstance(lam, np.ndarray) else lam
            (value, error), grad = problem.gradient(W[rows], lam_rows, idx[rows], True)
            (full_value, full_error), full_grad = problem.gradient(W[rows], lam_rows,
                                                                   with_metrics=True)
            assert value.tobytes() == full_value.tobytes()
            assert error.tobytes() == full_error.tobytes()
            assert grad.tobytes() == full_grad.tobytes()


@pytest.mark.parametrize("samples", [30, 500])
def test_mlp_all_indices_in_order_are_the_full_batch_bit_for_bit(samples, chunk_budget):
    # As for moons: the engine and sigma^2 take M = N as the full batch, so a row's
    # gradient, objective and target loss over all N indices in order must be its
    # full-batch ones, in a block, in one row and under a column lambda.
    data = datasets.gen_sine(samples, 10.0, 0.3, 5)
    problem = MlpRegressionProblem(data.inputs[:, 0], data.targets, data.source_targets)
    rng = make_rng(54)
    W = 0.5 * rng.standard_normal((len(COLUMN_LAMBDAS), problem.dimension))
    idx = np.tile(np.arange(samples), (len(W), 1))
    for lam in (np.array(COLUMN_LAMBDAS)[:, None], 0.0, 0.37, 1.0):
        for rows in (slice(None), slice(4, 5)):
            lam_rows = lam[rows] if isinstance(lam, np.ndarray) else lam
            (value, raw), grad = problem.gradient(W[rows], lam_rows, idx[rows], True)
            (full_value, full_raw), full_grad = problem.gradient(W[rows], lam_rows,
                                                                 with_metrics=True)
            assert value.tobytes() == full_value.tobytes()
            assert raw.tobytes() == full_raw.tobytes()
            assert grad.tobytes() == full_grad.tobytes()


def test_column_labels_copy_the_endpoints():
    # The blend 0 * 1.0 + 1 * (-0.0) is +0.0, and so is 1 * (-0.0) + 0 * 3.0:
    # only a copy keeps a -0.0 label, as the float call at lambda 0 or 1 does.
    problem = ErfRegressionProblem(np.zeros(2), [1.0, -0.0], [-0.0, 3.0])
    column = problem.labels(np.array([[0.0], [0.5], [1.0]]))
    for row, lam in zip(column, (0.0, 0.5, 1.0)):
        single = problem.labels(lam)
        assert np.array_equal(row, single) and np.array_equal(np.signbit(row), np.signbit(single))
    assert np.signbit(column[0, 0]) and np.signbit(column[2, 1])


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_the_oracle_never_writes_into_its_inputs(experiment, chunk_budget):
    # A write into a read-only input raises; one into a writable copy shows in its bytes.
    problem = small_family(experiment)
    rng = make_rng(47)
    W = read_only(0.5 * rng.standard_normal((len(COLUMN_LAMBDAS), problem.dimension)))
    idx = read_only(core._draw_minibatch(rng, problem.sample_count, 25, len(W)))
    column = read_only(np.array(COLUMN_LAMBDAS)[:, None])
    inputs = (W, idx, column)
    before = [a.tobytes() for a in inputs]
    for lam in (column, 0.0, 0.37, 1.0):
        for samples in (None, idx):
            for with_metrics in (False, True):
                problem.gradient(W, lam, samples, with_metrics=with_metrics)
        problem.epoch_metrics(W, lam)
    problem.objectives(W, [0.0, 0.37, 1.0])
    writable = [a.copy() for a in inputs]
    problem.gradient(writable[0], writable[2], writable[1], with_metrics=True)
    problem.gradient(writable[0], writable[2], with_metrics=True)
    problem.epoch_metrics(writable[0], writable[2])
    problem.objectives(writable[0], [0.0, 0.37, 1.0])
    assert [a.tobytes() for a in inputs] == before == [a.tobytes() for a in writable]


@pytest.mark.parametrize("experiment", ["toy-erf", "sine-mlp"])
def test_label_gradient_metrics_are_the_loss_at_its_samples(experiment, chunk_budget):
    # The gradient pass takes its objective from the residual it uses; ``loss``
    # forms its own from the outputs. Both give the same bits.
    problem = small_family(experiment)
    rng = make_rng(48)
    W = 0.5 * rng.standard_normal((len(COLUMN_LAMBDAS), problem.dimension))
    idx = core._draw_minibatch(rng, problem.sample_count, 25, len(W))
    at_idx = label_minibatch_outputs(problem, W, idx)
    for lam in (np.array(COLUMN_LAMBDAS)[:, None], 0.0, 0.37, 1.0):
        for samples, out in ((None, problem.outputs(W)), (idx, at_idx)):
            (value, aux), _ = problem.gradient(W, lam, samples, with_metrics=True)
            assert value.tobytes() == problem.loss(out, lam, samples).tobytes()
            raw = None if experiment == "toy-erf" else problem.loss(out, 1.0, samples)
            assert (aux is None) if raw is None else aux.tobytes() == raw.tobytes()


@pytest.mark.parametrize("lam", [1.0, np.float64(1.0)])
def test_mlp_target_loss_at_lambda_one_is_a_copy_of_its_objective(lam, chunk_budget):
    # At a float lambda of 1 the objective is the target loss, so one loss gives both.
    problem = small_family("sine-mlp")
    rng = make_rng(50)
    W = 0.5 * rng.standard_normal((9, problem.dimension))
    idx = core._draw_minibatch(rng, problem.sample_count, 25, len(W))
    at_idx = label_minibatch_outputs(problem, W, idx)
    for samples, out in ((None, problem.outputs(W)), (idx, at_idx)):
        metrics = [problem.gradient(W, lam, samples, with_metrics=True)[0]]
        if samples is None:
            metrics.append(problem.epoch_metrics(W, lam))
        for value, raw in metrics:
            assert value.tobytes() == raw.tobytes() == problem.loss(out, 1.0, samples).tobytes()
            assert not np.shares_memory(value, raw)


def test_labels_are_read_only_or_fresh():
    problem = small_family("toy-erf")
    ys = (problem.y_source, problem.y_target)
    idx = core._draw_minibatch(make_rng(49), problem.sample_count, 5, 4)
    for lam, side in zip((0.0, 1.0), ys):
        whole, gathered = problem.labels(lam), problem.labels(lam, idx)
        assert not whole.flags.writeable and np.array_equal(whole, side)
        assert gathered.flags.writeable and np.array_equal(gathered, side[idx])
        assert not any(np.shares_memory(gathered, y) for y in ys)
    for lam in (0.37, np.array([[0.0], [1.0], [0.37], [1.0]])):
        for samples in (None, idx):
            labels = problem.labels(lam, samples)
            assert labels.flags.writeable and not any(np.shares_memory(labels, y) for y in ys)


class PairOnly(HomotopyProblem):
    """f(w, lam) = (w - lam)^2 written to the pair contract alone: it judges no lambda."""

    dimension, sample_count = 1, 4

    def _epoch_metrics(self, W, lam):
        return ((W[:, :1] - lam) ** 2)[:, 0], None

    def _gradient(self, W, lam, idx=None, with_metrics=False):
        grad = 2.0 * (W[:, :1] - lam)
        return (self._epoch_metrics(W, lam), grad) if with_metrics else grad


@pytest.mark.parametrize("experiment", [*harness.EXPERIMENTS, "pair-only"])
@pytest.mark.parametrize("bad", [-0.25, 1.5, np.nan])
def test_column_lambda_outside_unit_interval_is_rejected(experiment, bad):
    # The base judges lambda, so a family that implements only the pair is covered too.
    problem = PairOnly() if experiment == "pair-only" else small_family(experiment)
    W = np.zeros((3, problem.dimension))
    for lam in (bad, np.array([[0.2], [bad], [1.0]])):
        for evaluate in (problem.objective, problem.epoch_metrics, problem.gradient):
            with pytest.raises(ConfigurationError, match=r"must lie in \[0, 1\], got"):
                evaluate(W, lam)


# Every array a family holds, by attribute name.
FAMILY_ARRAYS = {
    "erf": ("xs", "y_target", "y_source"),
    "mlp": ("xs", "y_target", "y_source"),
    "moons": ("phiT", "labels01"),
    "quadratic": ("offsets",),
}


@pytest.mark.parametrize("family", sorted(FAMILY_ARRAYS))
def test_problem_arrays_are_read_only_copies(family):
    xs = np.array([0.1, -0.5, 0.8, 0.3, -0.9, 0.6])
    X = np.column_stack([xs, xs**2])
    y01 = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    build = {
        "erf": lambda: ErfRegressionProblem(xs, np.sin(xs), -2.0 * xs),
        "mlp": lambda: MlpRegressionProblem(xs, np.sin(10 * xs), xs**2),
        "moons": lambda: CubicLogisticProblem(X, y01),
        "quadratic": lambda: QuadraticTrackingProblem(1.0, xs),
    }[family]
    prob = build()
    w = 0.3 * np.ones(prob.dimension)
    before = prob.full_objective(w, 0.5)
    for name in FAMILY_ARRAYS[family]:
        with pytest.raises(ValueError, match="read-only"):
            getattr(prob, name)[0] = 99.0
    # The caller's arrays are copied, so writing to them moves nothing.
    for source in (xs, X, y01):
        source[0] += 1.0
    assert prob.full_objective(w, 0.5) == before


def test_family_must_implement_the_batched_pair():
    # ``objective``, the chunked public methods and the single-point methods
    # are views of the batched pair, not a second way to define a family: a
    # subclass with only them cannot be built.
    class PointOnly(HomotopyProblem):
        dimension = 1
        sample_count = 1

        def full_objective(self, w, lam):
            return 0.0

        def minibatch_value_and_gradient(self, w, lam, indices):
            return 0.0, np.zeros(1)

    with pytest.raises(TypeError, match="abstract method.*_epoch_metrics.*_gradient"):
        PointOnly()

    class ObjectiveAndGradient(HomotopyProblem):
        def objective(self, W, lam):
            return np.zeros(len(W))

        def _gradient(self, W, lam, idx=None, with_metrics=False):
            return np.zeros_like(W)

    with pytest.raises(TypeError, match="abstract method.*_epoch_metrics"):
        ObjectiveAndGradient()

    class MetricsOnly(HomotopyProblem):
        def _epoch_metrics(self, W, lam):
            return np.zeros(len(W)), None

    with pytest.raises(TypeError, match="abstract method.*_gradient"):
        MetricsOnly()


def test_only_problems_names_a_family_type():
    # What differs between families lives in their classes: a type check
    # against one of them, or an import from ``problems``, anywhere else in
    # the package would be a family branch outside it. Building a family as
    # ``problems.<Class>(...)`` (harness.EXPERIMENTS) is no branch.
    source = Path(problems.__file__)
    families = {node.name for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
                if isinstance(node, ast.ClassDef)}

    def names_family(node):
        return any(isinstance(n, ast.Name) and n.id in families
                   or isinstance(n, ast.Attribute) and n.attr in families for n in ast.walk(node))

    found = []
    for path in sorted(source.parent.glob("*.py")):
        if path == source:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "issubclass")
                    and len(node.args) == 2 and names_family(node.args[1])
                    or isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "problems"):
                found.append(f"{path.name}:{node.lineno}")
    assert families and found == [], f"a family type is named outside problems.py at {found}"


def test_only_problems_owns_the_row_chunk_bound():
    # Every block a family evaluates goes through the base's public methods,
    # which cut it to EPOCH_CHUNK_ELEMENTS over the family's sample_width: a
    # second copy of the bound or the width, a chunk call of its own, or a
    # family overriding a chunked method would let a block past it. The grid
    # f* pass, one ``objectives`` model pass per chunk, is the one caller that
    # cuts its own rows.
    source = Path(problems.__file__)
    named, chunked = [], []
    for path in sorted(source.parent.glob("*.py")):
        if path == source:
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else node.attr
                        if isinstance(node, ast.Attribute) else node.name
                        if isinstance(node, ast.alias) else None)
                if name in ("EPOCH_CHUNK_ELEMENTS", "sample_width"):
                    named.append(f"{path.name}:{node.lineno}:{name}")
                elif name == "in_row_chunks":
                    chunked.append(f"{path.name}:{getattr(top, 'name', node.lineno)}")
    assert named == [], f"the row-chunk bound is named outside problems.py at {named}"
    assert chunked == ["diagnostics.py:_grid_fstar"]
    tree = ast.parse(source.read_text(encoding="utf-8"))
    families = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name != "HomotopyProblem"]
    overrides = [f"{cls.name}.{fn.name}" for cls in families for fn in cls.body
                 if isinstance(fn, ast.FunctionDef)
                 and fn.name in ("gradient", "epoch_metrics", "objective")]
    assert len(families) == 5 and overrides == [], f"a family overrides a chunked method: {overrides}"


def default_problem(experiment):
    """The experiment's problem family at its default config, and that config."""
    cfg = harness.ExperimentConfig.from_dict({"experiment": experiment})
    return harness.build_problem(cfg, harness.build_dataset(cfg))[0], cfg


# Rows per full-batch call at each experiment's default N: 25,000 elements of
# its widest per-sample temporary, N wide on every family but the MLP (10 x N).
FULL_BATCH_CHUNK_ROWS = {"toy-erf": 250, "sine-mlp": 5, "moons-logistic": 25, "synthetic-lq": 390}


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_row_chunks_at_the_default_sizes(experiment):
    # A change of the budget or of a family's width moves these rows, and
    # with them that family's timing and peak memory.
    problem, cfg = default_problem(experiment)

    def rows_per_call(rows, idx=None):
        seen = []
        problem.in_row_chunks(lambda W, lam, *_: seen.append(len(W)),
                              np.zeros((rows, problem.dimension)), 1.0, idx)
        return seen

    full = FULL_BATCH_CHUNK_ROWS[experiment]
    assert rows_per_call(2 * full + 1) == [full, full, 1]
    # At the default minibatch the whole block of repeats, and so any slice
    # of it, is one call.
    idx = np.zeros((cfg.repeats, cfg.optimizer["minibatch"]), dtype=np.intp)
    assert rows_per_call(cfg.repeats, idx) == [cfg.repeats]


def traced_peak_mb(call):
    """The peak memory ``call()`` allocates while it runs, in MB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_mlp_temporaries_stay_within_the_row_chunk_bound():
    # sine-mlp at N = 500: a bound blind to the width would evaluate a 50-row
    # record in one chunk of (50, 500, 10) blocks, 2 MB each (a 4.5 MB peak),
    # and a 1000-row full gradient 50 rows at a time (7.8 MB). Chunks of 5
    # rows keep each block at 200 KB.
    problem, _ = default_problem("sine-mlp")
    W = 0.3 * make_rng(2).standard_normal((1000, problem.dimension))
    assert traced_peak_mb(lambda: problem.epoch_metrics(W[:50], 0.5)) < 1.0
    assert traced_peak_mb(lambda: problem.gradient(W, 1.0)) < 3.0
