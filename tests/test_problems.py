"""Problem families: objectives, analytic gradients and homotopy maps."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from conftest import small_family
from homotopy_opt import core, harness, problems
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
    labels = ErfRegressionProblem(np.zeros(1), np.array([1.0]), np.array([0.0])).labels
    with pytest.raises(ConfigurationError):
        labels(1.5)
    with pytest.raises(ConfigurationError):
        labels(-0.01)


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
        lin = small_moons.phi[:, 6:] @ w[6:]
        assert np.allclose(z0, lin, rtol=0, atol=1e-15)


# A lambda column of 11 rows, each endpoint three times: with the chunked
# budget (7 rows of N = 30) it is cut as W is.
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
    z = np.take_along_axis(problem.scores(W, lam), idx, axis=1)
    y = problem.labels01[idx]
    return np.mean(np.logaddexp(0.0, z) - y * z, axis=1), np.mean((z >= 0.0) != (y == 1.0), axis=1)


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
    # 25 of 30 samples per row: 8 rows per chunk under the chunked budget.
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
    phi, y = problem.phi[idx], problem.labels01[idx]
    if isinstance(lam, np.ndarray):
        gate = np.concatenate([np.repeat(lam, 6, axis=1), np.ones((len(lam), 3))], axis=1)
    else:
        gate = np.array([lam] * 6 + [1.0] * 3)
    z = problem._scores(phi, W * gate)
    d = (1.0 / (1.0 + np.exp(-z)) - y) / z.shape[1]
    grad = np.einsum("...m,...mk->...k", d, phi) * gate
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


def test_column_labels_copy_the_endpoints():
    # The blend 0 * 1.0 + 1 * (-0.0) is +0.0, and so is 1 * (-0.0) + 0 * 3.0:
    # only a copy keeps a -0.0 label, as the float call at lambda 0 or 1 does.
    problem = ErfRegressionProblem(np.zeros(2), [1.0, -0.0], [-0.0, 3.0])
    column = problem.labels(np.array([[0.0], [0.5], [1.0]]))
    for row, lam in zip(column, (0.0, 0.5, 1.0)):
        single = problem.labels(lam)
        assert np.array_equal(row, single) and np.array_equal(np.signbit(row), np.signbit(single))
    assert np.signbit(column[0, 0]) and np.signbit(column[2, 1])


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
@pytest.mark.parametrize("bad", [-0.25, 1.5, np.nan])
def test_column_lambda_outside_unit_interval_is_rejected(experiment, bad):
    problem = small_family(experiment)
    W = np.zeros((3, problem.dimension))
    for lam in (bad, np.array([[0.2], [bad], [1.0]])):
        for evaluate in (problem.objective, problem.epoch_metrics, problem.gradient):
            with pytest.raises(ConfigurationError, match=r"must lie in \[0, 1\], got"):
                evaluate(W, lam)


# Every array a family holds, by attribute name.
FAMILY_ARRAYS = {
    "erf": ("xs", "y_target", "y_source"),
    "mlp": ("xs", "y_target", "y_source"),
    "moons": ("phi", "labels01"),
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
    # which cut it to EPOCH_CHUNK_ELEMENTS: a second copy of the bound, a chunk
    # call of its own, or a family overriding a chunked method would let a
    # block past it. The grid f* pass, one ``objectives`` model pass per chunk,
    # is the one caller that cuts its own rows.
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
                if name == "EPOCH_CHUNK_ELEMENTS":
                    named.append(f"{path.name}:{node.lineno}")
                elif name == "in_row_chunks":
                    chunked.append(f"{path.name}:{getattr(top, 'name', node.lineno)}")
    assert named == [], f"EPOCH_CHUNK_ELEMENTS is named outside problems.py at {named}"
    assert chunked == ["diagnostics.py:_grid_fstar"]
    tree = ast.parse(source.read_text(encoding="utf-8"))
    families = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name != "HomotopyProblem"]
    overrides = [f"{cls.name}.{fn.name}" for cls in families for fn in cls.body
                 if isinstance(fn, ast.FunctionDef)
                 and fn.name in ("gradient", "epoch_metrics", "objective")]
    assert len(families) == 5 and overrides == [], f"a family overrides a chunked method: {overrides}"
