"""Problem families: objectives, analytic gradients and homotopy maps."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import erf

from homotopy_opt.core import make_rng
from homotopy_opt.problems import (
    MLP_DIMENSION,
    CubicLogisticProblem,
    DataError,
    DomainError,
    HomotopyProblem,
    LabelInterpolationMap,
    MlpRegressionProblem,
    cubic_logistic_problem,
    erf_problem,
    mlp_sine_problem,
    quadratic_tracking_problem,
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
    return erf_problem(xs, ys, -2.0 * xs)


@pytest.fixture
def small_mlp():
    xs = np.array([0.1, -0.5, 0.8, 0.3, -0.9])
    return mlp_sine_problem(xs, np.sin(10 * xs), xs**2, init_spec=7)


@pytest.fixture
def small_moons():
    X = np.array([[1.0, 0.0], [-1.0, 0.1], [0.0, 0.5], [2.0, 0.4], [0.3, 0.9], [1.4, -0.2]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    return cubic_logistic_problem(X, y)


# ---------------------------------------------------------------- label map


def test_label_interpolation_endpoints_exact():
    m = LabelInterpolationMap(np.array([2.0, -1.0]), np.array([0.5, 3.0]))
    assert np.array_equal(m.at(0.0), [0.5, 3.0])
    assert np.array_equal(m.at(1.0), [2.0, -1.0])
    assert np.array_equal(m.at(0.5), [1.25, 1.0])


def test_label_interpolation_validates():
    with pytest.raises(DataError):
        LabelInterpolationMap(np.array([1.0, 2.0]), np.array([1.0]))
    m = LabelInterpolationMap(np.array([1.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        m.at(1.5)
    with pytest.raises(DomainError):
        m.at(-0.01)


# ---------------------------------------------------------------- erf family


def test_erf_closed_form_at_zero(small_erf):
    # erf(0) = 0 and erf'(0) = 2/sqrt(pi).
    y = small_erf.labels.y_target
    x = small_erf.xs
    value, grad = small_erf.minibatch_value_and_gradient(
        np.array([0.0]), 1.0, np.arange(x.size))
    assert abs(value - np.mean(y**2)) < 1e-15
    expected = -(4.0 / (x.size * np.sqrt(np.pi))) * np.sum(y * x)
    assert abs(grad[0] - expected) < 1e-14


def test_erf_zero_residual_dataset():
    xs = np.linspace(-1, 1, 8)
    wbar = 1.7
    prob = erf_problem(xs, erf(wbar * xs), np.zeros(8))
    value, grad = prob.minibatch_value_and_gradient(np.array([wbar]), 1.0, np.arange(8))
    assert value < 1e-30
    assert abs(grad[0]) < 1e-15


def test_erf_batched_objective_matches_scalar(small_erf):
    ws = np.linspace(-3, 3, 11)
    grid_vals = small_erf.objective(ws[:, None], 0.4)
    for w, v in zip(ws, grid_vals):
        assert abs(v - small_erf.full_objective(np.array([w]), 0.4)) < 1e-14


def test_erf_rejects_bad_inputs():
    from homotopy_opt.core import ConfigurationError
    with pytest.raises(ConfigurationError):
        erf_problem(np.array([]), np.array([]), np.array([]))
    with pytest.raises(ConfigurationError):
        erf_problem(np.array([1.0, 2.0]), np.array([1.0]), np.array([1.0]))
    prob = erf_problem(np.array([0.5]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(DomainError):
        prob.full_objective(np.array([0.0]), 1.2)


# ---------------------------------------------------------------- MLP family


def test_mlp_dimension_and_pack_roundtrip(small_mlp):
    assert small_mlp.dimension == MLP_DIMENSION == 141
    w = make_rng(0).standard_normal(141)
    assert np.array_equal(MlpRegressionProblem.pack(*MlpRegressionProblem.unpack(w)), w)


def test_mlp_zero_parameters_closed_form(small_mlp):
    w = np.zeros(141)
    lam = 0.7
    y = lam * small_mlp.labels.y_target + (1 - lam) * small_mlp.labels.y_source
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
    res = small_mlp.predict(w, small_mlp.xs) - small_mlp.labels.y_target
    assert abs(small_mlp.full_objective(w, 1.0) - np.mean(res**2)) < 1e-15


def test_mlp_default_init_layout(small_mlp):
    w = small_mlp.default_init(seed=12)
    W1, b1, W2, b2, W3, b3 = MlpRegressionProblem.unpack(w)
    assert np.all(b1 == 0.0) and np.all(b2 == 0.0) and b3[0] == 0.0
    assert np.all(np.abs(W1) <= 1.0)
    bound = 1.0 / math.sqrt(10)
    assert np.all(np.abs(W2) <= bound) and np.all(np.abs(W3) <= bound)


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
    with pytest.raises(DataError):
        cubic_logistic_problem(X, np.array([0.0, 1.0, 2.0, 0.0]))
    with pytest.raises(DataError):
        cubic_logistic_problem(np.zeros((4, 3)), np.array([0.0, 1.0, 0.0, 1.0]))


def test_cubic_classification_error(small_moons):
    # c9 large positive scores everything as class 1.
    w = np.zeros(9)
    w[8] = 10.0
    assert small_moons.classification_error(w, 1.0) == 0.5


def test_cubic_loss_stable_for_large_scores(small_moons):
    w = np.full(9, 50.0)
    value = small_moons.full_objective(w, 1.0)
    assert np.isfinite(value)


# ------------------------------------------------------- quadratic tracking


def test_quadratic_tracking_objective_and_offsets():
    prob = quadratic_tracking_problem(2.0, np.array([1.0, 2.0, 3.0, 6.0]))
    assert abs(prob.offsets.mean()) < 1e-15
    assert prob.full_objective(np.array([0.5]), 0.5) == 0.0
    assert prob.full_objective(np.array([1.5]), 0.5) == 1.0


def test_quadratic_tracking_validates_lambda():
    prob = quadratic_tracking_problem(1.0, np.array([0.5, -0.5]))
    with pytest.raises(DomainError):
        prob.full_objective(np.array([0.0]), 1.2)
    with pytest.raises(DomainError):
        prob.minibatch_value_and_gradient(np.array([0.0]), -0.1, np.array([0]))


def test_quadratic_oracle_variance_matches_enumeration():
    rng = make_rng(8)
    prob = quadratic_tracking_problem(1.3, rng.standard_normal(6))
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
        "quadratic": quadratic_tracking_problem(1.0, np.array([0.3, -0.2, 0.5, -0.6])),
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
        "quadratic": quadratic_tracking_problem(1.0, np.array([0.3, -0.2, 0.5, -0.6])),
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
        tgt = np.mean((u - small_erf.labels.y_target) ** 2)
        src = np.mean((u - small_erf.labels.y_source) ** 2)
        assert abs(small_erf.full_objective(w, 1.0) - tgt) <= 1e-12 * max(1, tgt)
        assert abs(small_erf.full_objective(w, 0.0) - src) <= 1e-12 * max(1, src)
    for _ in range(20):
        w = 0.3 * rng.standard_normal(141)
        pred = small_mlp.predict(w, small_mlp.xs)
        tgt = np.mean((pred - small_mlp.labels.y_target) ** 2)
        src = np.mean((pred - small_mlp.labels.y_source) ** 2)
        assert abs(small_mlp.full_objective(w, 1.0) - tgt) <= 1e-12 * max(1, tgt)
        assert abs(small_mlp.full_objective(w, 0.0) - src) <= 1e-12 * max(1, src)
    for _ in range(20):
        w = rng.standard_normal(9)
        z0 = small_moons.scores(w, 0.0)
        lin = small_moons.phi_lin @ w[6:]
        assert np.allclose(z0, lin, rtol=0, atol=1e-15)


# Every array a family holds, by attribute path.
FAMILY_ARRAYS = {
    "erf": ("xs", "labels.y_target", "labels.y_source"),
    "mlp": ("xs", "labels.y_target", "labels.y_source"),
    "moons": ("phi", "phi_lin", "labels01"),
    "quadratic": ("offsets",),
}


@pytest.mark.parametrize("family", sorted(FAMILY_ARRAYS))
def test_problem_arrays_are_read_only_copies(family):
    xs = np.array([0.1, -0.5, 0.8, 0.3, -0.9, 0.6])
    X = np.column_stack([xs, xs**2])
    y01 = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    build = {
        "erf": lambda: erf_problem(xs, np.sin(xs), -2.0 * xs),
        "mlp": lambda: mlp_sine_problem(xs, np.sin(10 * xs), xs**2, init_spec=7),
        "moons": lambda: cubic_logistic_problem(X, y01),
        "quadratic": lambda: quadratic_tracking_problem(1.0, xs),
    }[family]
    prob = build()
    w = 0.3 * np.ones(prob.dimension)
    before = prob.full_objective(w, 0.5)
    for path in FAMILY_ARRAYS[family]:
        array = prob
        for name in path.split("."):
            array = getattr(array, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 99.0
    # The caller's arrays are copied, so writing to them moves nothing.
    for source in (xs, X, y01):
        source[0] += 1.0
    assert prob.full_objective(w, 0.5) == before


def test_family_must_implement_the_batched_pair():
    # The single-point methods are views of the batched pair, not a second
    # way to define a family: a subclass with only them cannot be built.
    class PointOnly(HomotopyProblem):
        dimension = 1
        sample_count = 1

        def full_objective(self, w, lam):
            return 0.0

        def minibatch_value_and_gradient(self, w, lam, indices):
            return 0.0, np.zeros(1)

    with pytest.raises(TypeError, match="abstract method.*gradient.*objective"):
        PointOnly()

    class ObjectiveOnly(HomotopyProblem):
        def objective(self, W, lam):
            return np.zeros(len(W))

    with pytest.raises(TypeError, match="abstract method.*gradient"):
        ObjectiveOnly()
