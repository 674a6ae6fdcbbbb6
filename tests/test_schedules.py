"""Homotopy-parameter schedule construction and its contracts."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homotopy_opt.core import ConfigurationError, Schedule, clamp_lambda, make_schedule

SUM_TOL = 1e-12


def test_constant_schedule_is_uniform():
    sched = make_schedule("constant", 5)
    assert np.allclose(sched.increments, 0.2, rtol=0, atol=0)


def test_exponential_single_step_takes_whole_budget():
    for eta in (0.0, 0.3, 7.0):
        sched = make_schedule("exponential", 1, eta=eta)
        assert sched.increments[0] == 1.0


def test_exponential_two_step_geometric_weights():
    # weights (1/2, 1/4) normalized by 3/4 give (2/3, 1/3)
    sched = make_schedule("exponential", 2, eta=np.log(2.0))
    assert abs(sched.increments[0] - 2.0 / 3.0) < 1e-15
    assert abs(sched.increments[1] - 1.0 / 3.0) < 1e-15


def test_explicit_schedule_normalizes():
    sched = make_schedule("explicit", 3, explicit=[2.0, 1.0, 1.0])
    assert np.allclose(sched.increments, [0.5, 0.25, 0.25], rtol=0, atol=1e-15)


def test_invalid_schedules_rejected():
    with pytest.raises(ConfigurationError):
        make_schedule("constant", 0)
    with pytest.raises(ConfigurationError):
        make_schedule("exponential", 5, eta=-0.1)
    with pytest.raises(ConfigurationError, match="underflows to 0 at eta = 80.0, n = 10"):
        make_schedule("exponential", 10, eta=80.0)  # e^(-800) is 0
    with pytest.raises(ConfigurationError, match="underflows to 0 at eta = 746.0, n = 3"):
        make_schedule("exponential", 3, eta=746.0)  # e^(-746) is 0: the weights would be NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # e^(-745.1) is the subnormal 5e-324, which dividing by the sum (~1000) rounds to 0.
        with pytest.raises(ConfigurationError, match="underflows to 0 at eta = 0.001, n = 745100"):
            make_schedule("exponential", 745100, eta=0.001)
    with pytest.raises(ConfigurationError):
        make_schedule("exponential", 5)
    with pytest.raises(ConfigurationError):
        make_schedule("explicit", 3, explicit=[1.0, -1.0, 1.0])
    with pytest.raises(ConfigurationError):
        make_schedule("explicit", 3)
    with pytest.raises(ConfigurationError):
        make_schedule("explicit", 3, explicit=[1.0, 1.0])
    with pytest.raises(ConfigurationError):
        make_schedule("sigmoid", 3)


def test_schedule_type_validates_sum_and_range():
    with pytest.raises(ConfigurationError):
        Schedule(np.array([0.5, 0.4]))
    with pytest.raises(ConfigurationError):
        Schedule(np.array([1.5, -0.5]))
    with pytest.raises(ConfigurationError, match=r"lie in \(0, 1\]"):
        Schedule(np.array([np.nan, np.nan]))  # NaN fails every comparison


def test_schedule_length_is_its_increment_count():
    sched = Schedule(np.array([0.25, 0.75]))
    assert sched.n == 2
    assert sched.lambdas().tolist() == [0.25, 1.0]


@pytest.mark.parametrize("increments", [np.array([]), np.array([[0.5, 0.5]]), np.array(1.0)])
def test_schedule_rejects_increments_that_are_not_a_nonempty_vector(increments):
    with pytest.raises(ConfigurationError, match="non-empty 1-D"):
        Schedule(increments)


def test_lambdas_accumulate_to_one():
    sched = make_schedule("constant", 4)
    assert np.allclose(sched.lambdas(), [0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-15)
    assert sched.lambdas()[-1] == 1.0


def test_clamp_lambda_snaps_ulp_overshoot_only():
    assert clamp_lambda(1.0 + 5e-13) == 1.0
    assert clamp_lambda(-5e-13) == 0.0
    assert clamp_lambda(1.0 + 1e-11) != 1.0
    assert clamp_lambda(0.7) == 0.7


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["constant", "exponential", "explicit"]),
    n=st.integers(min_value=1, max_value=400),
    eta=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_schedule_contract_properties(kind, n, eta, seed):
    if kind == "explicit":
        rng = np.random.Generator(np.random.PCG64(seed))
        sched = make_schedule("explicit", n, explicit=rng.uniform(0.1, 2.0, n))
    else:
        # eta * n beyond ~600 underflows the smallest geometric weight to
        # zero, which the schedule validator rightly rejects.
        assume(kind == "constant" or eta * n <= 600)
        sched = make_schedule(kind, n, eta=eta)
    inc = sched.increments
    assert abs(inc.sum() - 1.0) <= SUM_TOL
    assert np.all(inc > 0.0)
    lams = sched.lambdas()
    # Strict increase can be lost to rounding once increments shrink below
    # one ulp of the running sum (large eta), so only require nondecreasing.
    assert np.all(np.diff(lams) >= 0)
    assert abs(lams[-1] - 1.0) <= SUM_TOL
    if kind == "exponential" and n > 1 and eta > 0:
        # Ratios of near-subnormal increments lose precision, so restrict
        # the check to well-scaled weights.
        ok = inc[:-1] > 1e-250
        ratios = inc[1:][ok] / inc[:-1][ok]
        assert np.max(np.abs(ratios - np.exp(-eta))) <= 1e-9 * np.exp(-eta)
