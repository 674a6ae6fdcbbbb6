"""Homotopy-parameter schedule construction and its contracts."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homotopy_opt.core import ConfigurationError, Schedule, make_schedule

SUM_TOL = 1e-12


def loop_path(increments):
    """The reference lambda path: each partial sum of a Python loop, snapped onto [0, 1].

    Returns the path and the ConfigurationError text a schedule with these
    increments raises, or None when its path ends within SUM_TOL of 1.
    """
    path, lam = [], 0.0
    for h in increments.tolist():
        lam = lam + h
        if 1.0 < lam <= 1.0 + SUM_TOL:
            lam = 1.0
        elif -SUM_TOL <= lam < 0.0:
            lam = 0.0
        path.append(lam)
    last = path[-1]
    error = None if abs(last - 1.0) <= SUM_TOL else (
        f"schedule increments summed left to right reach {last!r} "
        f"at n = {increments.size}, expected 1")
    return np.array(path), error


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
    assert sched.lambdas.tolist() == [0.25, 1.0]


@pytest.mark.parametrize("increments", [np.array([]), np.array([[0.5, 0.5]]), np.array(1.0)])
def test_schedule_rejects_increments_that_are_not_a_nonempty_vector(increments):
    with pytest.raises(ConfigurationError, match="non-empty 1-D"):
        Schedule(increments)


def test_lambdas_accumulate_to_one():
    sched = make_schedule("constant", 4)
    assert np.allclose(sched.lambdas, [0.25, 0.5, 0.75, 1.0], rtol=0, atol=1e-15)
    assert sched.lambdas[-1] == 1.0


def test_schedules_compare_and_hash_by_identity():
    # The generated __eq__ compared the arrays, which have no truth value.
    a, b = make_schedule("constant", 4), make_schedule("constant", 4)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert a in {a} and b not in {a}


def test_a_schedule_shares_no_writable_array():
    inc = np.array([0.25, 0.75])
    sched = Schedule(inc)
    inc[0] = 0.9
    assert sched.increments.tolist() == [0.25, 0.75] and sched.lambdas.tolist() == [0.25, 1.0]
    sched = make_schedule("constant", 4)
    for array in (sched.increments, sched.lambdas):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = 0.9
    assert sched.lambdas.tolist() == [0.25, 0.5, 0.75, 1.0]


def check_against_loop(increments):
    """The schedule's verdict, error text and path bits are the reference loop's."""
    path, error = loop_path(increments)
    if error is None:
        assert Schedule(increments).lambdas.tobytes() == path.tobytes()
    else:
        with pytest.raises(ConfigurationError) as raised:
            Schedule(increments)
        assert str(raised.value) == error


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["constant", "exponential", "explicit"]),
    n=st.integers(min_value=1, max_value=3000),
    eta=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_lambda_path_is_the_loops(kind, n, eta, seed):
    # The increments as make_schedule builds them, before the schedule judges them.
    if kind == "constant":
        increments = np.full(n, 1.0 / n)
    elif kind == "exponential":
        weights = np.exp(-eta * np.arange(1, n + 1, dtype=float))  # eta * n <= 600: no underflow
        increments = weights / weights.sum()
    else:
        entries = np.random.Generator(np.random.PCG64(seed)).uniform(0.1, 2.0, n)
        increments = entries / entries.sum()
    check_against_loop(increments)


@settings(max_examples=50, deadline=None)
@given(
    head=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=7),
    tail_exponent=st.floats(min_value=3.0, max_value=5.0),
    exponent=st.floats(min_value=-15.0, max_value=-10.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_lambda_path_is_the_loops_past_one(head, tail_exponent, exponent, seed):
    # A few large entries, then 10^3 to 10^5 tiny ones: the left-to-right sum
    # may pass 1 before its end, and each later 1 + h is snapped back, or,
    # once an h exceeds SUM_TOL, runs on past 1.
    rng = np.random.Generator(np.random.PCG64(seed))
    tail = rng.uniform(0.1, 1.0, round(10**tail_exponent)) * 10**exponent
    entries = np.concatenate([head, tail])
    check_against_loop(entries / entries.sum())


@pytest.mark.parametrize("increments, error", [
    ([0.5, 0.5 + 5e-13, 1e-11, 0.2], "reach 1.20000000001 at n = 4"),
    ([0.9, 0.1 + 1e-16, 2e-12, 3e-12], "reach 1.000000000005 at n = 4"),
    ([0.5, 0.5 + 1e-13] + [1e-13] * 50, None),
])
def test_lambda_path_snaps_to_one_until_an_increment_exceeds_the_tolerance(increments, error):
    increments = np.array(increments)
    if error is None:
        assert Schedule(increments).lambdas.tolist() == [0.5] + [1.0] * 51
    else:
        with pytest.raises(ConfigurationError, match=error):
            Schedule(increments)
    check_against_loop(increments)


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
    lams = sched.lambdas
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
