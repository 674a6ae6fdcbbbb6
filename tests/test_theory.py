"""Closed-form bound calculators against frozen values and brute force."""

import math

import numpy as np
import pytest

from homotopy_opt import theory


def brute_force_kmax(predicate, k_limit=100000):
    for k in range(k_limit):
        if predicate(k):
            return k
    raise AssertionError("no admissible k below the search limit")


# ---------------------------------------------------------------- constants


def test_constants_derive_rho_and_floor():
    c = theory.TheoryConstants(L=2.0, mu=0.5, sigma2=0.1, delta=0.2, B=1.0, r=0.5,
                               alpha=0.5, k=10, n=5, gamma=0.3)
    assert c.rho == 1.0 - 0.5 * 0.5
    assert c.noise_floor == 0.1


def test_constants_gamma_from_kappas():
    c = theory.TheoryConstants(L=1.0, mu=1.0, sigma2=0.0, delta=0.3, B=1.0, r=0.5,
                               alpha=0.5, k=10, n=5, kappa1=2.0, kappa2=0.1)
    assert c.gamma == 0.5
    with pytest.raises(theory.InfeasibleError):
        theory.TheoryConstants(L=1.0, mu=1.0, sigma2=0.0, delta=0.3, B=1.0, r=0.5,
                               alpha=0.5, k=10, n=5)


def test_constants_reject_unknown_names():
    with pytest.raises(theory.InfeasibleError, match="unknown constant names"):
        theory.TheoryConstants.from_dict({"L": 1.0, "mu": 1.0, "sigma2": 0.0,
                                          "delta": 0.1, "B": 1.0, "r": 0.5,
                                          "alpha": 0.5, "k": 1, "n": 1,
                                          "gamma": 0.1, "lipschitz": 2.0})


# ------------------------------------------------------------- sgd_gap_bound


def test_sgd_gap_bound_values():
    assert theory.sgd_gap_bound(0, 0.9, 1.0, 0.02, 1.0) == 1.0 + 0.01
    assert abs(theory.sgd_gap_bound(10, 0.9, 1.0, 0.02, 1.0) - 0.3586784401000001) < 1e-15
    # Noise-free bound decays exactly geometrically.
    b = [theory.sgd_gap_bound(t, 0.8, 1.0, 0.0, 1.0) for t in range(6)]
    for t in range(5):
        assert abs(b[t + 1] / b[t] - 0.8) < 1e-14


def test_sgd_gap_bound_validation():
    with pytest.raises(theory.InfeasibleError):
        theory.sgd_gap_bound(1, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(theory.InfeasibleError):
        theory.sgd_gap_bound(1, 0.5, -1.0, 0.0, 1.0)
    with pytest.raises(theory.InfeasibleError):
        theory.sgd_gap_bound(1, 0.5, 1.0, 0.0, 0.0)


def test_sgd_recurrence_never_exceeds_bound():
    # Unrolling gap <- rho * gap + sigma^2/(2 L) with alpha = 1/L stays below
    # the closed form for 1000 random feasible tuples.
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(1000):
        L = rng.uniform(0.5, 5.0)
        mu = rng.uniform(0.05, 1.0) * L
        sigma2 = rng.uniform(0.0, 0.5)
        eps0 = rng.uniform(0.0, 3.0)
        rho = 1.0 - mu / L
        gap = eps0
        for t in range(1, 30):
            gap = rho * gap + sigma2 / (2.0 * L)
            assert gap <= theory.sgd_gap_bound(t, rho, eps0, sigma2, mu) + 1e-12


# ------------------------------------------------------------- kmax_tracking


def test_kmax_tracking_values():
    assert theory.kmax_tracking(0.9, 0.0, 1.0, 0.5) == 0
    assert theory.kmax_tracking(0.9, 0.02, 1.0, 0.5) == 1
    assert 0.9 * 0.5 + 0.01 <= 0.5  # the defining inequality at k = 1


def test_kmax_tracking_monotone_as_radius_shrinks():
    floor = 0.01
    prev = 0
    for r in (0.5, 0.1, 0.02, 0.0101):
        k = theory.kmax_tracking(0.9, 0.02, 1.0, r)
        assert k >= prev
        prev = k
    # At r = 0.0101 the argument is 1 - 0.01/0.0101, giving ceil(43.8) = 44.
    assert prev == 44
    with pytest.raises(theory.InfeasibleError):
        theory.kmax_tracking(0.9, 0.02, 1.0, floor)


def test_kmax_tracking_brute_force_grid():
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(1000):
        rho = rng.uniform(0.05, 0.95)
        mu = rng.uniform(0.1, 3.0)
        sigma2 = rng.uniform(0.0, 0.5)
        floor = sigma2 / (2.0 * mu)
        r = floor * (1.0 + rng.uniform(0.05, 3.0)) + rng.uniform(0.0, 1.0)
        k_formula = theory.kmax_tracking(rho, sigma2, mu, r)
        k_brute = brute_force_kmax(lambda k: rho**k * r + floor <= r)
        assert k_formula == k_brute


# ------------------------------------------------------------ kmax_warmstart


def test_kmax_warmstart_values():
    assert theory.kmax_warmstart(0.9, 1.0, 0.5, 0.5, 0.0, 0.0, 0.5) == 0
    assert theory.kmax_warmstart(0.9, 1.0, 0.5, 0.5, 0.1, 0.02, 0.5) == 3


def test_kmax_warmstart_nonincreasing_in_B():
    prev = None
    for B in (0.5, 0.8, 1.2, 3.0):
        k = theory.kmax_warmstart(0.9, 1.0, 0.5, 0.5, 0.1, 0.02, B)
        if prev is not None:
            assert k <= prev
        prev = k


def test_kmax_warmstart_brute_force_grid():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(1000):
        rho = rng.uniform(0.05, 0.95)
        mu = rng.uniform(0.1, 3.0)
        sigma2 = rng.uniform(0.0, 0.3)
        B = sigma2 / (2.0 * mu) + rng.uniform(0.05, 2.0)
        dg = rng.uniform(0.1, 2.0)
        eps = rng.uniform(0.0, 0.95) * (B - sigma2 / (2.0 * mu)) / dg
        k_formula = theory.kmax_warmstart(rho, mu, dg / 2, dg / 2, eps, sigma2, B)
        k_brute = brute_force_kmax(
            lambda k: rho**k * B + sigma2 / (2.0 * mu) <= B - dg * eps)
        assert k_formula == k_brute


def test_kmax_warmstart_infeasible_epsilon():
    with pytest.raises(theory.InfeasibleError):
        theory.kmax_warmstart(0.9, 1.0, 0.5, 0.5, 10.0, 0.02, 0.5)


# ---------------------------------------------------------- tracking_epsilons


def test_tracking_epsilons_frozen_example():
    eps = theory.tracking_epsilons(0.9, 7, 0.02, 1.0, 0.5, 1.0, 0.5, 0.5)
    assert eps.feasible
    assert abs(eps.eps1 - 0.5) < 1e-15
    assert abs(eps.eps2 - 0.5244682748309677) < 1e-12
    assert eps.eps_tilde == eps.eps1


def test_tracking_epsilons_boundary_cases():
    # r = B leaves no slack.
    eps = theory.tracking_epsilons(0.9, 50, 0.02, 1.0, 1.0, 1.0, 0.5, 0.5)
    assert eps.eps1 == 0.0 and eps.eps_tilde == 0.0
    # Huge k: rho^k underflows and only eps1 binds.
    eps = theory.tracking_epsilons(0.9, 100000, 0.02, 1.0, 0.5, 1.0, 0.5, 0.5)
    assert eps.eps2 == math.inf and eps.eps_tilde == eps.eps1
    # k below the tracking floor is flagged, not clipped.
    eps = theory.tracking_epsilons(0.9, 0, 0.5, 1.0, 0.3, 1.0, 0.5, 0.5)
    assert not eps.feasible
    # r beyond the basin bound.
    assert not theory.tracking_epsilons(0.9, 10, 0.02, 1.0, 2.0, 1.0, 0.5, 0.5).feasible
    # r inside the noise floor.
    assert not theory.tracking_epsilons(0.9, 10, 1.0, 1.0, 0.3, 1.0, 0.5, 0.5).feasible


def test_tracking_epsilons_certify_one_homotopy_step():
    # At increment eps_tilde the gap recursion returns to r after k steps
    # and the intermediate gap stays inside the basin bound B.
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(300):
        rho = rng.uniform(0.1, 0.95)
        mu = rng.uniform(0.2, 2.0)
        sigma2 = rng.uniform(0.0, 0.2)
        floor = sigma2 / (2.0 * mu)
        r = floor + rng.uniform(0.05, 1.0)
        B = r + rng.uniform(0.0, 1.0)
        dg = rng.uniform(0.2, 2.0)
        k = theory.kmax_tracking(rho, sigma2, mu, r) + rng.integers(0, 10)
        if k == 0:
            k = 1
        eps = theory.tracking_epsilons(rho, k, sigma2, mu, r, B, dg / 2, dg / 2)
        if not eps.feasible:
            continue
        e = eps.eps_tilde
        assert r + dg * e <= B + 1e-9
        assert rho**k * (r + dg * e) + floor <= r + 1e-9
        # Slightly past the threshold at least one defining inequality breaks.
        e_over = e * 1.001 + 1e-12
        assert (r + dg * e_over > B) or (rho**k * (r + dg * e_over) + floor > r)


# --------------------------------------------- linear_rate_schedule_params


def test_schedule_params_first_branch():
    p = theory.linear_rate_schedule_params(0.9, 500, 0.5, 1.0, 0.5, 0.5, 0.0, 1.0, 1.0, 0.5)
    assert p.C_rho_tilde == 1.0
    assert abs(p.eta_min - (-math.log(0.5))) < 1e-15
    assert p.eta_min_main_text == -p.eta_min
    assert p.k_min == brute_force_kmax(lambda k: 0.9**k <= 0.5)


def test_schedule_params_frozen_second_branch_example():
    p = theory.linear_rate_schedule_params(0.9, 10, 0.5, 1.0, 0.5, 0.5, 0.0, 1.0, 1.0, 0.5)
    assert abs(p.C_rho_tilde - 0.43398599539622024) < 1e-12
    assert abs(p.eta_min - 1.527890194634626) < 1e-12


def test_schedule_params_degenerate_boundary():
    # rho_tilde = rho^k makes the second-branch constant collapse to zero.
    rho, k = 0.9, 5
    p = theory.linear_rate_schedule_params(rho, k, rho**k, 1.0, 0.5, 0.5, 0.0, 1.0, 1.0, 0.5)
    assert p.C_rho_tilde <= 0.0 or p.eta_min == math.inf
    assert p.eta_min == math.inf


def test_schedule_params_zero_initial_gap():
    p = theory.linear_rate_schedule_params(0.9, 10, 0.5, 0.0, 0.5, 0.5, 0.0, 1.0, 1.0, 0.5)
    assert p.eta_min == math.inf
    assert not all(c.passed for c in p.report.checks)


def test_schedule_params_feasibility_report():
    p = theory.linear_rate_schedule_params(0.9, 50, 0.8, 0.5, 1.0, 1.0, 0.11746318454690335,
                                           1.0, 1.0, 0.5)
    by_key = {c.key: c for c in p.report.checks}
    assert by_key["rho"].passed
    assert by_key["rho_tilde"].passed
    assert by_key["rho_tilde_noise_cap"].passed
    assert not by_key["rho_tilde_open_interval"].passed
    assert "informational" in by_key["rho_tilde_open_interval"].note
    assert by_key["r"].passed
    assert by_key["k"].passed


def test_schedule_params_brute_force_grid():
    rng = np.random.Generator(np.random.PCG64(5))
    checked = 0
    while checked < 1000:
        rho = rng.uniform(0.1, 0.95)
        rho_tilde = rng.uniform(rho / 2, 0.99)
        eps0 = rng.uniform(0.01, 3.0)
        dg = rng.uniform(0.1, 2.0)
        k = int(rng.integers(1, 60))
        lhs, rhs = rho**k * (eps0 + dg), rho_tilde * eps0
        if abs(lhs - rhs) < 1e-9 * rhs:
            continue  # too close to the branch boundary for exact comparison
        p = theory.linear_rate_schedule_params(rho, k, rho_tilde, eps0, dg / 2, dg / 2,
                                               0.0, 1.0, 1.0, 0.5)
        # Branch condition: rho^k (eps0 + delta + gamma) <= rho_tilde * eps0.
        first_branch = lhs <= rhs
        if first_branch:
            assert p.C_rho_tilde == 1.0
        elif rho**k < rho_tilde:
            expect = (rho_tilde - rho**k) / rho**k * eps0 / dg
            assert abs(p.C_rho_tilde - expect) <= 1e-12 * max(1.0, expect)
            assert abs(math.exp(-p.eta_min) - p.C_rho_tilde * rho_tilde) < 1e-12
        else:
            assert p.eta_min == math.inf
        assert p.k_min == brute_force_kmax(lambda kk: rho**kk <= rho_tilde)
        checked += 1


# -------------------------------------------------------------- hsgd bound


def test_hsgd_gap_bound_values():
    assert theory.hsgd_gap_bound(0, 0.5, 1.0, 0.02, 1.0) == 1.0
    assert abs(theory.hsgd_gap_bound(5, 0.5, 1.0, 0.02, 1.0) - 0.050625) < 1e-15
    limit = 0.02 / (2.0 * 1.0 * (1.0 - 0.5))
    assert abs(theory.hsgd_gap_bound(200, 0.5, 1.0, 0.02, 1.0) - limit) < 1e-12


def test_hsgd_gap_bound_matches_unrolled_recursion():
    rng = np.random.Generator(np.random.PCG64(6))
    for _ in range(200):
        rho_tilde = rng.uniform(0.05, 0.95)
        eps0 = rng.uniform(0.0, 2.0)
        sigma2 = rng.uniform(0.0, 0.3)
        mu = rng.uniform(0.2, 2.0)
        gap = eps0
        for i in range(1, 25):
            gap = rho_tilde * gap + sigma2 / (2.0 * mu)
            bound = theory.hsgd_gap_bound(i, rho_tilde, eps0, sigma2, mu)
            assert abs(gap - bound) <= 1e-12 * max(1.0, bound)


def test_hsgd_gap_bound_validation():
    with pytest.raises(theory.InfeasibleError):
        theory.hsgd_gap_bound(1, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(theory.InfeasibleError):
        theory.hsgd_gap_bound(1, 0.5, -0.1, 0.0, 1.0)


# ---------------------------------------------------------- helpers


def test_gamma_from_kappas():
    assert theory.gamma_from_kappas(0.3, 0.0, 5.0) == 0.3
    assert theory.gamma_from_kappas(0.3, 5.0, 0.0) == 0.3
    assert abs(theory.gamma_from_kappas(0.3, 2.0, 0.1) - 0.5) < 1e-15
    with pytest.raises(theory.InfeasibleError):
        theory.gamma_from_kappas(-0.1, 1.0, 1.0)


def test_schedule_caps():
    caps, reach = theory.schedule_caps(3, math.log(2.0), 0.6)
    assert caps == [0.6, 0.5, 0.25]
    assert abs(reach - 1.35) < 1e-15
