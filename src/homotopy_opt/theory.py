"""Closed-form bound and threshold calculators for the convergence analysis.

Every calculator is a pure total function on its feasibility domain;
infeasible inputs raise :class:`InfeasibleError` or come back flagged, with
NaN in the fields that are undefined. The schedule design reports its
feasibility as a plain list of :class:`FeasibilityCheck` records. Logs are
natural-base with explicit conversion; ceilings are applied outermost,
exactly as in the defining formulas.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields

from .core import ConfigurationError, _is_int, _is_real


class InfeasibleError(ValueError):
    """The requested bound does not exist for these constants."""


@dataclass
class TheoryConstants:
    """Scalar constants feeding the bound formulas.

    rho is derived as 1 - alpha * mu. kappa1/kappa2 are only used by the
    gamma composition; when gamma is omitted it is derived from them.
    """

    L: float
    mu: float
    sigma2: float
    delta: float
    B: float
    r: float
    alpha: float
    k: int
    n: int
    gamma: float | None = None
    rho_tilde: float | None = None
    epsilon0: float | None = None
    eta: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None

    def __post_init__(self):
        if self.gamma is None:
            if self.kappa1 is None or self.kappa2 is None:
                raise InfeasibleError("gamma or (kappa1, kappa2) must be supplied")
            self.gamma = gamma_from_kappas(self.delta, self.kappa1, self.kappa2)

    @property
    def rho(self):
        return 1.0 - self.alpha * self.mu

    @property
    def noise_floor(self):
        if self.mu <= 0:
            raise InfeasibleError("mu must be positive")
        return self.sigma2 / (2.0 * self.mu)

    @classmethod
    def from_dict(cls, data):
        """Constants from a JSON object; null stands for an omitted optional constant."""
        if not isinstance(data, dict):
            raise ConfigurationError(f"constants must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InfeasibleError(f"unknown constant names: {sorted(unknown)}")
        given = {name for name, value in data.items() if value is not None}
        missing = {f.name for f in fields(cls) if f.default is MISSING} - given
        if missing:
            raise ConfigurationError(f"missing constants (absent or null): {sorted(missing)}")
        bad = [f"{name} = {data[name]!r}" for name in sorted(given)
               if not (_is_int if name in ("k", "n") else _is_real)(data[name])
               or name in ("k", "n") and data[name] < 1]  # the rule of optimizer.k and .n
        if bad:
            raise ConfigurationError(f"invalid constants (k and n take integers >= 1, the others "
                                     f"finite numbers): {', '.join(bad)}")
        if data["k"] * data["n"] > sys.maxsize or data["n"] > sys.maxsize // 8:  # a run's bounds
            raise ConfigurationError(f"k * n = {data['k']} * {data['n']} steps exceed {sys.maxsize}, "
                                     f"or n exceeds {sys.maxsize // 8}, as in a run config")
        if "eta" in given and data["eta"] < 0:  # the rule make_schedule applies to a run
            raise ConfigurationError(f"eta must be >= 0, got {data['eta']!r}")
        return cls(**data)


@dataclass
class FeasibilityCheck:
    key: str
    requirement: str
    value: float
    passed: bool
    binding: bool = True  # a check that does not bind is reported, but a failure of it fails nothing


def _log_base(value, base):
    return math.log(value) / math.log(base)


def sgd_gap_bound(t, rho, epsilon_init, sigma2, mu):
    """Expected-gap bound after t SGD steps: rho^t * eps_init + sigma^2/(2 mu)."""
    if mu <= 0:
        raise InfeasibleError("mu must be positive")
    if not (0.0 <= rho < 1.0):
        raise InfeasibleError(f"rho must lie in [0, 1), got {rho}")
    if epsilon_init < 0:
        raise InfeasibleError("initial gap must be nonnegative")
    return rho**t * epsilon_init + sigma2 / (2.0 * mu)


def kmax_tracking(rho, sigma2, mu, r):
    """Smallest inner-iteration count for r-tracking: ceil(log_rho(1 - sigma^2/(2 mu r)))."""
    if mu <= 0 or r <= 0:
        raise InfeasibleError("mu and r must be positive")
    if not (0.0 <= rho < 1.0):
        raise InfeasibleError(f"rho must lie in [0, 1), got {rho}")
    noise_floor = sigma2 / (2.0 * mu)
    if r <= noise_floor:
        raise InfeasibleError(
            f"target radius r={r} lies inside the noise floor sigma^2/(2 mu)={noise_floor}"
        )
    arg = 1.0 - sigma2 / (2.0 * mu * r)
    if sigma2 == 0.0:
        return 0
    if rho == 0.0:
        return 1
    return math.ceil(_log_base(arg, rho))


def kmax_warmstart(rho, mu, delta, gamma, epsilon, sigma2, B):
    """Warm-start inner-iteration floor: ceil(log_rho(1 - (2 mu (d+g) eps + sigma^2)/(2 mu B)))."""
    if mu <= 0 or B <= 0:
        raise InfeasibleError("mu and B must be positive")
    if not (0.0 <= rho < 1.0):
        raise InfeasibleError(f"rho must lie in [0, 1), got {rho}")
    if epsilon < 0:
        raise InfeasibleError("epsilon must be nonnegative")
    limit = (B - sigma2 / (2.0 * mu)) / (delta + gamma)
    if epsilon >= limit:
        raise InfeasibleError(
            f"epsilon={epsilon} at or above the feasibility bound (B - sigma^2/2mu)/(delta+gamma)={limit}"
        )
    arg = 1.0 - (2.0 * mu * (delta + gamma) * epsilon + sigma2) / (2.0 * mu * B)
    if arg >= 1.0:
        return 0
    if rho == 0.0:
        return 1
    return math.ceil(_log_base(arg, rho))


@dataclass
class TrackingEpsilons:
    eps1: float
    eps2: float
    eps_tilde: float
    feasible: bool
    note: str = ""


def tracking_epsilons(rho, k, sigma2, mu, r, B, delta, gamma):
    """Per-iteration lambda-increment caps for r-tracking.

    eps1 = (B - r)/(delta + gamma); eps2 = ((1 - rho^k) r - sigma^2/2mu) /
    (rho^k (delta + gamma)); eps_tilde = min. Infeasibility (k below the
    tracking floor, r outside (sigma^2/2mu, B]) is flagged, never clipped.
    """
    if mu <= 0 or r <= 0 or delta + gamma <= 0:
        raise InfeasibleError("mu, r and delta+gamma must be positive")
    if not (0.0 <= rho < 1.0):
        raise InfeasibleError(f"rho must lie in [0, 1), got {rho}")
    if r > B:
        return TrackingEpsilons(math.nan, math.nan, math.nan, False, "r exceeds the basin bound B")
    noise_floor = sigma2 / (2.0 * mu)
    if r <= noise_floor and sigma2 > 0:
        return TrackingEpsilons(math.nan, math.nan, math.nan, False, "r inside the noise floor")
    eps1 = (B - r) / (delta + gamma)
    rho_k = rho**k
    if rho_k == 0.0:
        # k large enough that rho^k underflows: only eps1 binds.
        return TrackingEpsilons(eps1, math.inf, eps1, True)
    eps2 = ((1.0 - rho_k) * r - noise_floor) / (rho_k * (delta + gamma))
    if eps2 < 0:
        return TrackingEpsilons(eps1, eps2, math.nan, False, "k below the tracking floor kmax")
    return TrackingEpsilons(eps1, eps2, min(eps1, eps2), True)


def hsgd_gap_bound(i, rho_tilde, epsilon0, sigma2, mu):
    """Expected-gap bound after i homotopy iterations with outer contraction rho_tilde."""
    if mu <= 0:
        raise InfeasibleError("mu must be positive")
    if not (0.0 < rho_tilde < 1.0):
        raise InfeasibleError(f"rho_tilde must lie in (0, 1), got {rho_tilde}")
    if epsilon0 < 0:
        raise InfeasibleError("epsilon0 must be nonnegative")
    geometric = (1.0 - rho_tilde**i) / (1.0 - rho_tilde)
    return rho_tilde**i * epsilon0 + sigma2 / (2.0 * mu) * geometric


def gamma_from_kappas(delta, kappa1, kappa2):
    """Compose the optimal-value Lipschitz constant: gamma = delta + kappa1 * kappa2."""
    if delta < 0 or kappa1 < 0 or kappa2 < 0:
        raise InfeasibleError("delta, kappa1, kappa2 must be nonnegative")
    return delta + kappa1 * kappa2


@dataclass
class ScheduleParams:
    C_rho_tilde: float
    eta_min: float
    k_min: int
    eps1: float
    checks: list[FeasibilityCheck] = field(default_factory=list)


def linear_rate_schedule_params(rho, k, rho_tilde, epsilon0, delta, gamma, sigma2, mu, B, r):
    """Exponential-schedule design constants for the linear outer rate.

    Returns C_rho_tilde via the case split on k, the decay floor
    eta_min = -ln(C * rho_tilde) (the consistent sign; the main text's
    +ln(C * rho_tilde) is its negation), k_min = ceil(log_rho rho_tilde)
    and the feasibility report as a list of checks. The constraint linking
    rho_tilde to the noise floor binds in the direction the gap recursion
    actually needs, rho_tilde <= 1 - sigma^2/(2 mu B); the opposite
    open-interval reading is a check with ``binding=False``.
    """
    if mu <= 0 or delta + gamma <= 0:
        raise InfeasibleError("mu and delta+gamma must be positive")
    if epsilon0 is None or epsilon0 < 0:
        raise InfeasibleError("epsilon0 must be a nonnegative real")
    checks = []

    def check(key, requirement, value, passed, binding=True):
        checks.append(FeasibilityCheck(key, requirement, float(value), bool(passed), binding))

    check("rho", "0 <= rho < 1", rho, 0.0 <= rho < 1.0)
    check("rho_tilde", "0 < rho_tilde < 1", rho_tilde, 0.0 < rho_tilde < 1.0)
    noise_floor = sigma2 / (2.0 * mu)
    rho_tilde_cap = 1.0 - noise_floor / B if B > 0 else -math.inf
    check("rho_tilde_noise_cap", "rho_tilde <= 1 - sigma^2/(2 mu B)",
          rho_tilde, rho_tilde <= rho_tilde_cap)
    # Inconsistent with the noise-floor requirement on r when sigma^2 > 0.
    check("rho_tilde_open_interval", "rho_tilde in (1 - sigma^2/(2 mu B), 1)",
          rho_tilde, rho_tilde_cap < rho_tilde < 1.0, binding=False)
    r_floor = noise_floor / (1.0 - rho_tilde) if rho_tilde < 1.0 else math.inf
    check("r", "sigma^2/(2 mu (1 - rho_tilde)) <= r <= B", r, r_floor <= r <= B)
    if not (0.0 <= rho < 1.0) or not (0.0 < rho_tilde < 1.0):
        return ScheduleParams(math.nan, math.nan, 0, math.nan, checks)

    k_min = 0 if rho == 0.0 else math.ceil(_log_base(rho_tilde, rho))
    check("k", f"k >= ceil(log_rho(rho_tilde)) = {k_min}", k, k >= k_min)
    eps1 = (B - r) / (delta + gamma)
    rho_k = rho**k

    if epsilon0 == 0.0:
        # A zero initial gap degenerates the schedule constant.
        check("epsilon0", "epsilon0 > 0 for a finite eta_min", 0.0, False)
        return ScheduleParams(0.0, math.inf, k_min, eps1, checks)

    if rho == 0.0:
        branch_floor = -math.inf
    else:  # once the ratio overflows, log(1 + ratio) is taken in parts
        ratio = (delta + gamma) / epsilon0
        log_term = (math.log(1.0 + ratio) if ratio < math.inf
                    else math.log(delta + gamma) - math.log(epsilon0))
        branch_floor = _log_base(rho_tilde, rho) - log_term / math.log(rho)
    if k >= branch_floor:
        C = 1.0
    elif rho_k == 0.0:  # rho^k underflows: C < 1 in logs, with rho_tilde - rho^k = rho_tilde
        log_C = math.log(rho_tilde) - k * math.log(rho) + math.log(epsilon0) - math.log(delta + gamma)
        log_C_rho_tilde = log_C + math.log(rho_tilde)
        return ScheduleParams(math.exp(log_C), -log_C_rho_tilde, k_min, eps1, checks)
    else:
        C = (rho_tilde - rho_k) / rho_k * epsilon0 / (delta + gamma)
    if C <= 0.0:
        check("C_rho_tilde", "C_rho_tilde > 0 (requires rho^k < rho_tilde)", C, False)
        return ScheduleParams(C, math.inf, k_min, eps1, checks)
    # C * rho_tilde can underflow where C > 0: its log is then taken in parts.
    log_C_rho_tilde = (math.log(C * rho_tilde) if C * rho_tilde > 0.0
                       else math.log(C) + math.log(rho_tilde))
    return ScheduleParams(C, -log_C_rho_tilde, k_min, eps1, checks)


def schedule_caps(n, eta, eps1):
    """Per-iteration increment caps min{e^(-eta i), eps1} for i = 0..n-1.

    Their sum is the lambda value reachable in n homotopy iterations under the
    exponential-decay constraint; reaching lambda = 1 needs sum >= 1.
    """
    caps = [min(math.exp(-eta * i), eps1) for i in range(n)]
    return caps, sum(caps)
