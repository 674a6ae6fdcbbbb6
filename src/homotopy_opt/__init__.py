"""Homotopy-continuation SGD: optimizer, problem families, diagnostics and theory calculators."""

__version__ = "0.2.0"

from .core import (
    ConfigurationError,
    NonFiniteError,
    Schedule,
    SgdConfig,
    hsgd_run,
    make_schedule,
    sgd_run,
)
from .problems import (
    CubicLogisticProblem,
    ErfRegressionProblem,
    HomotopyProblem,
    LabelInterpolationMap,
    MlpRegressionProblem,
    QuadraticTrackingProblem,
    cubic_logistic_problem,
    erf_problem,
    mlp_sine_problem,
    quadratic_tracking_problem,
)

__all__ = [
    "ConfigurationError",
    "NonFiniteError",
    "Schedule",
    "SgdConfig",
    "hsgd_run",
    "make_schedule",
    "sgd_run",
    "HomotopyProblem",
    "LabelInterpolationMap",
    "ErfRegressionProblem",
    "MlpRegressionProblem",
    "CubicLogisticProblem",
    "QuadraticTrackingProblem",
    "erf_problem",
    "mlp_sine_problem",
    "cubic_logistic_problem",
    "quadratic_tracking_problem",
]
