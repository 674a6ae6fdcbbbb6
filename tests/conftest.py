"""Shared fixtures and the acceptance-criteria summary hook."""

import numpy as np
import pytest

from homotopy_opt import datasets
from homotopy_opt.problems import ErfRegressionProblem

# Pass/fail lines recorded by tests/test_acceptance.py; printed once at the
# end of the session so the verdict for every criterion is visible even when
# pytest captures stdout.
CRITERION_LINES = []


def record_criterion(number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    CRITERION_LINES.append(f"criterion {number:2d}: {verdict} - {detail}")


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_dataset():
    return datasets.gen_linear_toy(100, 3.0, 1.0, 40)


@pytest.fixture(scope="session")
def toy_problem(toy_dataset):
    x = toy_dataset.inputs[:, 0]
    return ErfRegressionProblem(x, toy_dataset.targets, -4.0 * x)


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed):
        return np.random.Generator(np.random.PCG64(seed))
    return make
