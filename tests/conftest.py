"""Shared fixtures and the acceptance-criteria summary hook."""

import multiprocessing

import numpy as np
import pytest

from homotopy_opt import core, datasets, harness, problems
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


# Every experiment's problem family on 30 samples: small enough to compare
# block evaluations with per-point loops.
SMALL = {experiment: {"experiment": experiment, "dataset": {"N": 30},
                      "optimizer": {"minibatch": 5}}
         for experiment in harness.EXPERIMENTS}


def small_family(experiment):
    cfg = harness.ExperimentConfig.from_dict(SMALL[experiment])
    return harness.build_problem(cfg, harness.build_dataset(cfg))[0]


@pytest.fixture(params=["whole", "chunked"])
def chunk_budget(request, monkeypatch):
    # 7 rows of N = 30 samples per chunk: a block of more than 7 points is split.
    if request.param == "chunked":
        monkeypatch.setattr(problems, "EPOCH_CHUNK_ELEMENTS", 7 * 30)


@pytest.fixture
def slices(monkeypatch):
    """``cut_into(count)`` sets the slice count and returns the list of workers started since."""
    fork = multiprocessing.get_context("fork")
    started = []
    real_process = fork.Process

    def process(*args, **kwargs):
        started.append(kwargs)
        return real_process(*args, **kwargs)

    monkeypatch.setattr(fork, "Process", process)

    def cut_into(count):
        monkeypatch.setattr(core, "_slice_count", lambda rows, steps, samples: min(count, rows))
        started.clear()
        return started
    return cut_into
