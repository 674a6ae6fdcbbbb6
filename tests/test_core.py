"""Inner SGD solver and outer homotopy loop behavior."""

import pickle
import warnings

import numpy as np
import pytest

from homotopy_opt import core, diagnostics
from homotopy_opt.core import (
    ConfigurationError,
    NonFiniteError,
    Schedule,
    SgdConfig,
    _draw_minibatch,
    hsgd_run,
    make_rng,
    make_schedule,
    sgd_run,
    steps_per_epoch,
    stream_seed,
)
from homotopy_opt.problems import HomotopyProblem


class NoiselessQuadratic(HomotopyProblem):
    """f(w, lam) = a/2 * w^2 with an exact (zero-variance) oracle."""

    def __init__(self, a=1.0, samples=4):
        self.a = a
        self.dimension = 1
        self.sample_count = samples

    def epoch_metrics(self, W, lam):
        return 0.5 * self.a * W[:, 0] ** 2, None

    def gradient(self, W, lam, idx=None, with_metrics=False):
        grads = self.a * W[:, :1]
        return ((self.objective(W, lam), None), grads) if with_metrics else grads


class BlowupProblem(HomotopyProblem):
    """Returns a finite gradient until the configured step, then infinity."""

    def __init__(self, bad_step):
        self.bad_step = bad_step
        self.calls = 0
        self.dimension = 1
        self.sample_count = 4

    def epoch_metrics(self, W, lam):
        return np.zeros(len(W)), None

    def gradient(self, W, lam, idx=None, with_metrics=False):
        self.calls += 1
        grads = np.full((len(W), 1), np.inf if self.calls >= self.bad_step else 1.0)
        return ((self.objective(W, lam), None), grads) if with_metrics else grads


class IndexRecorder(HomotopyProblem):
    """Zero gradient; keeps the index block of every oracle call."""

    dimension = 1

    def __init__(self, samples):
        self.sample_count = samples
        self.blocks = []

    def epoch_metrics(self, W, lam):
        return np.zeros(len(W)), None

    def gradient(self, W, lam, idx=None, with_metrics=False):
        self.blocks.append(None if idx is None else np.array(idx))
        grads = np.zeros_like(W)
        return ((np.zeros(len(W)), None), grads) if with_metrics else grads


def test_single_half_step_on_quadratic():
    prob = NoiselessQuadratic(a=1.0)
    w = sgd_run(np.array([1.0]), SgdConfig(0.5, 1, 4), prob, 0.5, make_rng(0))
    assert w[0] == 0.5


def test_full_step_reaches_minimum_from_any_start():
    prob = NoiselessQuadratic(a=1.0)
    for c in (-3.0, 0.25, 17.0):
        w = sgd_run(np.array([c]), SgdConfig(1.0, 1, 4), prob, 0.0, make_rng(0))
        assert w[0] == 0.0


def test_single_iteration_homotopy_degenerates_to_sgd():
    prob = NoiselessQuadratic(a=2.0)
    cfg = SgdConfig(0.3, 7, 4)
    sched = make_schedule("constant", 1)
    w_h = hsgd_run(np.array([1.5]), sched, cfg, prob, make_rng(11))
    w_s = sgd_run(np.array([1.5]), cfg, prob, 1.0, make_rng(11))
    assert w_h[0] == w_s[0]


def test_constant_schedule_visits_quarters():
    sched = make_schedule("constant", 4)
    seen = []
    prob = NoiselessQuadratic()

    cfg = SgdConfig(0.1, 1, 4, record_every=1)

    def sink(step, lam, w, fval):
        seen.append(lam)

    hsgd_run(np.array([1.0]), sched, cfg, prob, make_rng(0), sink=sink)
    assert seen == [0.25, 0.5, 0.75, 1.0]


def test_toy_terminal_loss_matches_grid_fstar(toy_problem):
    # Full-batch descent with alpha = 1/L_tilde should land on the optimal
    # value located by dense grid search.
    L = diagnostics.estimate_L(toy_problem, 1.0, 2000, 10.0, make_rng(3))
    cfg = SgdConfig(1.0 / L, 200, toy_problem.sample_count)
    w = sgd_run(np.array([-4.0]), cfg, toy_problem, 1.0, make_rng(5))
    fstar = diagnostics.estimate_fstar(
        toy_problem, 1.0, {"kind": "grid", "lo": -10.0, "hi": 10.0, "step": 1e-4}
    ).value
    assert toy_problem.full_objective(w, 1.0) - fstar < 1e-3


def test_noise_free_descent_is_monotone(toy_problem):
    L = diagnostics.estimate_L(toy_problem, 1.0, 2000, 10.0, make_rng(3))
    values = []

    def sink(step, lam, w, fval):
        values.append(fval)

    cfg = SgdConfig(1.0 / L, 150, toy_problem.sample_count, record_every=1)
    sgd_run(np.array([-4.0]), cfg, toy_problem, 1.0, make_rng(1), sink=sink)
    assert len(values) == 150
    assert np.all(np.diff(values) <= 1e-15)


def test_nonfinite_gradient_names_the_step():
    prob = BlowupProblem(bad_step=6)
    with pytest.raises(NonFiniteError) as err:
        sgd_run(np.array([0.0]), SgdConfig(0.1, 20, 4), prob, 0.0, make_rng(0))
    assert err.value.step == 6
    assert "step 6" in str(err.value)


def test_nonfinite_error_carries_homotopy_context():
    prob = BlowupProblem(bad_step=8)
    cfg = SgdConfig(0.1, 5, 4)
    sched = make_schedule("constant", 4)
    with pytest.raises(NonFiniteError) as err:
        hsgd_run(np.array([0.0]), sched, cfg, prob, make_rng(0))
    assert err.value.step == 8
    assert err.value.homotopy_iteration == 2
    assert err.value.lam == 0.5
    assert "homotopy iteration 2" in str(err.value)


def test_configuration_errors():
    prob = NoiselessQuadratic(samples=4)
    with pytest.raises(ConfigurationError):
        sgd_run(np.array([0.0]), SgdConfig(0.1, 1, 5), prob, 0.0, make_rng(0))
    with pytest.raises(ConfigurationError):
        sgd_run(np.array([[0.0]]), SgdConfig(0.1, 1, 4), prob, 0.0, make_rng(0))
    with pytest.raises(ConfigurationError):
        SgdConfig(0.0, 1, 1)
    with pytest.raises(ConfigurationError):
        SgdConfig(0.1, 0, 1)
    with pytest.raises(ConfigurationError):
        SgdConfig(0.1, 1, 0)
    with pytest.raises(ConfigurationError):
        SgdConfig(0.1, 1, 1, record_every=0)


def test_determinism_same_seed_same_iterates(toy_problem):
    cfg = SgdConfig(0.4, 60, 10)
    w1 = sgd_run(np.array([-4.0]), cfg, toy_problem, 0.8, make_rng(99))
    w2 = sgd_run(np.array([-4.0]), cfg, toy_problem, 0.8, make_rng(99))
    assert w1[0] == w2[0]


def test_step_size_range_warning():
    cfg = SgdConfig(0.9, 1, 1)
    with pytest.warns(UserWarning, match="exceeds 1/L_tilde"):
        cfg.warn_if_out_of_range(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg.warn_if_out_of_range(1.0)


def test_sink_called_at_record_multiples():
    prob = NoiselessQuadratic()
    steps_seen = []

    def sink(step, lam, w, fval):
        steps_seen.append(step)
        assert fval == prob.full_objective(w, lam)

    sgd_run(np.array([1.0]), SgdConfig(0.1, 10, 4, record_every=3), prob, 0.0,
            make_rng(0), sink=sink)
    assert steps_seen == [3, 6, 9]
    # record_every=None disables recording even when a sink is passed.
    steps_seen.clear()
    sgd_run(np.array([1.0]), SgdConfig(0.1, 10, 4), prob, 0.0, make_rng(0), sink=sink)
    assert steps_seen == []


def test_stream_seed_and_epoch_helpers():
    assert stream_seed(20240, 0) == 20240
    assert stream_seed(20240, 3) == 20240 ^ 3
    assert steps_per_epoch(100, 100) == 1
    assert steps_per_epoch(100, 30) == 4
    assert steps_per_epoch(7, 2) == 4


def test_homotopy_tracking_on_toy_problem(toy_problem):
    # With a gentle exponential schedule and enough inner steps, each inner
    # solve improves on the gap its own warm start had at the new lambda,
    # averaged over 100 seeded repeats.
    L = diagnostics.estimate_L(toy_problem, 1.0, 2000, 10.0, make_rng(3))
    sched = make_schedule("exponential", 20, eta=0.2)
    cfg = SgdConfig(1.0 / L, 25, toy_problem.sample_count)
    fstar = {
        float(lam): diagnostics.estimate_fstar(
            toy_problem, float(lam), {"kind": "grid", "lo": -10.0, "hi": 10.0, "step": 1e-2}
        ).value
        for lam in sched.lambdas()
    }
    repeats = 100
    before = np.zeros(sched.n)
    after = np.zeros(sched.n)
    # All repeats step as one block, one stream each; the gaps are summed
    # over the repeats in repeat order.
    rngs = [make_rng(stream_seed(20240, rep)) for rep in range(repeats)]
    W = np.full((repeats, 1), -4.0)
    for i, lam in enumerate(sched.lambdas().tolist()):
        before[i] = sum((toy_problem.objective(W, lam) - fstar[lam]).tolist())
        W = sgd_run(W, cfg, toy_problem, lam, rngs)
        after[i] = sum((toy_problem.objective(W, lam) - fstar[lam]).tolist())
    assert np.all(after / repeats <= before / repeats + 1e-12)


def test_nonfinite_error_pickles_with_its_fields():
    err = NonFiniteError("gradient", 7, 3, homotopy_iteration=2, lam=0.25)
    assert str(err) == "non-finite gradient at step 7 (repeat 3, homotopy iteration 2, lambda=0.25)"
    copy = pickle.loads(pickle.dumps(err))
    assert (str(copy), copy.what, copy.step, copy.repeat, copy.homotopy_iteration, copy.lam) == \
        (str(err), "gradient", 7, 3, 2, 0.25)
    assert str(NonFiniteError("iterate", 4, 0)) == "non-finite iterate at step 4 (repeat 0)"


def test_final_lambda_contract_enforced():
    # The path the outer loop visits must end at 1, so a schedule whose
    # left-to-right partial sums miss 1 is refused before any run.
    with pytest.raises(ConfigurationError, match=r"reach 0\.95 at n = 4, expected 1"):
        Schedule(np.array([0.25, 0.25, 0.25, 0.2]))
    # 100,000 steps of 1e-5 drift 1.9e-12 below 1 (numpy's pairwise sum does not).
    with pytest.raises(ConfigurationError, match="reach 0.99999999999808.* at n = 100000"):
        make_schedule("constant", 100_000)


# ------------------------------------------------------------------- sampler


def floyd_reference(rng, sample_count, minibatch, steps):
    """Floyd's rule one column at a time over the row-major block, reduced over the last axis."""
    hi = np.arange(sample_count - minibatch, sample_count)
    if isinstance(rng, np.random.Generator):
        block = rng.integers(0, hi + 1, size=(steps, minibatch))
    else:
        block = np.stack([g.integers(0, hi + 1, size=(steps, minibatch)) for g in rng], axis=1)
    for c in range(1, minibatch):
        dup = (block[..., :c] == block[..., c:c + 1]).any(axis=-1)
        block[..., c][dup] = hi[c]
    return block


# At N = 3e9 about 30% of the 32-bit words are rejected, so nearly every
# generator takes the redraw; N = 2^32 is the last N drawn from raw words,
# N = 2^33 draws 64-bit words.
@pytest.mark.parametrize("N, M", [(1000, 20), (500, 5), (64, 8), (100, 99), (10, 9), (5, 3),
                                  (2, 1), (7, 1), (3_000_000_000, 4), (2**32, 2), (2**33, 3)])
def test_sampler_matches_the_reference_collision_pass(N, M):
    for repeats in (1, 2, 7):
        for steps, used in ((1, 0), (37, 0), (300, 0), (37, 1)):
            seeds = [stream_seed(19, r) for r in range(repeats)]
            ours, theirs = [make_rng(s) for s in seeds], [make_rng(s) for s in seeds]
            # Generator r first takes r + used 32-bit words: an odd count
            # leaves PCG64 holding the other half of its last 64-bit output.
            for r, g in enumerate(ours + theirs):
                g.integers(0, 2**32, size=r % repeats + used, dtype=np.uint64)
            assert ours[-1].bit_generator.state["has_uint32"] == (repeats - 1 + used) % 2
            one = repeats == 1  # a lone generator, not a sequence of one
            block = _draw_minibatch(ours[0] if one else ours, N, M, steps)
            expected = floyd_reference(theirs[0] if one else theirs, N, M, steps)
            assert block.shape == expected.shape and block.dtype == expected.dtype
            assert np.array_equal(block, expected), (repeats, steps, used)
            # Gathers take their index array's layout, and the families'
            # reductions over a gathered block depend on it.
            assert block.flags.c_contiguous
            for a, b in zip(ours, theirs):
                assert a.bit_generator.state == b.bit_generator.state


def test_sampler_rows_do_not_depend_on_block_size():
    N, M = 500, 5
    whole = _draw_minibatch(make_rng(3), N, M, 1000)
    rng = make_rng(3)
    one_by_one = np.concatenate([_draw_minibatch(rng, N, M, 1) for _ in range(1000)])
    assert np.array_equal(whole, one_by_one)
    rng = make_rng(3)
    uneven = np.concatenate([_draw_minibatch(rng, N, M, b) for b in (37, 1, 64, 898)])
    assert np.array_equal(whole, uneven)


@pytest.mark.parametrize("repeats", [1, 3])
def test_engine_indices_do_not_depend_on_block_or_stage_length(repeats, monkeypatch):
    # k = 100 is not a multiple of the block size B, so every stage ends on a
    # clipped block: at the default budget a stage is one block clipped to
    # the stage, at a budget of 30 steps four blocks (30, 30, 30, 10). Each
    # repeat's rows still read as one draw of n * k rows.
    N, M, k = 50, 4, 100
    seeds = [stream_seed(7, r) for r in range(repeats)]
    sched = make_schedule("constant", 2)
    draw = core._draw_minibatch
    for budget, blocks_per_stage in ((core.SAMPLER_BLOCK_ELEMENTS, 1), (30 * repeats * M, 4)):
        monkeypatch.setattr(core, "SAMPLER_BLOCK_ELEMENTS", budget)
        assert k % max(1, budget // (repeats * M))
        calls = []
        monkeypatch.setattr(core, "_draw_minibatch",
                            lambda *args: calls.append(args[3]) or draw(*args))
        prob = IndexRecorder(N)
        if repeats == 1:
            hsgd_run(np.zeros(1), sched, SgdConfig(0.1, k, M), prob, make_rng(seeds[0]))
        else:
            hsgd_run(np.zeros((repeats, 1)), sched, SgdConfig(0.1, k, M), prob,
                     [make_rng(s) for s in seeds])
        assert len(calls) == 2 * blocks_per_stage and sum(calls) == 2 * k
        seen = np.stack(prob.blocks)
        assert seen.shape == (2 * k, repeats, M)
        for r, seed in enumerate(seeds):
            assert np.array_equal(seen[:, r], draw(make_rng(seed), N, M, 2 * k))


@pytest.mark.parametrize("N, M", [(500, 5), (1000, 20), (64, 8), (10, 9), (7, 1)])
def test_sampler_rows_are_distinct_indices_in_range(N, M):
    rows = _draw_minibatch(make_rng(11), N, M, 2000)
    assert rows.shape == (2000, M)
    assert rows.min() >= 0 and rows.max() < N
    assert all(len(set(row)) == M for row in rows.tolist())


def test_sampler_subsets_are_uniform():
    # Every one of the C(5, 3) = 10 subsets is equally likely. At this fixed
    # seed the chi-square statistic (9 degrees of freedom) must stay below
    # 27.88, which a uniform sampler exceeds with probability 0.001.
    draws = 100_000
    rows = np.sort(_draw_minibatch(make_rng(2024), 5, 3, draws), axis=1)
    subsets, counts = np.unique(rows, axis=0, return_counts=True)
    assert len(subsets) == 10
    expected = draws / 10
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 27.88, chi2


def test_full_batch_draws_nothing():
    rng = make_rng(5)
    state = rng.bit_generator.state
    assert _draw_minibatch(rng, 100, 100, 64) is None
    assert rng.bit_generator.state == state
    prob = IndexRecorder(6)
    sgd_run(np.zeros((2, 1)), SgdConfig(0.1, 3, 6), prob, 1.0, [make_rng(0), make_rng(1)])
    assert prob.blocks == [None] * 3
