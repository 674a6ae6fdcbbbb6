"""Experiment orchestration: configs, traces, metadata replay, lockstep runs."""

import ast
import dataclasses
import io
import json
import multiprocessing
import os
import pickle
import sys
import time
import warnings

import numpy as np
import pytest

from homotopy_opt import cli, core, datasets, diagnostics, harness, problems
from homotopy_opt.core import (
    SAMPLER,
    ConfigurationError,
    NonFiniteError,
    SgdConfig,
    hsgd_run,
    make_rng,
    make_schedule,
    sgd_run,
    steps_per_epoch,
)
from homotopy_opt.harness import (
    CSV_HEADER,
    ExperimentConfig,
    _fstar_table,
    _run_arms,
    _run_slice,
    _sgd_total_steps,
    epochs_to_threshold,
    run_experiment,
)


def tiny_config(tmp_path, experiment, **overrides):
    raw = {
        "experiment": experiment,
        "repeats": overrides.pop("repeats", 3),
        "out_dir": str(tmp_path / overrides.pop("subdir", "run")),
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# ------------------------------------------------------------- configuration


def test_config_rejects_unknown_values(tmp_path):
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"experiment": "ridge"})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"experiment": "toy-erf", "method": "adam"})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"experiment": "toy-erf", "repeats": 0})


@pytest.mark.parametrize("experiment", ["ridge", None, ["toy-erf"]])
def test_unknown_experiment_names_every_experiment(experiment):
    with pytest.raises(ConfigurationError) as exc:
        ExperimentConfig.from_dict({"experiment": experiment})
    assert str(exc.value) == (f"unknown experiment {experiment!r}; expected one of "
                              "('toy-erf', 'sine-mlp', 'moons-logistic', 'synthetic-lq')")


def test_harness_compares_no_experiment_name():
    # What differs between experiments lives in their harness.EXPERIMENTS
    # records: a comparison of an experiment name with a string literal (or
    # a match on one) would be a family branch in the harness.
    def names_experiment(node):
        return (isinstance(node, ast.Name) and node.id == "experiment"
                or isinstance(node, ast.Attribute) and node.attr == "experiment")

    def has_string(node):
        return any(isinstance(n, ast.Constant) and isinstance(n.value, str) for n in ast.walk(node))

    with open(harness.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    branches = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and any(map(names_experiment, [node.left, *node.comparators]))
                and any(map(has_string, [node.left, *node.comparators]))
                or isinstance(node, ast.Match) and names_experiment(node.subject)]
    assert branches == [], f"harness.py compares the experiment name on lines {branches}"


@pytest.mark.parametrize("experiment, raw", [
    ("synthetic-lq", {"optimizer": {"minibatch": 65}}),        # more than N = 64
    ("synthetic-lq", {"master_seed": -1}),                     # PCG64 needs a seed >= 0
    ("synthetic-lq", {"optimizer": {"alpha": 0}}),
    ("toy-erf", {"optimizer": {"alpha": "fast"}}),
    ("synthetic-lq", {"optimizer": {"schedule": "cosine"}}),
    ("synthetic-lq", {"optimizer": {"explicit": [1.0, -1.0]}}),
    ("toy-erf", {"problem": {"fstar_grid": {"lo": 1.0, "hi": -1.0, "step": 0.1}}}),
    ("moons-logistic", {"dataset": {"noise_std": -0.1}}),
    ("sine-mlp", {"problem": {"L_pairs": 0.5}}),
    ("synthetic-lq", {"problem": {"mu": float("nan")}}),
    ("synthetic-lq", {"out_dir": 5}),
    # More cells than FSTAR_GRID_CELLS; numpy refuses both grids at once.
    ("toy-erf", {"problem": {"fstar_grid": {"lo": -1e300, "hi": 1e300, "step": 1e-300}}}),
    ("toy-erf", {"problem": {"fstar_grid": {"lo": -1e308, "hi": 1e308, "step": 1.0}}}),
])
def test_config_rejects_out_of_range_values(experiment, raw):
    with pytest.raises(ConfigurationError, match="optimizer.minibatch|invalid config values"):
        ExperimentConfig.from_dict({"experiment": experiment, **raw})


@pytest.mark.parametrize("L_tilde, alpha, named", [
    (0.0, 0.1, "L_tilde = 0.0"),
    (float("nan"), 0.1, "L_tilde = nan"),
    (float("inf"), "auto", "L_tilde = inf"),
    (5e-324, "auto", "L_tilde = 5e-324"),          # 1/L_tilde = inf
])
def test_resolve_alpha_rejects_an_unusable_L_tilde(tmp_path, monkeypatch, L_tilde, alpha, named):
    cfg = tiny_config(tmp_path, "synthetic-lq", optimizer={"alpha": alpha})
    problem, _ = harness.build_problem(cfg, harness.build_dataset(cfg))
    monkeypatch.setattr(harness, "_estimate_L", lambda *args: L_tilde)
    with pytest.raises(ConfigurationError, match=named):
        harness.resolve_alpha(cfg, problem)


@pytest.mark.parametrize("experiment, metric", [
    ("moons-logistic", "gap"),       # no f* oracle
    ("toy-erf", "error"),            # no classifier
    ("sine-mlp", "error"),
    ("synthetic-lq", "error"),
    ("toy-erf", "gpa"),              # not a metric at all
])
def test_config_rejects_unusable_threshold_metric(tmp_path, experiment, metric):
    raw = {"experiment": experiment, "threshold": 0.1, "threshold_metric": metric,
           "out_dir": str(tmp_path / "run")}
    with pytest.raises(ConfigurationError, match="threshold_metric"):
        ExperimentConfig.from_dict(raw)
    # Rejected before any compute: the run never starts, so it writes nothing.
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("experiment, raw, message", [
    ("synthetic-lq", {"optimizer": {"schedule": "explicit", "explicit": [1, 2], "n": 3}},
     "n = 3 entries"),
    ("synthetic-lq", {"optimizer": {"schedule": "explicit", "n": 2}}, "n = 2 entries"),
    ("moons-logistic", {"dataset": {"N": 41}}, "even dataset.N"),
    # Under any other schedule nothing reads the list.
    ("synthetic-lq", {"optimizer": {"explicit": [1, 2, 3], "k": 4, "n": 3}},
     'optimizer.explicit is read only under schedule "explicit", not \'constant\''),
])
def test_config_rejects_cross_field_mismatch(tmp_path, experiment, raw, message):
    raw = {"experiment": experiment, "out_dir": str(tmp_path / "run"), **raw}
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig.from_dict(raw)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("raw", [[1, 2], "x", "config", None, 3])
def test_config_must_be_an_object(raw):
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        ExperimentConfig.from_dict(raw)
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        ExperimentConfig.from_dict({"config": raw, "sampler": SAMPLER})


def test_reports_serialize_every_field_in_order():
    cfg = ExperimentConfig.from_dict({"experiment": "synthetic-lq"})
    raw = cfg.to_dict()
    assert list(raw) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert raw["optimizer"] == cfg.optimizer and raw["optimizer"] is not cfg.optimizer
    report = harness.ComparisonReport("synthetic-lq", None, "gap", {"sgd": {"failed": False}})
    assert report.to_dict() == {"experiment": "synthetic-lq", "threshold": None,
                                "threshold_metric": "gap", "arms": {"sgd": {"failed": False}},
                                "speedup": None, "speedup_note": ""}


def test_diagnose_rejects_lambda_outside_unit_interval(tmp_path):
    cfg = ExperimentConfig.from_dict({"experiment": "synthetic-lq", "out_dir": str(tmp_path / "d")})
    for lam in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            harness.run_diagnose(cfg, lam=lam)
    assert not (tmp_path / "d").exists()


def test_config_merges_defaults_and_overrides():
    cfg = ExperimentConfig.from_dict(
        {"experiment": "toy-erf", "optimizer": {"k": 3}, "dataset": {"noise_std": 0.5}})
    assert cfg.optimizer["k"] == 3
    assert cfg.optimizer["n"] == 40  # untouched default
    assert cfg.dataset["noise_std"] == 0.5
    assert cfg.dataset["slope"] == 3.0


def test_every_resolved_section_key_has_a_value_rule():
    # An explicit schedule adds optimizer.explicit to the keys from_dict resolves.
    explicit = {"optimizer": {"schedule": "explicit", "n": 2, "explicit": [1.0, 3.0]}}
    for experiment in harness.EXPERIMENTS:
        for raw in ({}, explicit):
            cfg = ExperimentConfig.from_dict({"experiment": experiment, **raw})
            keys = {f"{section}.{key}" for section in ("dataset", "optimizer", "problem")
                    for key in getattr(cfg, section)}
            assert keys <= set(harness.VALUE_RULES), (experiment, keys - set(harness.VALUE_RULES))


def test_config_resolves_the_derived_seeds():
    # A seed the config leaves out derives from master_seed; a given one stays,
    # and null is a config error.
    cases = (("moons-logistic", "dataset", "seed", 20240),
             ("sine-mlp", "problem", "init_seed", 826349110))  # 20240 ^ MLP_INIT_SALT
    for experiment, section, key, derived in cases:
        raw = {"experiment": experiment, "master_seed": 20240}
        assert getattr(ExperimentConfig.from_dict(raw), section)[key] == derived
        given = ExperimentConfig.from_dict({**raw, section: {key: 5}})
        assert getattr(given, section)[key] == 5
        with pytest.raises(ConfigurationError, match=f"{section}.{key} = None"):
            ExperimentConfig.from_dict({**raw, section: {key: None}})
    assert "init_seed" not in ExperimentConfig.from_dict({"experiment": "toy-erf"}).problem


def test_salted_streams_are_pinned():
    # The determinism contract: every auxiliary stream is PCG64 seeded by
    # master_seed XOR a documented salt. A changed salt or generator changes
    # every recorded run, so each stream's first draw, as its consumer makes
    # it, is pinned at the default master_seed.
    assert isinstance(make_rng(1).bit_generator, np.random.PCG64)
    streams = [(harness.L_ESTIMATE_SALT, 0x1E5717AD, "standard_normal", -0.5985508396163388),
               (harness.MLP_INIT_SALT, 0x31415926, "uniform", -0.2526399345599031),
               (datasets.SOURCE_NOISE_SALT, 0xA5A5A5A5, "standard_normal", 1.5901242875205612),
               (datasets.LQ_OFFSET_SALT, 0xFF5E75, "standard_normal", -0.3100316457638593)]
    for salt, literal, draw, first in streams:
        assert salt == literal
        args = (-1.0, 1.0) if draw == "uniform" else ()
        assert getattr(make_rng(20240 ^ salt), draw)(*args) == first, hex(salt)


def test_config_judges_a_ten_million_stage_schedule_in_time():
    # The judge builds the schedule, whose lambda path is one numpy pass; a
    # Python loop over its 10^7 stages took 3.5-3.8 s.
    raw = {"experiment": "synthetic-lq",
           "optimizer": {"k": 1, "n": 10**7, "schedule": "exponential", "eta": 1e-7}}
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(raw)
    assert time.perf_counter() - start < 1.5
    assert cfg.plan.schedule.lambdas.size == 10**7


def same_plan(a, b):
    """Whether two plans fix the same step totals, epoch length and lambda path bytes."""
    return ((a.steps, a.record_every) == (b.steps, b.record_every)
            and a.schedule.lambdas.tobytes() == b.schedule.lambdas.tobytes())


@pytest.mark.parametrize("experiment, raw, k", [
    # Each change ran on the plan judged for the old k. It ran to the end on
    # a 4-step plan (trace row 1 read uninitialized memory), raised KeyError
    # in the f* lookup, or raised IndexError past the end of the blocks.
    ("moons-logistic", {"dataset": {"N": 40}, "optimizer": {"k": 8, "n": 2, "minibatch": 4}}, 4),
    ("synthetic-lq", {"optimizer": {"k": 16, "n": 4}}, 8),
    ("synthetic-lq", {"optimizer": {"k": 16, "n": 4}}, 32),
    # Equal to the judged 8, but a float the judge rejects: raised TypeError.
    ("synthetic-lq", {"optimizer": {"k": 8, "n": 4}}, 8.0),
])
def test_a_config_changed_after_judging_does_not_run(tmp_path, experiment, raw, k):
    # The write raises; a config rebuilt with the value is judged anew.
    cfg = tiny_config(tmp_path, experiment, repeats=2, **raw)
    with pytest.raises(TypeError, match="does not support item assignment"):
        cfg.optimizer["k"] = k
    optimizer = {**cfg.optimizer, "k": k}
    if isinstance(k, float):
        with pytest.raises(ConfigurationError, match="optimizer.k = 8.0"):
            dataclasses.replace(cfg, optimizer=optimizer)
    else:
        rebuilt = dataclasses.replace(cfg, optimizer=optimizer)
        judged = tiny_config(tmp_path, experiment, repeats=2, **{**raw, "optimizer": optimizer})
        assert rebuilt.to_dict() == judged.to_dict() and same_plan(rebuilt.plan, judged.plan)
        assert rebuilt.plan.steps["hsgd"] == k * raw["optimizer"]["n"]
    assert cfg.optimizer["k"] == raw["optimizer"]["k"]
    assert not (tmp_path / "run").exists()


def test_constructing_a_config_judges_it(tmp_path):
    judged = tiny_config(tmp_path, "sine-mlp", repeats=2)
    values = {f.name: getattr(judged, f.name) for f in dataclasses.fields(ExperimentConfig)}
    plain = {**values, **{section: dict(values[section]) for section in harness.SECTIONS}}
    for cfg in (ExperimentConfig(**values), ExperimentConfig(**plain)):
        assert cfg.to_dict() == judged.to_dict() and same_plan(cfg.plan, judged.plan)
    bad = [({"repeats": 0}, "repeats = 0"), ({"experiment": "ridge"}, "unknown experiment"),
           ({"threshold_metric": "error"}, "threshold_metric 'error' is unavailable"),
           ({"optimizer": {**values["optimizer"], "K": 5}}, "unknown config keys")]
    for change, named in bad:
        with pytest.raises(ConfigurationError, match=named):
            ExperimentConfig(**{**values, **change})
    assert not (tmp_path / "run").exists()


def test_a_config_missing_a_section_key_is_refused(tmp_path):
    # from_dict merges the defaults; replace and direct construction do not, so the judge
    # names each missing key rather than failing later with a KeyError.
    judged = tiny_config(tmp_path, "synthetic-lq")
    values = {f.name: getattr(judged, f.name) for f in dataclasses.fields(ExperimentConfig)}
    cases = [({"optimizer": {"k": 4}}, "optimizer.alpha, optimizer.minibatch, optimizer.n, "
                                       "optimizer.schedule, optimizer.eta, "
                                       "optimizer.sgd_budget_factor"),
             ({"problem": {}}, "problem.mu, problem.w0, problem.L_radius, problem.L_pairs"),
             ({"dataset": {"offset_std": 1.0}}, "dataset.N")]
    for change, named in cases:
        for build in (lambda: dataclasses.replace(judged, **change),
                      lambda: ExperimentConfig(**{**values, **change})):
            with pytest.raises(ConfigurationError, match=f"missing config keys for synthetic-lq: "
                                                         f"{named}$"):
                build()
    assert not (tmp_path / "run").exists()


def test_run_plans_compare_and_hash_by_identity(tmp_path):
    # The generated __eq__ compared the schedules' arrays, which have no truth value.
    plans = [tiny_config(tmp_path, "synthetic-lq").plan for _ in range(2)]
    assert plans[0] == plans[0] and plans[0] != plans[1]
    assert hash(plans[0]) == hash(plans[0])
    assert plans[0] in set(plans[:1]) and plans[1] not in set(plans[:1])


def test_config_accepts_metadata_wrapper():
    meta = {"config": {"experiment": "synthetic-lq", "repeats": 7}, "library_version": "x",
            "sampler": SAMPLER}
    cfg = ExperimentConfig.from_dict(meta)
    assert cfg.experiment == "synthetic-lq" and cfg.repeats == 7


def test_sgd_budget_matches_hsgd_total():
    sched = make_schedule("constant", 8)
    cfg = SgdConfig(0.1, 25, 4)
    assert _sgd_total_steps(cfg.steps, sched.n) == 200
    assert _sgd_total_steps(cfg.steps, sched.n, budget_factor=2) == 400


def test_epochs_to_threshold():
    curve = [5.0, 3.0, 0.09, 0.2, 0.01]
    assert epochs_to_threshold(curve, 0.1) == 2
    assert epochs_to_threshold(curve, 1e-6) is None


# ----------------------------------------------------------------- traces


@pytest.fixture(scope="module")
def lq_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lq")
    cfg = ExperimentConfig.from_dict({
        "experiment": "synthetic-lq",
        "repeats": 4,
        "out_dir": str(tmp / "a"),
        "optimizer": {"k": 16, "n": 5},
    })
    arms, report = run_experiment(cfg)
    return cfg, arms, report, tmp


def test_trace_csv_schema(lq_run):
    cfg, arms, report, tmp = lq_run
    for method in ("sgd", "hsgd"):
        lines = (tmp / "a" / f"trace_{method}.csv").read_text(encoding="utf-8").split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[-1] == ""
        first = lines[1].split(",")
        assert len(first) == 6
        assert first[0] == "0"
        # synthetic-lq has an exact f* = 0 oracle, so the gap column is filled
        assert first[4] != ""


def test_grad_evals_accounting(lq_run):
    cfg, arms, report, tmp = lq_run
    spe = steps_per_epoch(64, int(cfg.optimizer["minibatch"]))
    for arm in arms.values():
        assert np.array_equal(arm.grad_evals,
                              arm.epochs * spe * int(cfg.optimizer["minibatch"]))


def test_arm_lengths_respect_budgets(lq_run):
    cfg, arms, report, tmp = lq_run
    spe = steps_per_epoch(64, int(cfg.optimizer["minibatch"]))
    n, k = 5, 16
    assert arms["hsgd"].epochs[-1] == n * k // spe
    assert arms["sgd"].epochs[-1] == n * k // spe


def test_metadata_contents(lq_run):
    cfg, arms, report, tmp = lq_run
    meta = json.loads((tmp / "a" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["config"]["experiment"] == "synthetic-lq"
    assert meta["repeat_seeds"] == [cfg.master_seed ^ r for r in range(4)]
    assert abs(sum(meta["schedule_increments"]) - 1.0) < 1e-12
    assert meta["alpha_resolved"] == cfg.optimizer["alpha"]


def test_lq_gap_equals_objective(lq_run):
    # f*(lambda) = 0 exactly for the quadratic family.
    cfg, arms, report, tmp = lq_run
    assert np.array_equal(arms["hsgd"].mean_gap, arms["hsgd"].mean_objective)


def test_replay_from_metadata_is_byte_identical(lq_run):
    cfg, arms, report, tmp = lq_run
    meta = json.loads((tmp / "a" / "metadata.json").read_text(encoding="utf-8"))
    meta["config"]["out_dir"] = str(tmp / "b")
    replay_cfg = ExperimentConfig.from_dict(meta)
    run_experiment(replay_cfg)
    for name in ("trace_sgd.csv", "trace_hsgd.csv"):
        assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()


# Small runs of each experiment, for tests that go through run_experiment.
TINY_RUNS = {
    "toy-erf": {"optimizer": {"k": 4, "n": 3}},
    "sine-mlp": {"dataset": {"N": 40}, "optimizer": {"k": 16, "n": 2}},
    "moons-logistic": {"dataset": {"N": 100}, "optimizer": {"k": 10, "n": 2}},
    "synthetic-lq": {"optimizer": {"k": 8, "n": 2}},
}

# The problem values a metadata file records since from_dict resolves them;
# a file written before lacks them.
NEWLY_RECORDED = {"synthetic-lq": ("L_pairs", "L_radius"), "sine-mlp": ("init_seed",)}


@pytest.mark.parametrize("experiment", sorted(NEWLY_RECORDED))
def test_replay_of_metadata_without_the_resolved_defaults(tmp_path, experiment):
    run_experiment(tiny_config(tmp_path, experiment, subdir="a", **TINY_RUNS[experiment]))
    meta = json.loads((tmp_path / "a" / "metadata.json").read_text(encoding="utf-8"))
    recorded = dict(meta["config"]["problem"])
    for key in NEWLY_RECORDED[experiment]:
        del meta["config"]["problem"][key]
    run_experiment(ExperimentConfig.from_dict(meta, out_dir=str(tmp_path / "b")))
    csvs = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert {"trace_sgd.csv", "trace_hsgd.csv"} <= set(csvs)
    for name in csvs:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
    replayed = json.loads((tmp_path / "b" / "metadata.json").read_text(encoding="utf-8"))
    assert replayed["config"]["problem"] == recorded


def recording(section, absent):
    """A dict type that appends ``section.key`` to ``absent`` on a ``get`` of a key it lacks."""
    class Section(dict):
        def get(self, key, default=None):
            if key not in self:
                absent.append(f"{section}.{key}")
            return super().get(key, default)
    return Section


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_no_read_supplies_its_own_default(tmp_path, experiment, monkeypatch):
    # Every value run and diagnose read comes from from_dict, so metadata.json
    # records it; only the explicit schedule's list is read when present.
    absent = []
    cfg = tiny_config(tmp_path, experiment, repeats=2, **TINY_RUNS[experiment])
    for section in harness.SECTIONS:  # past the frozen dataclass, in this test only
        object.__setattr__(cfg, section, recording(section, absent)(getattr(cfg, section)))
    fstar = diagnostics.estimate_fstar
    monkeypatch.setattr(diagnostics, "estimate_fstar", lambda problem, lam, spec: fstar(
        problem, lam, recording("fstar_spec", absent)(spec)))
    with np.errstate(all="ignore"):  # as cli.main runs them: sine-mlp's multistart diverges
        run_experiment(cfg)
        harness.run_diagnose(cfg, lam=1.0)
    assert set(absent) <= {"optimizer.explicit"}


# --------------------------------------------------------------- moons arm


def test_moons_error_metric_and_csv(tmp_path):
    cfg = tiny_config(tmp_path, "moons-logistic", repeats=2,
                      dataset={"N": 100}, optimizer={"k": 10, "n": 4})
    arms, report = run_experiment(cfg)
    assert arms["sgd"].mean_error is not None
    assert np.all((0.0 <= arms["sgd"].mean_error) & (arms["sgd"].mean_error <= 1.0))
    err_csv = tmp_path / "run" / "trace_sgd_error.csv"
    assert err_csv.exists()
    assert report.threshold_metric == "error"


# ----------------------------------------------------------------- MLP arm


LOCKSTEP_CASES = {
    "toy-erf": {"dataset": {"N": 40}, "optimizer": {"minibatch": 10}},
    "sine-mlp": {"dataset": {"N": 40}},
    "moons-logistic": {"dataset": {"N": 100}},
    "synthetic-lq": {},
}

# The second per-epoch metric of each family, at a single point.
POINT_AUX = {
    "sine-mlp": lambda p: lambda w, lam: p.full_objective(w, 1.0),
    "moons-logistic": lambda p: lambda w, lam: p.epoch_metrics(w[None], lam)[1][0],
}


def arm_plan(sched, cfg_sgd, budget_factor=1):
    """The RunPlan of an sgd and an hsgd arm on ``sched`` with ``cfg_sgd``'s k and epoch length."""
    return harness.RunPlan(sched, cfg_sgd.record_every, {
        method: _sgd_total_steps(cfg_sgd.steps, sched.n, budget_factor if method == "sgd" else 1)
        for method in ("sgd", "hsgd")})


def sequential_arm(problem, w0, method, sched, cfg_sgd, seed, aux_fn, budget_factor):
    """One repeat through the single-point sgd_run / hsgd_run, recorded like an arm."""
    lam0 = 0.0 if method == "hsgd" else 1.0
    lams, objs = [lam0], [problem.full_objective(w0, lam0)]
    auxs = [aux_fn(w0, lam0)] if aux_fn else []

    def sink(step, lam, w, fval):
        lams.append(lam)
        objs.append(fval)
        if aux_fn:
            auxs.append(aux_fn(w, lam))

    rng = make_rng(seed)
    if method == "hsgd":
        hsgd_run(w0, sched, cfg_sgd, problem, rng, sink=sink)
    else:
        total = _sgd_total_steps(cfg_sgd.steps, sched.n, budget_factor)
        flat = SgdConfig(cfg_sgd.alpha, total, cfg_sgd.minibatch,
                         record_every=cfg_sgd.record_every)
        sgd_run(w0, flat, problem, 1.0, rng, sink=sink)
    return np.array(lams), np.array(objs), np.array(auxs)


@pytest.mark.parametrize("experiment", sorted(LOCKSTEP_CASES))
def test_lockstep_engine_matches_single_repeat_runs(tmp_path, experiment):
    cfg = tiny_config(tmp_path, experiment, **LOCKSTEP_CASES[experiment])
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))
    minibatch = int(cfg.optimizer["minibatch"])
    alpha = cfg.optimizer["alpha"]
    alpha = 0.05 if alpha == "auto" else float(alpha)
    cfg_sgd = SgdConfig(alpha, 30, minibatch,
                        record_every=steps_per_epoch(problem.sample_count, minibatch))
    sched = make_schedule("exponential", 4, eta=0.5)
    point_aux = POINT_AUX[experiment](problem) if experiment in POINT_AUX else None
    seeds = [11, 12, 13]
    plan = arm_plan(sched, cfg_sgd, budget_factor=2)
    for method in ("sgd", "hsgd"):
        lam_b, obj_b, aux_b, _ = _run_arms(problem, w0, plan, cfg_sgd, seeds,
                                           {method: plan.allocate(method, len(seeds))})[method]
        assert (aux_b is None) == (point_aux is None)
        for r, seed in enumerate(seeds):
            lam_s, obj_s, aux_s = sequential_arm(problem, w0, method, sched, cfg_sgd, seed,
                                                 point_aux, budget_factor=2)
            assert np.array_equal(lam_b, lam_s)
            assert np.max(np.abs(obj_b[r] - obj_s)) < 1e-9
            if point_aux is not None:
                assert np.max(np.abs(aux_b[r] - aux_s)) < 1e-9


# Every family at M = N, small enough to step an arm in a test.
FULL_BATCH_CASES = {
    "toy-erf": {"dataset": {"N": 40}, "optimizer": {"minibatch": 40}},
    "sine-mlp": {"dataset": {"N": 40}, "optimizer": {"minibatch": 40}},
    "moons-logistic": {"dataset": {"N": 100}, "optimizer": {"minibatch": 100}},
    "synthetic-lq": {"optimizer": {"minibatch": 64}},
}


@pytest.fixture
def slice_starts(monkeypatch):
    """The shape of every start block handed to ``_run_slice``, in call order."""
    starts, real = [], harness._run_slice

    def run_slice(problem, W0, *args, **kwargs):
        starts.append(W0.shape)
        return real(problem, W0, *args, **kwargs)

    monkeypatch.setattr(harness, "_run_slice", run_slice)
    return starts


@pytest.mark.parametrize("experiment", sorted(FULL_BATCH_CASES))
def test_full_batch_arm_steps_one_repeat(tmp_path, slice_starts, experiment):
    # A full batch draws nothing from the repeats' streams, so from one start
    # point every repeat is repeat 0; a start block steps every repeat.
    cfg = tiny_config(tmp_path, experiment, **FULL_BATCH_CASES[experiment])
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))
    alpha = cfg.optimizer["alpha"]
    alpha = 0.05 if alpha == "auto" else float(alpha)
    cfg_sgd = SgdConfig(alpha, 6, problem.sample_count, record_every=1)
    sched = make_schedule("exponential", 3, eta=0.5)
    seeds = [11, 12, 13, 14, 15]
    plan = arm_plan(sched, cfg_sgd, budget_factor=2)
    for method in ("sgd", "hsgd"):
        slice_starts.clear()
        point = _run_arms(problem, w0, plan, cfg_sgd, seeds,
                          {method: plan.allocate(method, 5)})[method]
        assert slice_starts == [(1, problem.dimension)]
        block = _run_arms(problem, np.tile(w0, (5, 1)), plan, cfg_sgd, seeds,
                          {method: plan.allocate(method, 5)})[method]
        assert slice_starts[1:] == [(5, problem.dimension)]
        assert np.array_equal(point[0], block[0]) and np.array_equal(point[1], block[1])
        assert point[1].shape == (5, point[0].size)
        if block[2] is None:
            assert point[2] is None
        else:
            assert np.array_equal(point[2], block[2])


def test_diverging_full_batch_arm_fails_as_every_repeat_would(tmp_path, slice_starts):
    cfg = tiny_config(tmp_path, "sine-mlp", **FULL_BATCH_CASES["sine-mlp"])
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))
    cfg_sgd = SgdConfig(1e150, 6, problem.sample_count, record_every=1)
    plan = arm_plan(make_schedule("exponential", 3, eta=0.5), cfg_sgd)
    messages = []
    for start in (w0, np.tile(w0, (5, 1))):
        with np.errstate(all="ignore"):
            outcome = _run_arms(problem, start, plan, cfg_sgd, [1, 2, 3, 4, 5],
                                {"hsgd": plan.allocate("hsgd", 5)})["hsgd"]
        assert isinstance(outcome, NonFiniteError)
        messages.append(str(outcome))
    assert slice_starts == [(1, problem.dimension), (5, problem.dimension)]
    assert messages[0] == messages[1] and "(repeat 0, " in messages[0]


def test_nonfinite_block_names_the_repeat(tmp_path):
    cfg = tiny_config(tmp_path, "toy-erf")
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))
    W0 = np.array([w0, [np.nan], w0])
    rngs = [make_rng(seed) for seed in (1, 2, 3)]
    with pytest.raises(NonFiniteError, match=r"step 1 \(repeat 1\)") as err:
        sgd_run(W0, SgdConfig(0.1, 5, 10), problem, 1.0, rngs)
    assert (err.value.step, err.value.repeat) == (1, 1)


# ------------------------------------------------------ repeats split in slices


def in_worker_only(monkeypatch, action):
    """Make ``_run_slice`` call ``action()`` in a forked worker; this process runs its slice."""
    parent, real = os.getpid(), harness._run_slice

    def run_slice(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_slice", run_slice)


# Each case's config, and whether its arms fork one worker per slice after
# the first. A full-batch arm (toy-erf's default M = N) steps one repeat, so
# it forks at no slice count.
SPLIT_CASES = {
    "toy-erf": ({"optimizer": {"k": 4, "n": 6}}, False),
    "toy-erf minibatch": ({"experiment": "toy-erf",
                           "optimizer": {"minibatch": 10, "k": 4, "n": 6}}, True),
    "moons-logistic": ({"dataset": {"N": 100}, "optimizer": {"k": 6, "n": 3}}, True),
    "sine-mlp": ({"dataset": {"N": 40}, "optimizer": {"k": 16, "n": 2}}, True),
    "diverging sine-mlp": ({"experiment": "sine-mlp", "method": "hsgd", "dataset": {"N": 40},
                            "optimizer": {"alpha": 1e150, "k": 16, "n": 2}}, True),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_split_outputs_are_byte_identical(tmp_path, slices, case):
    overrides, forks = SPLIT_CASES[case]
    raw = {"experiment": case, "repeats": 5, **overrides}
    outputs = {}
    for count in (1, 2, 3):
        started = slices(count)
        cfg = ExperimentConfig.from_dict({**raw, "out_dir": str(tmp_path / str(count))})
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the diverging step size is out of range
            run_experiment(cfg)
        # One block of every arm per run: one worker per slice after the first.
        assert len(started) == (count - 1 if forks else 0)
        meta = json.loads((tmp_path / str(count) / "metadata.json").read_text(encoding="utf-8"))
        meta["config"]["out_dir"] = None
        outputs[count] = meta, {p.name: p.read_bytes() for p in (tmp_path / str(count)).iterdir()
                                if p.name != "metadata.json"}
    names = set(outputs[1][1])
    if "diverging" in case:
        assert names == {"report.json"}
        assert "non-finite" in json.loads(outputs[1][1]["report.json"])["arms"]["hsgd"]["failure"]
    else:
        assert {"report.json", "trace_sgd.csv", "trace_hsgd.csv"} <= names
        assert ("hsgd_snapshots.csv" in names) == (case != "moons-logistic")
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    assert multiprocessing.active_children() == []


# Tiny runs of each family whose budget factors of 0.5 end the SGD rows at a
# stage boundary (toy-erf, sine-mlp) or within a stage (moons, synthetic-lq).
ARMS_CASES = {
    "toy-erf": {"optimizer": {"k": 4, "n": 6}},  # M = N: one row per arm
    "toy-erf minibatch": {"experiment": "toy-erf", "dataset": {"N": 40},
                          "optimizer": {"minibatch": 10, "k": 4, "n": 6}},
    "sine-mlp": {"dataset": {"N": 40}, "optimizer": {"k": 16, "n": 2}},
    "moons-logistic": {"dataset": {"N": 100}, "optimizer": {"k": 6, "n": 3}},
    "synthetic-lq": {"optimizer": {"k": 5, "n": 3}},
}
TRACE_FILES = ("trace_sgd.csv", "trace_hsgd.csv", "trace_sgd_error.csv", "trace_hsgd_error.csv",
               "hsgd_snapshots.csv")


def run_files(tmp_path, raw, name):
    """The trace and snapshot files of a run of the config ``raw``, by name."""
    run_experiment(ExperimentConfig.from_dict({**raw, "out_dir": str(tmp_path / name)}))
    return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir() if p.name in TRACE_FILES}


@pytest.mark.parametrize("case", sorted(ARMS_CASES))
def test_both_arms_write_the_bytes_of_each_arm_alone(tmp_path, slices, case):
    # Both arms step as one block per slice; each arm's files are the ones
    # it writes alone, at every slice count and SGD budget factor.
    raw = {"experiment": case, "repeats": 5, **ARMS_CASES[case]}
    slices(1)
    hsgd = run_files(tmp_path, {**raw, "method": "hsgd"}, "hsgd")
    for factor in (0.5, 1, 2):
        with_factor = {**raw, "optimizer": {**raw["optimizer"], "sgd_budget_factor": factor}}
        slices(1)
        alone = {**hsgd, **run_files(tmp_path, {**with_factor, "method": "sgd"}, f"sgd{factor}")}
        assert "trace_sgd.csv" in alone and "trace_hsgd.csv" in alone
        for count in (1, 2, 3):
            slices(count)
            both = run_files(tmp_path, {**with_factor, "method": "both"}, f"both{factor}-{count}")
            assert both == alone, (factor, count)
    assert multiprocessing.active_children() == []


def fork_every_slice(run, rows, steps, samples):
    """``core.fork_rows`` with every slice, slice 0 included, stepped in a forked worker."""
    fork, results = multiprocessing.get_context("fork"), []
    for part in np.array_split(np.arange(rows), core._slice_count(rows, steps, samples)):
        receive, send = fork.Pipe(duplex=False)
        worker = fork.Process(target=core._part_worker, args=(send, run, part), daemon=True)
        worker.start()
        send.close()
        ok, result = receive.recv()
        worker.join()
        if not ok:
            raise result
        results.append(result)
    return results


@pytest.mark.parametrize("case", ["toy-erf minibatch", "sine-mlp"])
def test_no_output_depends_on_which_process_steps_a_slice(tmp_path, slices, monkeypatch, case):
    # Both arms at a minibatch, so that every slice steps its own repeats.
    raw = {"experiment": case, "repeats": 5, **ARMS_CASES[case]}
    outputs = {}
    for name in ("in-process", "all-forked"):
        started = slices(1 if name == "in-process" else 2)
        if name == "all-forked":
            monkeypatch.setattr(core, "fork_rows", fork_every_slice)
        run_experiment(ExperimentConfig.from_dict({**raw, "out_dir": str(tmp_path / name)}))
        assert len(started) == (0 if name == "in-process" else 2)
        meta = json.loads((tmp_path / name / "metadata.json").read_text(encoding="utf-8"))
        meta["config"]["out_dir"] = None
        outputs[name] = meta, {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                               if p.name != "metadata.json"}
    assert {"trace_sgd.csv", "trace_hsgd.csv", "hsgd_snapshots.csv"} <= set(outputs["in-process"][1])
    assert outputs["all-forked"] == outputs["in-process"]
    assert multiprocessing.active_children() == []


def test_an_hsgd_arm_diverging_in_a_worker_slice_writes_no_snapshots(tmp_path, slices,
                                                                     monkeypatch):
    # Repeat 4 starts at NaN: at 2 slices only the worker's slice (repeats 3
    # and 4) diverges, while slice 0 ends every stage, and the arm fails as
    # it does in one slice.
    real = harness.build_problem

    def build_problem(cfg, dataset):
        problem, w0 = real(cfg, dataset)
        W0 = np.tile(w0, (cfg.repeats, 1))
        W0[4] = np.nan
        return problem, W0

    monkeypatch.setattr(harness, "build_problem", build_problem)
    raw = {"experiment": "sine-mlp", "method": "hsgd", "repeats": 5, **ARMS_CASES["sine-mlp"]}
    failures = []
    for count in (1, 2):
        started = slices(count)
        with np.errstate(all="ignore"):
            arms, _ = run_experiment(ExperimentConfig.from_dict(
                {**raw, "out_dir": str(tmp_path / str(count))}))
        assert len(started) == count - 1
        assert sorted(p.name for p in (tmp_path / str(count)).iterdir()) == \
            ["metadata.json", "report.json"]
        failures.append(arms["hsgd"].failure)
    assert failures[0].startswith("non-finite gradient at step 1 (repeat 4, homotopy iteration 1")
    assert failures[1] == failures[0]
    assert multiprocessing.active_children() == []


def test_a_diverging_hsgd_arm_leaves_the_sgd_rows_as_they_are(tmp_path, slices, monkeypatch):
    # A gradient that is NaN on every row whose lambda is below 1 fails the
    # H-SGD rows of a block at their first step and no SGD row: each arm's
    # outcome is the one it has alone.
    real = problems.MlpRegressionProblem._gradient

    def gradient(self, W, lam, idx=None, with_metrics=False):
        out = real(self, W, lam, idx, with_metrics)
        grad = out[1] if with_metrics else out
        grad[np.broadcast_to(np.asarray(lam) < 1.0, (len(W), 1))[:, 0]] = np.nan
        return out

    monkeypatch.setattr(problems.MlpRegressionProblem, "_gradient", gradient)
    raw = {"experiment": "sine-mlp", "repeats": 5, **ARMS_CASES["sine-mlp"]}

    def run(method, count):  # the run's trace files and report arms
        slices(count)
        name = f"{method}{count}"
        with np.errstate(all="ignore"):
            files = run_files(tmp_path, {**raw, "method": method}, name)
        return files, json.loads((tmp_path / name / "report.json").read_bytes())["arms"]

    (sgd_files, sgd), (hsgd_files, hsgd) = run("sgd", 1), run("hsgd", 1)
    assert list(sgd_files) == ["trace_sgd.csv"] and hsgd_files == {}
    assert hsgd["hsgd"]["failure"].startswith(
        "non-finite gradient at step 1 (repeat 0, homotopy iteration 1, lambda=0.")
    for count in (1, 2, 3):
        assert run("both", count) == (sgd_files, {**sgd, **hsgd})
    assert multiprocessing.active_children() == []


def test_both_arms_call_the_oracle_for_the_longer_arm_steps_only(tmp_path):
    # sine-mlp, k = 16, n = 2 and factor 2: the H-SGD arm takes 32 steps and
    # the SGD arm 64. Alone they make 96 gradient calls; in one block 64, 32
    # of them with both arms' rows. Records go through epoch_metrics.
    cfg = tiny_config(tmp_path, "sine-mlp", repeats=5, **ARMS_CASES["sine-mlp"])
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))
    calls, real = [], problem.gradient

    def gradient(W, *args, **kwargs):
        calls.append(len(W))
        return real(W, *args, **kwargs)

    problem.gradient = gradient
    plan = cfg.plan
    cfg_sgd = SgdConfig(0.05, 16, 5, record_every=plan.record_every)
    seeds = [core.stream_seed(cfg.master_seed, r) for r in range(5)]
    assert plan.steps == {"sgd": 64, "hsgd": 32}
    for method in plan.steps:
        _run_arms(problem, w0, plan, cfg_sgd, seeds, {method: plan.allocate(method, 5)})
    assert len(calls) == 96 and set(calls) == {5}
    calls.clear()
    harness._run_arms(problem, w0, plan, cfg_sgd, seeds,
                      {method: plan.allocate(method, 5) for method in plan.steps})
    assert calls == [10] * 32 + [5] * 32


def test_one_cpu_or_a_small_arm_starts_no_process(tmp_path, monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", no_fork)
    raw = {"experiment": "toy-erf", "repeats": 4, "optimizer": {"k": 4, "n": 6}}
    # 4 repeats x 24 steps x 100 samples: below the budget, even with four CPUs.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert core._slice_count(4, 24, 100) == 1
    run_experiment(ExperimentConfig.from_dict({**raw, "out_dir": str(tmp_path / "small")}))
    # Over the budget, but with one usable CPU.
    monkeypatch.setattr(core, "FORK_GRAD_EVALS", 1)
    assert core._slice_count(4, 24, 100) == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert core._slice_count(4, 24, 100) == 1
    run_experiment(ExperimentConfig.from_dict({**raw, "out_dir": str(tmp_path / "one-cpu")}))


class Sliced(Exception):
    """Raised by a wrapped ``core._slice_count`` with the slice count it returned."""


def fork_cases(name, raw, arm, both):
    """FORK_RULE's rows of the config ``raw``: each arm alone (``arm`` slices), then both."""
    return {**{f"{name} {method}": ({**raw, "method": method}, "run", arm)
               for method in ("sgd", "hsgd")}, f"{name} run": (raw, "run", both)}


# (config, what: "run" or "multistart", slices at 2 usable CPUs): each arm
# alone and both arms of every default run and of the moons-seq and
# mlp-batched benchmark runs (k = 100), the diagnose multistarts of the
# families without an f* oracle, and a multistart of the largest size a
# unit test runs. A run counts the steps of every arm it steps.
FORK_RULE = {
    **fork_cases("toy-erf", {"experiment": "toy-erf"}, 1, 1),  # full batch: 1 x (400 + 400) x 100
    **fork_cases("synthetic-lq", {"experiment": "synthetic-lq"}, 1, 2),  # 100 x (1000 + 1000) x 8
    **fork_cases("moons-logistic", {"experiment": "moons-logistic"}, 2, 2),
    **fork_cases("sine-mlp", {"experiment": "sine-mlp"}, 2, 2),
    **fork_cases("moons-seq", {"experiment": "moons-logistic", "optimizer": {"k": 100}}, 2, 2),
    # The hsgd arm alone: 100 x 2000 x 5, exactly the constant.
    **fork_cases("mlp-batched", {"experiment": "sine-mlp", "optimizer": {"k": 100}}, 2, 2),
    "moons-logistic multistart": ({"experiment": "moons-logistic"}, "multistart", 2),  # 10 x 1500 x 1000
    "sine-mlp multistart": ({"experiment": "sine-mlp"}, "multistart", 2),  # 10 x 1500 x 500
    "unit-test multistart": ({"experiment": "sine-mlp", "dataset": {"N": 100}},
                             {"restarts": 300, "steps": 2}, 1),  # 300 x 2 x 100
}


@pytest.mark.parametrize("case", FORK_RULE)
def test_fork_rule_at_two_cpus(monkeypatch, case):
    raw, what, expected = FORK_RULE[case]
    cfg = ExperimentConfig.from_dict(raw)
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))

    real = core._slice_count

    def slice_count(rows, steps, samples):
        raise Sliced(real(rows, steps, samples))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(core, "_slice_count", slice_count)
    with pytest.raises(Sliced) as sliced:
        if what == "run":
            plan = cfg.plan
            cfg_sgd = SgdConfig(0.01, cfg.optimizer["k"], cfg.optimizer["minibatch"],
                                record_every=plan.record_every)
            seeds = [core.stream_seed(cfg.master_seed, r) for r in range(cfg.repeats)]
            harness._run_arms(problem, w0, plan, cfg_sgd, seeds,
                              {method: plan.allocate(method, cfg.repeats) for method in plan.steps})
        else:  # run_diagnose's spec, or the given restarts and steps
            sizes = {"restarts": 10, "steps": 1500} if what == "multistart" else what
            diagnostics.estimate_fstar(problem, 1.0, {"kind": "multistart", **sizes,
                                                      "alpha": 0.05, "seed": 0, "init_center": w0})
    assert sliced.value.args == (expected,)


def test_failing_in_process_multistart_slice_leaves_no_worker(tmp_path, monkeypatch):
    # The descent's own slice raises while a worker descends the other: the
    # error leaves diagnose, and the worker is ended, not waited for.
    monkeypatch.setattr(core, "_slice_count", lambda rows, steps, samples: min(2, rows))
    parent, real = os.getpid(), problems.CubicLogisticProblem._gradient

    def gradient(self, W, lam, idx=None, with_metrics=False):
        if os.getpid() != parent:
            time.sleep(60)
        elif multiprocessing.active_children():  # only the multistart forks
            raise KeyError("in-process slice")
        return real(self, W, lam, idx, with_metrics)

    monkeypatch.setattr(problems.CubicLogisticProblem, "_gradient", gradient)
    cfg = ExperimentConfig.from_dict({"experiment": "moons-logistic", "dataset": {"N": 100},
                                      "problem": {"L_pairs": 20}, "out_dir": str(tmp_path)})
    start = time.perf_counter()
    with pytest.raises(KeyError, match="in-process slice"):
        harness.run_diagnose(cfg)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def lq_arm(rows, alpha=0.1):
    """A 5-repeat synthetic-lq hsgd arm from the start rows ``rows``."""
    cfg = ExperimentConfig.from_dict({"experiment": "synthetic-lq"})
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))
    W0 = np.tile(w0, (5, 1))
    for r, value in rows.items():
        W0[r] = value
    cfg_sgd = SgdConfig(alpha, 10, 8, record_every=8)
    plan = arm_plan(make_schedule("constant", 3), cfg_sgd)

    def arm():  # the arm's outcome, its NonFiniteError raised
        outcome = _run_arms(problem, W0, plan, cfg_sgd, [20 + r for r in range(5)],
                            {"hsgd": plan.allocate("hsgd", 5)})["hsgd"]
        if isinstance(outcome, NonFiniteError):
            raise outcome
        return outcome
    return arm


@pytest.mark.parametrize("rows, expected", [
    ({3: np.nan}, "non-finite gradient at step 1 (repeat 3, homotopy iteration 1"),
    # Repeat 0's iterate overflows at the step where repeat 3's gradient is
    # NaN: the engine checks every gradient before any iterate.
    ({0: 1e308, 3: np.nan}, "non-finite gradient at step 1 (repeat 3,"),
    ({0: 1e308}, "non-finite iterate at step 1 (repeat 0,"),
    ({2: 1e308, 4: np.nan}, "non-finite gradient at step 1 (repeat 4,"),
])
def test_worker_nonfinite_error_is_the_serial_one(slices, rows, expected):
    arm = lq_arm(rows, alpha=3.0)
    errors = []
    for count in (1, 2, 3):
        slices(count)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as err:
            arm()
        errors.append((str(err.value), err.value.step, err.value.repeat,
                       err.value.homotopy_iteration, err.value.lam))
    assert errors[0][0].startswith(expected)
    assert errors[1] == errors[0] and errors[2] == errors[0]


def test_worker_error_is_reraised(tmp_path, slices, monkeypatch):
    slices(2)

    def fail():
        raise ConfigurationError("raised in a worker")

    in_worker_only(monkeypatch, fail)
    with pytest.raises(ConfigurationError, match="raised in a worker") as err:
        lq_arm({})()
    assert "raised in a forked worker" in err.value.__notes__[-1]
    assert "in fail" in err.value.__notes__[-1]  # the worker's own traceback
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "synthetic-lq", "repeats": 4,
                                  "optimizer": {"k": 4, "n": 2}}), encoding="utf-8")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == \
        cli.EXIT_CONFIG
    in_worker_only(monkeypatch, lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited without a result"):
        lq_arm({})()
    assert multiprocessing.active_children() == []


def test_worker_error_outranks_a_nonfinite_parent_slice(slices, monkeypatch):
    # Repeat 0's NaN start fails this process's slice with a NonFiniteError.
    # Any other error outranks it, so the worker's error is the arm's.
    slices(2)

    def fail():
        raise ConfigurationError("raised in a worker")

    in_worker_only(monkeypatch, fail)
    with np.errstate(all="ignore"), pytest.raises(ConfigurationError,
                                                  match="raised in a worker") as err:
        lq_arm({0: np.nan})()
    assert "raised in a forked worker" in err.value.__notes__[-1]
    assert multiprocessing.active_children() == []


def test_failing_parent_slice_terminates_the_workers(slices, monkeypatch):
    slices(3)
    parent, real = os.getpid(), harness._run_slice

    def run_slice(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyError("parent slice")
        time.sleep(60)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "_run_slice", run_slice)
    start = time.perf_counter()
    with pytest.raises(KeyError, match="parent slice"):
        lq_arm({})()
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_workers_are_waited_for_and_leave_stdout_alone(tmp_path, slices, monkeypatch):
    slices(2)

    def spin():  # CPU time the parent must account for once the worker is joined
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass

    in_worker_only(monkeypatch, spin)
    parent = os.getpid()
    flushes = os.open(tmp_path / "flushes", os.O_WRONLY | os.O_CREAT)

    class Stdout(io.StringIO):
        def flush(self):
            if os.getpid() != parent:
                os.write(flushes, b"stdout flushed in a worker\n")

    monkeypatch.setattr(sys, "stdout", Stdout())
    before = os.times()
    lq_arm({})()
    after = os.times()
    os.close(flushes)
    waited = after.children_user + after.children_system
    assert waited - before.children_user - before.children_system >= 0.25
    assert (tmp_path / "flushes").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("experiment", sorted(LOCKSTEP_CASES))
def test_runs_leave_the_problem_unmutated(tmp_path, experiment):
    cfg = tiny_config(tmp_path, experiment, **LOCKSTEP_CASES[experiment])
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))
    before = pickle.dumps(vars(problem))
    cfg_sgd = SgdConfig(0.05, 6, int(cfg.optimizer["minibatch"]), record_every=1)
    sched = make_schedule("constant", 2)
    plan = arm_plan(sched, cfg_sgd)
    for method in ("sgd", "hsgd"):
        _run_arms(problem, w0, plan, cfg_sgd, [1, 2], {method: plan.allocate(method, 2)})
    hsgd_run(w0, sched, cfg_sgd, problem, make_rng(3), sink=lambda *_: None)
    diagnostics.estimate_sigma2(problem, 0.5, [w0], cfg_sgd.minibatch, 5, make_rng(4))
    assert pickle.dumps(vars(problem)) == before


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_chunked_epoch_metrics_equal_one_block(experiment, monkeypatch):
    cfg = ExperimentConfig.from_dict({"experiment": experiment})
    dataset = harness.build_dataset(cfg)
    problem, w0 = harness.build_problem(cfg, dataset)
    assert dataset.sample_count == problem.sample_count == cfg.dataset["N"]
    assert w0.shape == (problem.dimension,)
    rng = make_rng(8)
    n = problem.sample_count
    # A budget of 3 rows splits R = 4 into chunks of 3 and 1 (1-row chunks on
    # the 10-wide MLP); the default budget splits 100 repeats as a run does
    # (25 rows on moons, 5 on the MLP).
    for budget, repeats in ((3 * n, 4), (problems.EPOCH_CHUNK_ELEMENTS, 100)):
        monkeypatch.setattr(problems, "EPOCH_CHUNK_ELEMENTS", budget)
        W = w0 + 0.3 * rng.standard_normal((repeats, problem.dimension))
        for lam in (0.0, 0.37, 1.0):
            obj, aux = problem.epoch_metrics(W, lam)
            ref_obj, ref_aux = problem._epoch_metrics(W, lam)
            assert np.array_equal(obj, ref_obj)
            assert (aux is None) == (ref_aux is None)
            assert aux is None or np.array_equal(aux, ref_aux)


def full_batch_problem(experiment, rows):
    """The experiment's problem at N = 100 and ``rows`` start rows around its start point."""
    cfg = ExperimentConfig.from_dict({"experiment": experiment, "dataset": {"N": 100}})
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))
    assert problem.sample_count == 100
    return problem, w0 + 0.1 * make_rng(5).standard_normal((rows, problem.dimension))


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_full_batch_records_come_from_the_next_gradient_pass(experiment, monkeypatch):
    # 251 rows at N = 100 make more than one chunk (250 rows and 1 row, or
    # ten of 25 rows and one of 1 on the 10-wide MLP), both of a direct
    # record and of the gradient pass that gives a deferred record.
    problem, W0 = full_batch_problem(experiment, 251)
    assert problems.EPOCH_CHUNK_ELEMENTS // 100 < 251
    chunked = problem.epoch_metrics
    direct = []

    def counting(W, lam):
        direct.append(len(W))
        return chunked(W, lam)

    monkeypatch.setattr(problem, "epoch_metrics", counting)
    for method, lams, steps, every in (("hsgd", [1 / 3, 2 / 3, 1.0], 3, 1), ("sgd", [1.0], 6, 2)):
        rngs = [make_rng(r) for r in range(len(W0))]
        records, iterates = [], []

        def sink(step, lam, W, metrics):
            records.append((step, lam))
            iterates.append(W.copy())
            obj, aux = chunked(W, lam)
            assert np.array_equal(metrics[0], obj) and (metrics[1] is None) == (aux is None)
            assert aux is None or np.array_equal(metrics[1], aux)

        cfg = SgdConfig(0.01, steps, 100, record_every=every)
        direct.clear()
        if method == "hsgd":
            hsgd_run(W0, make_schedule("constant", len(lams)), cfg, problem, rngs, sink=sink)
        else:
            sgd_run(W0, cfg, problem, 1.0, rngs, sink=sink)
        assert records == [(i * steps + s, lam) for i, lam in enumerate(lams)
                           for s in range(every, steps + 1, every)]
        # Only the last record of each sgd_run call is a direct evaluation.
        assert direct == [len(W0)] * len(lams)
        # Each record sees the iterate an unrecorded run reaches at its step.
        for (step, lam), W in zip(records, iterates):
            stage, within = divmod(step - 1, steps)
            W_ref = W0
            for lam_i in lams[:stage]:
                W_ref = sgd_run(W_ref, SgdConfig(0.01, steps, 100), problem, lam_i,
                                [make_rng(r) for r in range(len(W0))])
            W_ref = sgd_run(W_ref, SgdConfig(0.01, within + 1, 100), problem, lam,
                            [make_rng(r) for r in range(len(W0))])
            assert np.array_equal(W, W_ref)


def chunk_recording(problem):
    """``problem`` as a subclass instance that records (rows, samples per row) of each evaluation."""
    class Recording(type(problem)):
        def _gradient(self, W, lam, idx=None, with_metrics=False):
            self.calls.append((len(W), self.sample_count if idx is None else idx.shape[1]))
            return super()._gradient(W, lam, idx, with_metrics)

        def _epoch_metrics(self, W, lam):
            self.calls.append((len(W), self.sample_count))
            return super()._epoch_metrics(W, lam)

        def objectives(self, W, lams):
            self.calls.append((len(W), self.sample_count))
            return super().objectives(W, lams)

    rec = object.__new__(Recording)
    vars(rec).update(vars(problem), calls=[])
    return rec


@pytest.mark.parametrize("experiment", harness.EXPERIMENTS)
def test_every_evaluation_holds_the_row_chunk_bound(experiment):
    # 300 rows at N = 100, and at a minibatch of 90, exceed the bound: no
    # path, the engine's full-batch step and its deferred record included,
    # may hand a family more than max(1, EPOCH_CHUNK_ELEMENTS // (m * width))
    # rows, width the family's ``sample_width``.
    problem, W0 = full_batch_problem(experiment, 300)
    problem = chunk_recording(problem)
    seeds = list(range(len(W0)))
    for method, minibatch in (("hsgd", 100), ("sgd", 90)):
        cfg = SgdConfig(0.01, 3, minibatch, record_every=1)
        plan = arm_plan(make_schedule("constant", 2), cfg)
        _run_slice(problem, W0, [method], plan, cfg, seeds,
                   {method: plan.allocate(method, len(W0))})
    rng = make_rng(3)
    diagnostics.estimate_L(problem, 0.5, 200, 1.0, rng)
    diagnostics.estimate_sigma2(problem, 0.5, W0[:5], 90, 60, rng)
    if problem.dimension == 1:
        diagnostics.estimate_fstar(problem, [0.0, 0.5], {"kind": "grid", "lo": -10, "hi": 10,
                                                         "step": 0.05})
    diagnostics.estimate_fstar(problem, 0.5, {"kind": "multistart", "restarts": 300, "steps": 2,
                                              "alpha": 0.01, "seed": 4})
    diagnostics.check_gradient(problem, 0.5, W0[0])
    diagnostics.estimate_delta(problem, 300, rng)
    diagnostics.expected_pl_probe(problem, 0.5, 300, -1.0, rng)
    diagnostics.pl_moduli(problem, 0.5, W0, -1.0)
    diagnostics.estimate_mu(problem, 0.5, W0[0], -1.0)
    def bound(m):
        return max(1, problems.EPOCH_CHUNK_ELEMENTS // (m * problem.sample_width))
    assert {(rows, m) for rows, m in problem.calls if rows > bound(m)} == set()
    assert (bound(100), 100) in problem.calls and (bound(90), 90) in problem.calls


def test_diverging_full_batch_block_fails_at_the_same_step():
    problem, W0 = full_batch_problem("sine-mlp", 7)
    cfg = SgdConfig(1e150, 20, 100, record_every=1)
    errors, records = [], []
    with np.errstate(all="ignore"):
        for sink in (None, lambda step, lam, W, metrics: records.append(step)):
            with pytest.raises(NonFiniteError) as err:
                sgd_run(W0, cfg, problem, 1.0, [make_rng(r) for r in range(7)], sink=sink)
            errors.append(err.value)
    plain, recorded = errors
    assert (recorded.what, recorded.step, recorded.repeat, str(recorded)) == \
        (plain.what, plain.step, plain.repeat, str(plain))
    assert records == list(range(1, plain.step))


def test_fstar_coarse_grid_equals_fine_grid():
    # The 1e-2 grid only has to bracket the minimum for the bisection
    # refine; on the experiment's own lambda set it lands on the same bits
    # as the 1e-4 grid it replaced as the default.
    cfg = ExperimentConfig.from_dict({"experiment": "toy-erf"})
    assert cfg.problem["fstar_grid"]["step"] == 1e-2
    fine = ExperimentConfig.from_dict({"experiment": "toy-erf", "problem": {
        "fstar_grid": {"lo": -10.0, "hi": 10.0, "step": 1e-4}}})
    problem, _ = harness.build_problem(cfg, harness.build_dataset(cfg))
    opt = cfg.optimizer
    sched = make_schedule(opt["schedule"], int(opt["n"]), eta=opt["eta"])
    lambdas = np.concatenate([[0.0], sched.lambdas, [1.0]])
    coarse_table = _fstar_table(cfg, problem, lambdas)
    fine_table = _fstar_table(fine, problem, lambdas)
    assert len(coarse_table) == len(set(lambdas.tolist()))
    assert coarse_table == fine_table


def test_mlp_gap_column_is_target_loss(tmp_path):
    cfg = tiny_config(tmp_path, "sine-mlp", repeats=2,
                      dataset={"N": 40}, optimizer={"k": 16, "n": 2})
    arms, report = run_experiment(cfg)
    sgd = arms["sgd"]
    # The sgd arm optimizes at lambda = 1, so its mean objective and its
    # target-problem loss are the same curve.
    assert np.max(np.abs(sgd.mean_gap - sgd.mean_objective)) < 1e-12
    # The hsgd arm's gap column tracks the lambda = 1 loss, not the current
    # objective, so the curves differ while lambda < 1.
    hsgd = arms["hsgd"]
    assert not np.allclose(hsgd.mean_gap[:-1], hsgd.mean_objective[:-1])


def test_mlp_run_failure_is_reported(tmp_path):
    cfg = tiny_config(tmp_path, "sine-mlp", repeats=2, method="hsgd",
                      dataset={"N": 40}, optimizer={"alpha": 1e150, "k": 16, "n": 2})
    with np.errstate(all="ignore"), pytest.warns(UserWarning):
        arms, report = run_experiment(cfg)
    assert arms["hsgd"].failed
    assert arms["hsgd"].epochs is None and arms["hsgd"].mean_objective is None
    assert "non-finite" in report.arms["hsgd"]["failure"]
    assert report.arms["hsgd"] == {"failed": True, "failure": arms["hsgd"].failure}


def test_failed_arms_void_the_comparison(tmp_path):
    cfg = tiny_config(tmp_path, "sine-mlp", repeats=2, threshold=0.1,
                      dataset={"N": 40}, optimizer={"alpha": 1e150, "k": 16, "n": 2})
    with np.errstate(all="ignore"), pytest.warns(UserWarning):
        arms, report = run_experiment(cfg)
    assert arms["sgd"].failed and arms["hsgd"].failed
    assert (report.speedup, report.speedup_note) == (None, "sgd and hsgd failed: no comparison")


def test_one_failed_arm_voids_the_comparison(tmp_path, monkeypatch):
    real = harness._run_slice

    def run_slice(*args, **kwargs):  # the sgd arm fails in its only slice
        return {**real(*args, **kwargs), "sgd": NonFiniteError("iterate", 3, 1)}

    monkeypatch.setattr(harness, "_run_slice", run_slice)
    # Every hsgd epoch is below this threshold, the first one included.
    cfg = tiny_config(tmp_path, "toy-erf", repeats=2, optimizer={"k": 4, "n": 3},
                      threshold=1e9)
    arms, report = run_experiment(cfg)
    assert arms["sgd"].failed and not arms["hsgd"].failed
    assert report.arms["hsgd"]["epochs_to_threshold"] == 0
    assert report.arms["sgd"] == {"failed": True,
                                  "failure": "non-finite iterate at step 3 (repeat 1)"}
    assert (report.speedup, report.speedup_note) == (None, "sgd failed: no comparison")
    written = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
    assert written == report.to_dict()


# ----------------------------------------------------------- snapshots, toy


def test_toy_run_emits_snapshots(tmp_path):
    cfg = tiny_config(tmp_path, "toy-erf", repeats=2, method="hsgd",
                      optimizer={"k": 4, "n": 6})
    run_experiment(cfg)
    lines = (tmp_path / "run" / "hsgd_snapshots.csv").read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith("homotopy_iteration,lambda,objective,w0")
    rows = [l.split(",") for l in lines[1:] if l]
    assert len(rows) == 6
    # Left-to-right accumulation can land a few ulps under 1.
    assert abs(float(rows[-1][1]) - 1.0) <= 1e-12


def test_threshold_censoring_note(tmp_path):
    cfg = tiny_config(tmp_path, "toy-erf", repeats=2,
                      optimizer={"k": 2, "n": 3}, threshold=1e-9, threshold_metric="gap")
    arms, report = run_experiment(cfg)
    assert report.speedup is None
    assert report.speedup_note != ""


def test_threshold_met_at_epoch_zero_has_a_note(tmp_path):
    # Both arms start below the threshold, so epochs_to_threshold is 0 for
    # each and the ratio e_sgd / e_hsgd is undefined.
    cfg = tiny_config(tmp_path, "synthetic-lq", repeats=2, threshold=100.0,
                      optimizer={"k": 5, "n": 3})
    _, report = run_experiment(cfg)
    assert [report.arms[m]["epochs_to_threshold"] for m in ("sgd", "hsgd")] == [0, 0]
    assert report.speedup is None
    assert report.speedup_note == "hsgd met the threshold at epoch 0 (sgd at epoch 0): no ratio"
    written = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
    assert written["speedup_note"] == report.speedup_note


# ------------------------------------------------------------- diagnose path


def test_diagnose_quadratic_family_exact(tmp_path):
    # f*(lambda) = 0 is the family's exact value, the same one a run uses.
    for lam in (0.0, 0.37, 1.0):
        out = tmp_path / str(lam)
        cfg = ExperimentConfig.from_dict({
            "experiment": "synthetic-lq",
            "out_dir": str(out),
            "problem": {"mu": 2.5, "w0": 1.0},
        })
        est = harness.run_diagnose(cfg, lam=lam)
        assert abs(est.L_hat - 2.5) < 1e-9
        assert est.fstar == 0.0, lam
        grid_mu = est.mu_values[~np.isnan(est.mu_values)]
        assert np.max(np.abs(grid_mu - 2.5)) < 1e-9
        assert (out / "mu_sweep.csv").exists()
        assert (out / "diagnostics.txt").exists()


def test_diagnose_full_batch_has_zero_noise(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "toy-erf",
        "out_dir": str(tmp_path),
        "optimizer": {"minibatch": 100},
    })
    est = harness.run_diagnose(cfg, lam=1.0)
    assert est.sigma2_hat == 0.0
