"""Experiment orchestration: multi-seed runs, trace CSVs and comparison reports.

Each experiment is one ``Experiment`` record of ``EXPERIMENTS``, and a JSON
config names one and drives everything; ``from_dict`` resolves every value a
run reads and the metadata records it, so a run replays bit-identically from
its metadata file. Constructing an ``ExperimentConfig`` judges it and works out
its ``RunPlan``, and the config is read-only: a changed value needs a new one,
from ``dataclasses.replace`` or ``from_dict``. A run allocates its trace blocks
from the plan before any compute, fills them in its arms, then writes every
file. Repeats use per-repeat PRNG streams seeded by master_seed XOR
repeat_index; the arms (sgd vs hsgd) share the dataset and initial point.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import __version__, core, datasets, diagnostics, problems
from .core import (
    SAMPLER,
    ConfigurationError,
    NonFiniteError,
    SgdConfig,
    _is_int,
    _is_real,
    hsgd_run,
    make_rng,
    make_schedule,
    sgd_run,
    steps_per_epoch,
    stream_seed,
)

# Documented sub-seed salts (master_seed XOR salt) for auxiliary streams.
L_ESTIMATE_SALT = 0x1E57_17AD
MLP_INIT_SALT = 0x3141_5926

CSV_HEADER = "epoch,lambda,mean_objective,std_objective,mean_gap,grad_evals"

# Most cells (hi - lo) / step an f* grid may span: 50 times the 1e-4 grid on [-10, 10].
FSTAR_GRID_CELLS = 10**7


@dataclass(frozen=True)
class Experiment:
    """One experiment: its config defaults and how a run builds and measures it.

    ``dataset(sec)`` and ``problem(sec, dataset) -> (problem, w0)`` read
    their config section ``sec``. ``fstar`` is the f* oracle: "exact" (0),
    "grid" (``problem.fstar_grid``) or None. ``second_metric``, the default
    threshold metric, is "error" (0/1) or "gap" (objective less f*, else
    the family's second metric: the MLP's raw target loss). ``snapshots``
    records repeat 0 per homotopy stage. A seed a config leaves out is
    master_seed XOR ``seed_salts[(section, key)]``. ``check(cfg)`` raises
    ConfigurationError for a config the family cannot run.
    """

    defaults: dict
    dataset: Callable
    problem: Callable
    fstar: str | None = None
    second_metric: str = "gap"
    snapshots: bool = False
    seed_salts: dict = field(default_factory=dict)
    check: Callable = lambda cfg: None


def _erf_problem(sec, ds):
    x, w0 = ds.inputs[:, 0], float(sec["w0"])
    return problems.ErfRegressionProblem(x, ds.targets, w0 * x), np.array([w0])


def _mlp_problem(sec, ds):
    problem = problems.MlpRegressionProblem(ds.inputs[:, 0], ds.targets, ds.source_targets)
    return problem, problem.default_init(sec["init_seed"])


def _even_sample_count(cfg):
    if (n := cfg.dataset["N"]) % 2:
        raise ConfigurationError(f"{cfg.experiment} needs an even dataset.N, got {n}")


EXPERIMENTS = {
    "toy-erf": Experiment(
        {"threshold": None, "dataset": {"N": 100, "slope": 3.0, "noise_std": 1.0, "seed": 40},
         "optimizer": {"alpha": "auto", "minibatch": 100, "k": 10, "n": 40,
                       "schedule": "exponential", "eta": 0.3, "sgd_budget_factor": 1},
         "problem": {"w0": -4.0, "L_radius": 10.0, "L_pairs": 2000,
                     "fstar_grid": {"lo": -10.0, "hi": 10.0, "step": 1e-2}}},
        lambda sec: datasets.gen_linear_toy(sec["N"], sec["slope"], sec["noise_std"], sec["seed"]),
        _erf_problem, fstar="grid", snapshots=True),
    "sine-mlp": Experiment(
        {"threshold": 0.1,
         "dataset": {"N": 500, "freq": 10.0, "noise_std": float(np.sqrt(0.1)), "seed": 6803},
         "optimizer": {"alpha": 0.05, "minibatch": 5, "k": 2000, "n": 20,
                       "schedule": "exponential", "eta": 0.5, "sgd_budget_factor": 2},
         "problem": {"L_radius": 2.0, "L_pairs": 500}},
        lambda sec: datasets.gen_sine(sec["N"], sec["freq"], sec["noise_std"], sec["seed"]),
        _mlp_problem, snapshots=True, seed_salts={("problem", "init_seed"): MLP_INIT_SALT}),
    "moons-logistic": Experiment(
        {"threshold": 0.1, "dataset": {"N": 1000, "noise_std": 0.1},
         "optimizer": {"alpha": 0.5, "minibatch": 20, "k": 250, "n": 20,
                       "schedule": "exponential", "eta": 0.5, "sgd_budget_factor": 1},
         "problem": {"L_radius": 3.0, "L_pairs": 500}},
        lambda sec: datasets.gen_moons(sec["N"], sec["noise_std"], sec["seed"]),
        lambda sec, ds: (problems.CubicLogisticProblem(ds.inputs, ds.targets), np.zeros(9)),
        second_metric="error", seed_salts={("dataset", "seed"): 0}, check=_even_sample_count),
    "synthetic-lq": Experiment(
        {"threshold": None, "dataset": {"N": 64, "offset_std": 1.0},
         "optimizer": {"alpha": 0.1, "minibatch": 8, "k": 50, "n": 20,
                       "schedule": "constant", "eta": 0.2, "sgd_budget_factor": 1},
         "problem": {"mu": 1.0, "w0": 1.0, "L_radius": 3.0, "L_pairs": 500}},
        lambda sec: datasets.gen_offsets(sec["N"], sec["offset_std"], sec["seed"]),
        lambda sec, ds: (problems.QuadraticTrackingProblem(sec["mu"], ds.targets),
                         np.array([float(sec["w0"])])),
        fstar="exact", seed_salts={("dataset", "seed"): 0}),
}


def _is_positive(v):
    return _is_real(v) and v > 0


def _is_grid(v):
    return (isinstance(v, Mapping) and set(v) == {"lo", "hi", "step"}
            and all(map(_is_real, v.values())) and float(v["lo"]) < float(v["hi"])
            and v["step"] > 0 and v["hi"] - v["lo"] <= FSTAR_GRID_CELLS * v["step"]
            and _is_real(v["hi"] + v["step"]))


_INT_POSITIVE = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_INT_SEED = ("an integer >= 0", lambda v: _is_int(v) and v >= 0)
_REAL = ("a finite number", _is_real)
_REAL_NONNEGATIVE = ("a finite number >= 0", lambda v: _is_real(v) and v >= 0)
_REAL_POSITIVE = ("a finite number > 0", _is_positive)

# Type and range of every config value, as (description, predicate). Integer
# fields reject bools and non-integral numbers: a run would otherwise
# truncate 2.5 to 2 steps or read true as one repeat.
VALUE_RULES = {
    "out_dir": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "method": ('"sgd", "hsgd" or "both"', lambda v: v in ("sgd", "hsgd", "both")),
    "repeats": _INT_POSITIVE,
    "master_seed": _INT_SEED,
    "threshold": ("null or a finite number", lambda v: v is None or _is_real(v)),
    "dataset.N": _INT_POSITIVE,
    "dataset.seed": _INT_SEED,
    "dataset.slope": _REAL,
    "dataset.noise_std": _REAL_NONNEGATIVE,
    "dataset.freq": _REAL,
    "dataset.offset_std": _REAL_NONNEGATIVE,
    "optimizer.alpha": ('"auto" or a finite number > 0', lambda v: v == "auto" or _is_positive(v)),
    "optimizer.minibatch": _INT_POSITIVE,
    "optimizer.k": _INT_POSITIVE,
    "optimizer.n": _INT_POSITIVE,
    "optimizer.schedule": ('"constant", "exponential" or "explicit"',
                           lambda v: v in ("constant", "exponential", "explicit")),
    "optimizer.eta": ('a finite number >= 0, read only by "exponential"', _REAL_NONNEGATIVE[1]),
    "optimizer.sgd_budget_factor": _REAL_POSITIVE,
    "optimizer.explicit": ("a list of finite numbers > 0",
                           lambda v: isinstance(v, (list, tuple)) and all(map(_is_positive, v))),
    "problem.w0": _REAL,
    "problem.L_radius": _REAL_POSITIVE,
    "problem.L_pairs": _INT_POSITIVE,
    "problem.mu": _REAL_POSITIVE,
    "problem.init_seed": _INT_SEED,
    "problem.fstar_grid": ("an object of finite numbers lo < hi and step > 0, with "
                           f"(hi - lo) / step <= {FSTAR_GRID_CELLS:,}", _is_grid),
}
SECTIONS = ("dataset", "optimizer", "problem")  # the config's mappings of their own keys


@dataclass(frozen=True, eq=False)  # identity, as its Schedule's arrays have no truth value
class RunPlan:
    """What a judged config fixes: the schedule, the epoch length, and each arm's (method's)
    step total and epoch count; an arm records its start and one row per epoch."""

    schedule: core.Schedule
    record_every: int
    steps: dict

    @property
    def epochs(self):
        return {method: steps // self.record_every for method, steps in self.steps.items()}

    def allocate(self, method, repeats):
        """One arm's empty (lambdas, objectives, aux) blocks of epochs + 1 columns."""
        columns = self.epochs[method] + 1
        return np.empty(columns), np.empty((repeats, columns)), np.empty((repeats, columns))


def _check_values(cfg):
    """The config's RunPlan; a bad value, schedule or arm count raises, before any compute."""
    values = {name: getattr(cfg, name) for name in VALUE_RULES if "." not in name}
    for section in SECTIONS:
        values.update((f"{section}.{key}", v) for key, v in getattr(cfg, section).items())
    bad = [f"{name} = {values[name]!r} (expected {what})"
           for name, (what, ok) in VALUE_RULES.items() if name in values and not ok(values[name])]
    if bad:
        raise ConfigurationError(f"invalid config values for {cfg.experiment}: {'; '.join(bad)}")
    opt, n_samples = cfg.optimizer, cfg.dataset["N"]
    if opt["minibatch"] > n_samples:
        raise ConfigurationError(
            f"optimizer.minibatch = {opt['minibatch']} exceeds dataset.N = {n_samples}")
    if opt["schedule"] != "explicit" and "explicit" in opt:
        raise ConfigurationError(f'optimizer.explicit is read only under schedule "explicit", '
                                 f"not {opt['schedule']!r}")
    steps = {method: _sgd_total_steps(opt["k"], opt["n"],
                                      opt["sgd_budget_factor"] if method == "sgd" else 1)
             for method in (("sgd", "hsgd") if cfg.method == "both" else (cfg.method,))}
    every = steps_per_epoch(n_samples, opt["minibatch"])  # N is every family's sample count
    # numpy refuses an array beyond its index range (intp bytes) with a ValueError.
    most, columns = np.iinfo(np.intp).max // 8, max(steps.values()) // every + 1
    sizes = {"dataset.N": 2 * n_samples, "optimizer.n": opt["n"], "repeats": cfg.repeats * columns}
    if beyond := [name for name, size in sizes.items() if size > most]:
        raise ConfigurationError(f"{' and '.join(beyond)} would size an array beyond numpy's "
                                 f"index range of {most} float64 values")
    schedule = make_schedule(opt["schedule"], opt["n"], eta=opt["eta"], explicit=opt.get("explicit"))
    EXPERIMENTS[cfg.experiment].check(cfg)
    return RunPlan(schedule, every, steps)


def _check_keys(raw, experiment):
    """Reject an unknown experiment or a key nothing reads: a misspelt key would run on defaults."""
    if experiment not in (names := tuple(EXPERIMENTS)):
        raise ConfigurationError(f"unknown experiment {experiment!r}; expected one of {names}")
    unknown = sorted(set(raw) - {f.name for f in fields(ExperimentConfig)})
    record = EXPERIMENTS[experiment]
    # Beyond the defaults: the seeds the judge derives, and optimizer.explicit.
    extra = [*record.seed_salts, ("optimizer", "explicit")]
    for section in SECTIONS:
        given = raw.get(section, {})
        if not isinstance(given, Mapping):
            raise ConfigurationError(f"config section {section!r} must be an object")
        allowed = set(record.defaults[section]) | {key for where, key in extra if where == section}
        unknown += [f"{section}.{key}" for key in sorted(set(given) - allowed)]
    if unknown:
        raise ConfigurationError(f"unknown config keys for {experiment}: {', '.join(unknown)}")


def _nested(value, mapping, sequence):
    """``value`` with its mappings rebuilt as ``mapping`` and its lists and tuples as ``sequence``."""
    if isinstance(value, Mapping):
        return mapping({key: _nested(v, mapping, sequence) for key, v in value.items()})
    if isinstance(value, (list, tuple)):
        return sequence(_nested(v, mapping, sequence) for v in value)
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """A judged config: constructing one judges it and works out its ``plan``, before any compute.

    It is read-only, its sections (``fstar_grid`` too) and ``optimizer.explicit`` included;
    ``dataclasses.replace`` and ``from_dict`` build a new, re-judged config.
    """

    experiment: str
    threshold: float | None
    threshold_metric: str
    method: str = "both"
    dataset: Mapping = field(default_factory=dict)
    optimizer: Mapping = field(default_factory=dict)
    problem: Mapping = field(default_factory=dict)
    repeats: int = 100
    master_seed: int = 20240
    out_dir: str = "runs"

    def __post_init__(self):
        _check_keys({section: getattr(self, section) for section in SECTIONS}, self.experiment)
        record = EXPERIMENTS[self.experiment]
        if missing := [f"{s}.{key}" for s in SECTIONS for key in record.defaults[s]
                       if key not in getattr(self, s)]:
            raise ConfigurationError(f"missing config keys for {self.experiment}: {', '.join(missing)}")
        # Every run has its mean objective; "gap" needs an f* oracle (the sine-mlp
        # gap column holds its raw target loss) and "error" a classifier.
        metrics = ("objective", record.second_metric)
        if self.threshold_metric not in metrics:
            raise ConfigurationError(
                f"threshold_metric {self.threshold_metric!r} is unavailable for "
                f"{self.experiment}; expected one of {metrics}"
            )
        plan = _check_values(self)
        # Read-only copies, with the seeds the config leaves out from a master_seed now known valid.
        sections = {section: dict(getattr(self, section)) for section in SECTIONS}
        for (section, key), salt in record.seed_salts.items():
            sections[section].setdefault(key, self.master_seed ^ salt)
        for section, values in sections.items():
            object.__setattr__(self, section, _nested(values, MappingProxyType, tuple))
        object.__setattr__(self, "plan", plan)  # not a field: to_dict and metadata.json omit it

    @classmethod
    def from_dict(cls, raw, out_dir=None, repeats=None, master_seed=None):
        """The config ``raw``, with each override that is not None applied.

        A metadata file (an object with a ``config`` key) replays its recorded
        config: ``out_dir`` moves the replay's output, while ``repeats`` and
        ``master_seed`` are rejected, since a replay under other repeats or
        seeds reproduces nothing.
        """
        if isinstance(raw, dict) and "config" in raw:
            if repeats is not None or master_seed is not None:
                raise ConfigurationError(
                    "repeats (--repeats) and master_seed (--seed) cannot be applied to a "
                    "metadata file: a replay reproduces the recorded run only under its own "
                    "repeats and seed")
            recorded = raw.get("sampler")
            if recorded != SAMPLER:
                written = (f"sampler {recorded!r}" if recorded else
                           "no sampler (the per-step sampler before version 0.2.0)")
                raise ConfigurationError(
                    f"metadata records {written} but this library draws minibatches with "
                    f"sampler {SAMPLER!r}; a replay would not reproduce its traces"
                )
            raw = raw["config"]
        if not isinstance(raw, dict):
            raise ConfigurationError(f"a config must be a JSON object, got {type(raw).__name__}")
        overrides = {"out_dir": out_dir, "repeats": repeats, "master_seed": master_seed}
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
        _check_keys(raw, raw.get("experiment"))
        record = EXPERIMENTS[raw["experiment"]]
        # The experiment's defaults under the given values, section by section;
        # a top-level key in neither takes the field's default.
        defaults = {**record.defaults, "threshold_metric": record.second_metric}
        return cls(**{**defaults, **raw, **{section: {**defaults[section], **raw.get(section, {})}
                                            for section in SECTIONS}})

    def to_dict(self):
        return {f.name: _nested(getattr(self, f.name), dict, list) for f in fields(self)}


def build_dataset(cfg: ExperimentConfig):
    return EXPERIMENTS[cfg.experiment].dataset(cfg.dataset)


def build_problem(cfg: ExperimentConfig, dataset):
    """Problem family plus the shared initial point for both arms."""
    return EXPERIMENTS[cfg.experiment].problem(cfg.problem, dataset)


def resolve_alpha(cfg: ExperimentConfig, problem):
    """Return (alpha, L_tilde); 'auto' means alpha = 1/L_tilde at lambda = 1."""
    alpha = cfg.optimizer["alpha"]
    try:
        L_tilde = _estimate_L(cfg, problem, 1.0, make_rng(cfg.master_seed ^ L_ESTIMATE_SALT))
    except diagnostics.EstimationError as exc:
        raise ConfigurationError(f"cannot estimate L_tilde at lambda = 1: {exc}") from exc
    if not _is_positive(L_tilde) or alpha == "auto" and not _is_real(1.0 / L_tilde):
        raise ConfigurationError(f"no finite step-size bound 1/L_tilde from L_tilde = {L_tilde!r}")
    if alpha == "auto":
        return 1.0 / L_tilde, L_tilde
    return float(alpha), L_tilde


def _estimate_L(cfg: ExperimentConfig, problem, lam, rng):
    """L_tilde at ``lam`` from the configured pair count and radius, drawn from ``rng``."""
    return diagnostics.estimate_L(problem, lam, cfg.problem["L_pairs"], cfg.problem["L_radius"], rng)


def _fstar_table(cfg: ExperimentConfig, problem, lambdas):
    """f*(lambda) per distinct visited lambda where an oracle exists, else None."""
    kind = EXPERIMENTS[cfg.experiment].fstar
    if kind == "exact":
        return {float(lam): 0.0 for lam in lambdas}
    if kind == "grid":
        spec = {"kind": "grid", **cfg.problem["fstar_grid"]}
        distinct = list(dict.fromkeys(map(float, lambdas)))
        return {lam: est.value for lam, est in
                zip(distinct, diagnostics.estimate_fstar(problem, distinct, spec))}
    return None


def _sgd_total_steps(k, n, budget_factor=1):
    """An arm's step count, the H-SGD total k*n times its factor; outside [1, intp max] it raises."""
    top, total = np.iinfo(np.intp).max, k * n
    steps = round(min(total * budget_factor, top + 1)) if total <= top else total  # inf: top + 1
    if not 1 <= steps <= top:
        raise ConfigurationError(f"an arm's {k} * {n} * {budget_factor} steps round outside [1, {top}]")
    return steps


def _run_arm(problem, w0, method, plan, cfg_sgd, seeds, block, stage_hook=None):
    """Every repeat of one arm, into its ``block`` (lambdas, objectives, aux); returns the block.

    ``block`` comes from ``plan.allocate``; aux is returned as None for a
    family whose second metric is None. ``w0`` is the start point of every
    repeat, or an (R, d) block of one start row per repeat. ``core.fork_rows``
    runs the repeats in slices of ``_run_slice``; slice 0 holds repeat 0, and
    so every ``stage_hook`` call, and runs in this process. A repeat's row
    does not depend on its slice, so the result does not depend on the slice
    count.

    A full-batch arm (M = N) from one start point runs repeat 0 alone and
    broadcasts its rows to every repeat: a full batch draws nothing from the
    repeats' streams, so every repeat follows repeat 0's path bit for bit,
    and a diverging one fails first at repeat 0. An (R, d) start block
    always steps every repeat.
    """
    lambdas, objectives, aux = block
    rows = 1 if np.ndim(w0) == 1 and cfg_sgd.minibatch == problem.sample_count else len(seeds)
    W0 = np.array(np.broadcast_to(w0, (rows, problem.dimension)), dtype=float)

    def run(part):  # a forked slice fills its own copy of the block and sends back its rows
        at = slice(part[0], part[-1] + 1)  # W0[part] is a copy: a row view of W0 gave other bits
        return _run_slice(problem, W0[part], method, plan, cfg_sgd, seeds[at],
                          (lambdas, objectives[at], aux[at]), stage_hook if at.start == 0 else None)
    objs, auxs = zip(*core.fork_rows(run, rows, plan.steps[method], cfg_sgd.minibatch))
    aux = None if auxs[0] is None else aux
    for parts, filled in ((objs, objectives), (auxs, aux)):
        if filled is not None:
            np.concatenate(parts, out=filled[:rows])
            filled[rows:] = filled[0]  # a full batch: every repeat is repeat 0
    return lambdas, objectives, aux


def _run_slice(problem, W0, method, plan, cfg_sgd, seeds, block, stage_hook=None):
    """Step the repeats with start rows W0 of one arm in lockstep, recording into ``block``.

    ``block`` is (lambdas, objectives, aux), objectives and aux with one row
    per repeat; repeat r runs on the stream seeded by ``seeds[r]`` and takes
    ``plan.steps[method]`` steps. The rows come from ``problem.epoch_metrics``,
    which evaluates a few rows at a time. Returns (objectives, aux), aux None
    for a family whose second metric is None.
    """
    lambdas, objectives, aux = block
    rngs = [make_rng(seed) for seed in seeds]
    every = cfg_sgd.record_every
    lam0 = 0.0 if method == "hsgd" else 1.0
    first = problem.epoch_metrics(W0, lam0)

    def sink(step, lam, W, metrics):
        e = step // every
        lambdas[e] = lam
        objectives[:, e] = metrics[0]
        if metrics[1] is not None:
            aux[:, e] = metrics[1]

    sink(0, lam0, W0, first)
    if method == "hsgd":
        hsgd_run(W0, plan.schedule, cfg_sgd, problem, rngs, sink=sink, stage_hook=stage_hook)
    else:
        sgd_run(W0, replace(cfg_sgd, steps=plan.steps[method]), problem, 1.0, rngs, sink=sink)
    return objectives, None if first[1] is None else aux


def write_trace_csv(path, epochs, lambdas, mean_obj, std_obj, mean_gap, grad_evals):
    gaps = [None] * len(epochs) if mean_gap is None else mean_gap
    datasets.write_csv(path, CSV_HEADER, zip(epochs, lambdas, mean_obj, std_obj, gaps, grad_evals))


@dataclass
class ArmResult:
    """One arm's mean curves per epoch; an arm that diverged has only its ``failure``."""

    epochs: np.ndarray | None = None
    mean_objective: np.ndarray | None = None
    std_objective: np.ndarray | None = None
    mean_gap: np.ndarray | None = None
    mean_error: np.ndarray | None = None
    grad_evals: np.ndarray | None = None
    failure: str | None = None

    @property
    def failed(self):
        return self.failure is not None

    def summary(self, threshold, metric):
        """The arm's entry in report.json, with when ``metric`` first reached a set threshold."""
        if self.failed:
            return {"failed": True, "failure": self.failure}
        summary = {
            "failed": False,
            "terminal_mean_objective": float(self.mean_objective[-1]),
            "terminal_std_objective": float(self.std_objective[-1]),
            "epochs": int(self.epochs[-1]),
        }
        if threshold is not None:
            # The judge admits only "objective" and the experiment's default
            # threshold metric, which every arm of the run has.
            hit = epochs_to_threshold(getattr(self, f"mean_{metric}"), threshold)
            summary["epochs_to_threshold"] = hit
            if hit is None:
                summary["censoring_epoch"] = int(self.epochs[-1])
        return summary


@dataclass
class ComparisonReport:
    experiment: str
    threshold: float | None
    threshold_metric: str
    arms: dict
    speedup: float | None = None
    speedup_note: str = ""

    to_dict = asdict


def epochs_to_threshold(curve, threshold):
    """First epoch index at which the mean curve is <= threshold, else None."""
    hit = np.nonzero(np.asarray(curve) <= threshold)[0]
    return int(hit[0]) if hit.size else None


def run_experiment(cfg: ExperimentConfig):
    """Allocate every arm's blocks from ``cfg.plan`` (a run that cannot hold its traces raises
    MemoryError here), then the seeds; compute the dataset, problem, L_tilde, out dir, f* table
    and arms; then write every file (``_write_run``). Returns (arms, report)."""
    plan = cfg.plan
    blocks = {method: plan.allocate(method, cfg.repeats) for method in plan.steps}
    seeds = [stream_seed(cfg.master_seed, rep) for rep in range(cfg.repeats)]
    dataset = build_dataset(cfg)
    problem, w0 = build_problem(cfg, dataset)
    alpha, L_tilde = resolve_alpha(cfg, problem)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg_sgd = SgdConfig(alpha, cfg.optimizer["k"], cfg.optimizer["minibatch"],
                        record_every=plan.record_every)
    cfg_sgd.warn_if_out_of_range(L_tilde)
    record = EXPERIMENTS[cfg.experiment]
    fstar = _fstar_table(cfg, problem, np.concatenate([[0.0], plan.schedule.lambdas, [1.0]]))

    arms, snapshots = {}, []
    for method, block in blocks.items():
        # Per-homotopy-iteration snapshots of repeat 0, from the engine's stage hook.
        stage_hook = None
        if method == "hsgd" and record.snapshots:
            def stage_hook(i, lam, W):
                snapshots.append((i, lam, problem.full_objective(W[0], lam), W[0].copy()))
        try:
            lambdas, objs, auxs = _run_arm(problem, w0, method, plan, cfg_sgd, seeds, block,
                                           stage_hook)
        except NonFiniteError as exc:  # a diverged arm leaves other arms unaffected
            arms[method] = ArmResult(failure=str(exc))
            snapshots.clear()  # and writes no file
            continue
        epochs = np.arange(objs.shape[1])
        mean_obj = objs.mean(axis=0)
        mean_aux = None if auxs is None else auxs.mean(axis=0)
        mean_err, mean_gap = ((mean_aux, None) if record.second_metric == "error"
                              else (None, mean_aux))
        if fstar is not None:
            mean_gap = mean_obj - np.array([fstar[float(l)] for l in lambdas])
        arms[method] = ArmResult(epochs, mean_obj, objs.std(axis=0), mean_gap, mean_err,
                                 epochs * plan.record_every * cfg_sgd.minibatch)

    arm_summaries = {method: arm.summary(cfg.threshold, cfg.threshold_metric)
                     for method, arm in arms.items()}
    speedup = None
    note = ""
    if cfg.threshold is not None and cfg.method == "both":
        failed = [method for method, arm in arms.items() if arm.failed]
        e_sgd = arm_summaries["sgd"].get("epochs_to_threshold")
        e_hsgd = arm_summaries["hsgd"].get("epochs_to_threshold")
        if failed:
            note = f"{' and '.join(failed)} failed: no comparison"
        elif e_hsgd is None:
            note = "hsgd did not reach the threshold"
        elif e_sgd is None:
            note = "sgd did not reach the threshold (censored at the budget)"
        elif e_hsgd == 0:
            note = f"hsgd met the threshold at epoch 0 (sgd at epoch {e_sgd}): no ratio"
        else:
            speedup = e_sgd / e_hsgd

    report = ComparisonReport(cfg.experiment, cfg.threshold, cfg.threshold_metric,
                              arm_summaries, speedup, note)
    metadata = {
        "config": cfg.to_dict(),
        "library_version": __version__,
        "sampler": SAMPLER,
        "L_tilde": L_tilde,
        "alpha_resolved": alpha,
        "steps_per_epoch": plan.record_every,
        "repeat_seeds": seeds,
        "schedule_increments": [float(h) for h in plan.schedule.increments],
    }
    _write_run(out, arms, blocks, snapshots, metadata, report)
    return arms, report


def _write_run(out, arms, blocks, snapshots, metadata, report):
    """Write each arm's trace CSVs (its lambdas and aux from ``blocks``), the snapshots, then the JSON."""
    for method, arm in arms.items():
        lambdas, _, aux = blocks[method]
        if not arm.failed:
            write_trace_csv(out / f"trace_{method}.csv", arm.epochs, lambdas, arm.mean_objective,
                            arm.std_objective, arm.mean_gap, arm.grad_evals)
        if arm.mean_error is not None:
            write_trace_csv(out / f"trace_{method}_error.csv", arm.epochs, lambdas,
                            arm.mean_error, aux.std(axis=0), None, arm.grad_evals)
    if snapshots:
        _write_snapshots(out / "hsgd_snapshots.csv", snapshots)
    for name, payload in (("metadata.json", metadata), ("report.json", report.to_dict())):
        with open(out / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def _write_snapshots(path, rows):
    """Write (homotopy_iteration, lambda, objective, iterate) rows, one per iteration."""
    d = len(rows[0][3])
    header = "homotopy_iteration,lambda,objective," + ",".join(f"w{j}" for j in range(d))
    datasets.write_csv(path, header, ((i, lam, fval, *w) for i, lam, fval, w in rows))


def run_diagnose(cfg: ExperimentConfig, lam=1.0):
    """Measure landscape constants for the configured experiment at one lambda.

    An estimator that cannot produce a value (``EstimationError``), or
    whose L, sigma^2 or delta estimate is not finite, leaves an
    ``error.<key>`` line in the report; any other error propagates.
    """
    problems._check_lambda(lam)
    problem, w0 = build_problem(cfg, build_dataset(cfg))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    est = diagnostics.LandscapeEstimates()
    rng = make_rng(cfg.master_seed ^ L_ESTIMATE_SALT)
    minibatch = cfg.optimizer["minibatch"]

    def attempt(key, estimate):  # estimate(), or None with error.<key> recorded
        try:
            value = estimate()
            if isinstance(value, float) and not np.isfinite(value):
                raise diagnostics.EstimationError(f"the sampled maximum {value} is not finite")
            return value
        except diagnostics.EstimationError as exc:
            est.errors[key] = str(exc)
            return None

    est.L_hat = attempt("L_hat", lambda: _estimate_L(cfg, problem, lam, rng))
    w_samples = w0 + 0.5 * rng.standard_normal((5, problem.dimension))
    est.sigma2_hat = attempt("sigma2_hat", lambda: diagnostics.estimate_sigma2(
        problem, lam, w_samples, minibatch, 200, rng))
    fstar = _fstar_table(cfg, problem, [lam])
    if fstar is not None:
        if np.isfinite(fstar[lam]):
            est.fstar = fstar[lam]
        else:
            est.errors["fstar"] = f"the f* table value {fstar[lam]} is not finite"
    else:  # no oracle: the best of a multistart descent bounds f* from above
        spec = {"kind": "multistart", "restarts": 10, "steps": 1500,
                "alpha": 1.0 / est.L_hat if est.L_hat else 0.05,
                "seed": cfg.master_seed, "init_center": w0}
        multistart = attempt("fstar", lambda: diagnostics.estimate_fstar(problem, lam, spec))
        if multistart is not None:
            est.fstar, est.fstar_upper_bound_only = multistart.value, multistart.upper_bound_only
    est.delta_hat = attempt("delta_hat", lambda: diagnostics.estimate_delta(problem, 200, rng))
    if est.fstar is not None:
        est.pl_probe = attempt("pl_probe", lambda: diagnostics.expected_pl_probe(
            problem, lam, 500, est.fstar, rng))
        if problem.dimension == 1:
            grid = np.arange(-6.0, 6.0 + 1e-9, 0.05)
            mu_vals = diagnostics.pl_moduli(problem, lam, grid[:, None], est.fstar)[0]
            est.mu_grid, est.mu_values = grid, mu_vals
            datasets.write_csv(out / "mu_sweep.csv", "w,mu_hat",
                               ((w, None if np.isnan(m) else m) for w, m in zip(grid, mu_vals)))
    with open(out / "diagnostics.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(est.to_text())
    return est
