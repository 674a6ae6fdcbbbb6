"""Experiment orchestration: multi-seed runs, trace CSVs and comparison reports.

A single JSON config drives everything; every default is materialized into the
emitted metadata so a run can be replayed bit-identically from its metadata
file. Repeats use per-repeat PRNG streams seeded by master_seed XOR
repeat_index. An arm's repeats are cut into contiguous slices, one per usable
CPU (none for an arm below ``core.FORK_REPEAT_STEPS`` repeat-steps); each
slice steps its repeats in lockstep, the first in this process and the others
in forked workers, and no output depends on the slice count. Arms (sgd vs
hsgd) share the dataset and the initial point.
"""

from __future__ import annotations

import copy
import json
import math
import multiprocessing
import numbers
import os
import traceback
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, datasets, diagnostics
from .core import (
    FORK_REPEAT_STEPS,
    SAMPLER,
    ConfigurationError,
    NonFiniteError,
    SgdConfig,
    hsgd_run,
    in_row_chunks,
    make_rng,
    make_schedule,
    sgd_run,
    steps_per_epoch,
    stream_seed,
)
from .problems import (
    cubic_logistic_problem,
    erf_problem,
    mlp_sine_problem,
    quadratic_tracking_problem,
)

# Documented sub-seed salts (master_seed XOR salt) for auxiliary streams.
L_ESTIMATE_SALT = 0x1E57_17AD
MLP_INIT_SALT = 0x3141_5926
LQ_OFFSET_SALT = 0x0FF5_E75

CSV_HEADER = "epoch,lambda,mean_objective,std_objective,mean_gap,grad_evals"

EXPERIMENTS = ("toy-erf", "sine-mlp", "moons-logistic", "synthetic-lq")

DEFAULTS = {
    "toy-erf": {
        "dataset": {"N": 100, "slope": 3.0, "noise_std": 1.0, "seed": 40},
        "optimizer": {"alpha": "auto", "minibatch": 100, "k": 10, "n": 40,
                      "schedule": "exponential", "eta": 0.3, "sgd_budget_factor": 1},
        "problem": {"w0": -4.0, "L_radius": 10.0, "L_pairs": 2000,
                    "fstar_grid": {"lo": -10.0, "hi": 10.0, "step": 1e-2}},
        "threshold": None,
        "threshold_metric": "gap",
    },
    "sine-mlp": {
        "dataset": {"N": 500, "freq": 10.0, "noise_std": float(np.sqrt(0.1)), "seed": 6803},
        "optimizer": {"alpha": 0.05, "minibatch": 5, "k": 2000, "n": 20,
                      "schedule": "exponential", "eta": 0.5, "sgd_budget_factor": 2},
        "problem": {"L_radius": 2.0, "L_pairs": 500},
        "threshold": 0.1,
        "threshold_metric": "gap",
    },
    "moons-logistic": {
        "dataset": {"N": 1000, "noise_std": 0.1},
        "optimizer": {"alpha": 0.5, "minibatch": 20, "k": 250, "n": 20,
                      "schedule": "exponential", "eta": 0.5, "sgd_budget_factor": 1},
        "problem": {"L_radius": 3.0, "L_pairs": 500},
        "threshold": 0.1,
        "threshold_metric": "error",
    },
    "synthetic-lq": {
        "dataset": {"N": 64, "offset_std": 1.0},
        "optimizer": {"alpha": 0.1, "minibatch": 8, "k": 50, "n": 20,
                      "schedule": "constant", "eta": 0.2, "sgd_budget_factor": 1},
        "problem": {"mu": 1.0, "w0": 1.0},
        "threshold": None,
        "threshold_metric": "gap",
    },
}


# Curves a threshold can be read from: every run has its mean objective, "gap"
# needs an f* oracle (the sine-mlp gap column holds its raw target loss) and
# "error" a classifier.
THRESHOLD_METRICS = {
    "toy-erf": ("objective", "gap"),
    "sine-mlp": ("objective", "gap"),
    "moons-logistic": ("objective", "error"),
    "synthetic-lq": ("objective", "gap"),
}

# Keys a config section may hold beyond those of DEFAULTS[experiment]: the
# ones the harness reads with a fallback of its own. Any other key is an error.
OPTIONAL_KEYS = {
    "dataset": {"seed"},
    "optimizer": {"explicit"},
    "problem": {"L_pairs", "L_radius"},
}


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v):
    # A chained comparison, unlike math.isfinite, never overflows on a huge int.
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and -math.inf < v < math.inf


def _is_positive(v):
    return _is_real(v) and v > 0


def _is_grid(v):
    return (isinstance(v, dict) and set(v) == {"lo", "hi", "step"}
            and all(map(_is_real, v.values())) and v["lo"] < v["hi"] and v["step"] > 0)


_INT_POSITIVE = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_INT_SEED = ("an integer >= 0", lambda v: _is_int(v) and v >= 0)
_REAL = ("a finite number", _is_real)
_REAL_NONNEGATIVE = ("a finite number >= 0", lambda v: _is_real(v) and v >= 0)
_REAL_POSITIVE = ("a finite number > 0", _is_positive)

# Type and range of every config value, as (description, predicate). Integer
# fields reject bools and non-integral numbers: a run would otherwise
# truncate 2.5 to 2 steps or read true as one repeat.
VALUE_RULES = {
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
    "optimizer.eta": _REAL_NONNEGATIVE,
    "optimizer.sgd_budget_factor": _REAL_POSITIVE,
    "optimizer.explicit": ("a list of finite numbers > 0",
                           lambda v: isinstance(v, list) and all(map(_is_positive, v))),
    "problem.w0": _REAL,
    "problem.L_radius": _REAL_POSITIVE,
    "problem.L_pairs": _INT_POSITIVE,
    "problem.mu": _REAL_POSITIVE,
    "problem.init_seed": _INT_SEED,
    "problem.fstar_grid": ("an object of finite numbers lo < hi and step > 0", _is_grid),
}


def _check_values(cfg):
    """Reject a config value of the wrong type or out of range, before any compute."""
    values = {"repeats": cfg.repeats, "master_seed": cfg.master_seed,
              "threshold": cfg.threshold}
    for section in ("dataset", "optimizer", "problem"):
        values.update((f"{section}.{key}", v) for key, v in getattr(cfg, section).items())
    bad = [f"{name} = {values[name]!r} (expected {what})"
           for name, (what, ok) in VALUE_RULES.items() if name in values and not ok(values[name])]
    if bad:
        raise ConfigurationError(f"invalid config values for {cfg.experiment}: {'; '.join(bad)}")
    opt, n_samples = cfg.optimizer, cfg.dataset["N"]
    if opt["minibatch"] > n_samples:
        raise ConfigurationError(
            f"optimizer.minibatch = {opt['minibatch']} exceeds dataset.N = {n_samples}")
    if opt["schedule"] == "explicit" and len(opt.get("explicit", ())) != opt["n"]:
        raise ConfigurationError(
            f'optimizer.schedule "explicit" needs optimizer.explicit with n = {opt["n"]} '
            f"entries, got {opt.get('explicit')!r}")
    if cfg.experiment == "moons-logistic" and n_samples % 2:
        raise ConfigurationError(f"moons-logistic needs an even dataset.N, got {n_samples}")


def _check_keys(raw, experiment):
    """Reject a key nothing reads: a misspelt one would silently run on defaults."""
    unknown = sorted(set(raw) - {f.name for f in fields(ExperimentConfig)})
    for section, optional in OPTIONAL_KEYS.items():
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ConfigurationError(f"config section {section!r} must be an object")
        allowed = set(DEFAULTS[experiment][section]) | optional
        if section == "problem" and experiment == "sine-mlp":
            allowed.add("init_seed")
        unknown += [f"{section}.{key}" for key in sorted(set(given) - allowed)]
    if unknown:
        raise ConfigurationError(f"unknown config keys for {experiment}: {', '.join(unknown)}")


@dataclass
class ExperimentConfig:
    experiment: str
    method: str = "both"
    dataset: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    problem: dict = field(default_factory=dict)
    repeats: int = 100
    master_seed: int = 20240
    threshold: float | None = None
    threshold_metric: str = "objective"
    out_dir: str = "runs"

    @classmethod
    def from_dict(cls, raw):
        if isinstance(raw, dict) and "config" in raw:  # metadata file: replay its materialized config
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
        raw = copy.deepcopy(raw)
        experiment = raw.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}"
            )
        _check_keys(raw, experiment)
        defaults = copy.deepcopy(DEFAULTS[experiment])
        cfg = cls(
            experiment=experiment,
            method=raw.get("method", "both"),
            dataset={**defaults["dataset"], **raw.get("dataset", {})},
            optimizer={**defaults["optimizer"], **raw.get("optimizer", {})},
            problem={**defaults["problem"], **raw.get("problem", {})},
            repeats=raw.get("repeats", 100),
            master_seed=raw.get("master_seed", 20240),
            threshold=raw.get("threshold", defaults["threshold"]),
            threshold_metric=raw.get("threshold_metric", defaults["threshold_metric"]),
            out_dir=raw.get("out_dir", "runs"),
        )
        if cfg.method not in ("sgd", "hsgd", "both"):
            raise ConfigurationError(f"unknown method {cfg.method!r}")
        if cfg.threshold_metric not in THRESHOLD_METRICS[experiment]:
            raise ConfigurationError(
                f"threshold_metric {cfg.threshold_metric!r} is unavailable for {experiment}; "
                f"expected one of {THRESHOLD_METRICS[experiment]}"
            )
        cfg.dataset.setdefault("seed", cfg.master_seed)
        _check_values(cfg)
        return cfg

    to_dict = asdict


def build_dataset(cfg: ExperimentConfig):
    ds = cfg.dataset
    if cfg.experiment == "toy-erf":
        return datasets.gen_linear_toy(ds["N"], ds["slope"], ds["noise_std"], ds["seed"])
    if cfg.experiment == "sine-mlp":
        return datasets.gen_sine(ds["N"], ds["freq"], ds["noise_std"], ds["seed"])
    if cfg.experiment == "moons-logistic":
        return datasets.gen_moons(ds["N"], ds["noise_std"], ds["seed"])
    if cfg.experiment == "synthetic-lq":
        rng = make_rng(ds["seed"] ^ LQ_OFFSET_SALT)
        offsets = ds["offset_std"] * rng.standard_normal(ds["N"])
        return datasets.Dataset(
            inputs=np.zeros((ds["N"], 1)), targets=offsets, seed=ds["seed"],
            spec={"generator": "lq_offsets", **{k: v for k, v in ds.items()}},
        )
    raise ConfigurationError(cfg.experiment)


def build_problem(cfg: ExperimentConfig, dataset):
    """Problem family plus the shared initial point for both arms."""
    if cfg.experiment == "toy-erf":
        x = dataset.inputs[:, 0]
        w0 = float(cfg.problem["w0"])
        problem = erf_problem(x, dataset.targets, w0 * x)
        return problem, np.array([w0])
    if cfg.experiment == "sine-mlp":
        x = dataset.inputs[:, 0]
        init_seed = cfg.problem.get("init_seed", cfg.master_seed ^ MLP_INIT_SALT)
        problem = mlp_sine_problem(x, dataset.targets, dataset.source_targets, init_spec=init_seed)
        return problem, problem.default_init()
    if cfg.experiment == "moons-logistic":
        problem = cubic_logistic_problem(dataset.inputs, dataset.targets)
        return problem, np.zeros(9)
    if cfg.experiment == "synthetic-lq":
        problem = quadratic_tracking_problem(cfg.problem["mu"], dataset.targets)
        return problem, np.array([float(cfg.problem["w0"])])
    raise ConfigurationError(cfg.experiment)


def resolve_alpha(cfg: ExperimentConfig, problem):
    """Return (alpha, L_tilde); 'auto' means alpha = 1/L_tilde at lambda = 1."""
    alpha = cfg.optimizer["alpha"]
    rng = make_rng(cfg.master_seed ^ L_ESTIMATE_SALT)
    L_tilde = diagnostics.estimate_L(
        problem, 1.0,
        num_pairs=cfg.problem.get("L_pairs", 500),
        radius=float(cfg.problem.get("L_radius", 3.0)),
        rng=rng,
    )
    if alpha == "auto":
        return 1.0 / L_tilde, L_tilde
    return float(alpha), L_tilde


def _fstar_table(cfg: ExperimentConfig, problem, lambdas):
    """f*(lambda) per distinct visited lambda where an oracle exists, else None."""
    if cfg.experiment == "synthetic-lq":
        return {float(lam): 0.0 for lam in lambdas}
    if cfg.experiment == "toy-erf":
        spec = {"kind": "grid", **cfg.problem["fstar_grid"]}
        return {lam: diagnostics.estimate_fstar(problem, lam, spec).value
                for lam in dict.fromkeys(map(float, lambdas))}
    return None


def _sgd_total_steps(cfg_sgd, schedule, budget_factor=1):
    """SGD-arm budget: the H-SGD total n*k, scaled by the configured factor."""
    return int(round(cfg_sgd.steps * schedule.n * budget_factor))


def _run_arm(problem, w0, method, schedule, cfg_sgd, seeds, budget_factor=1, stage_hook=None):
    """Every repeat of one arm; returns (lambdas, objectives, aux) per epoch.

    ``w0`` is the start point of every repeat, or an (R, d) block of one
    start row per repeat. The repeats are cut into ``_slice_count``
    contiguous slices, each run by ``_run_slice``: slice 0, which holds
    repeat 0 and so every ``stage_hook`` call, in this process, and each
    other slice in a forked worker. A repeat's row does not depend on its
    slice, so the result does not depend on the slice count. On a
    NonFiniteError the error the serial run would have raised is raised;
    on any other error in a slice, that error.
    """
    W0 = np.array(np.broadcast_to(w0, (len(seeds), problem.dimension)), dtype=float)
    total_steps = cfg_sgd.steps * schedule.n if method == "hsgd" else \
        _sgd_total_steps(cfg_sgd, schedule, budget_factor)
    parts = np.array_split(np.arange(len(seeds)), _slice_count(len(seeds), total_steps))
    args = [(problem, W0[part], method, schedule, cfg_sgd, [seeds[r] for r in part],
             total_steps) for part in parts]
    fork = multiprocessing.get_context("fork") if len(parts) > 1 else None
    workers = []
    try:
        for part, slice_args in zip(parts[1:], args[1:]):
            receive, send = fork.Pipe(duplex=False)
            worker = fork.Process(target=_slice_worker, args=(send, slice_args), daemon=True)
            worker.start()
            send.close()
            workers.append((int(part[0]), receive, worker))
        try:
            outcomes = [(0, True, _run_slice(*args[0], stage_hook=stage_hook))]
        except NonFiniteError as exc:
            outcomes = [(0, False, exc)]
        for offset, receive, worker in workers:
            try:
                outcomes.append((offset, *receive.recv()))
            except EOFError:
                outcomes.append((offset, False, RuntimeError(
                    f"the worker for repeats from {offset} exited without a result")))
            worker.join()
    finally:  # reached early when this process's own slice raises
        for _, receive, worker in workers:
            if worker.exitcode is None:
                worker.terminate()
                worker.join()
            receive.close()
    failures = [(offset, exc) for offset, ok, exc in outcomes if not ok]
    for _, exc in failures:
        if not isinstance(exc, NonFiniteError):
            raise exc
    if failures:
        raise _serial_nonfinite(failures)
    lambdas, objectives, aux = zip(*(result for _, _, result in outcomes))
    return lambdas[0], np.concatenate(objectives), None if aux[0] is None else np.concatenate(aux)


def _slice_count(repeats, steps):
    """How many slices an arm of ``repeats`` x ``steps`` is cut into.

    One per usable CPU, but never more than the repeats; an arm below
    FORK_REPEAT_STEPS runs in this process, where a fork would cost more
    than it saves.
    """
    if repeats * steps < FORK_REPEAT_STEPS or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), repeats)


def _slice_worker(send, slice_args):
    """Forked worker: run one slice, send (ok, result or exception) and exit.

    ``os._exit`` ends the worker without the interpreter's shutdown, so it
    never flushes the copy of the parent's stdout it inherited.
    """
    try:
        try:
            outcome = (True, _run_slice(*slice_args))
        except Exception as exc:  # raised again in the parent, which never sees this traceback
            exc.__notes__ = [*getattr(exc, "__notes__", ()),
                             f"raised in a forked worker:\n{traceback.format_exc()}"]
            outcome = (False, exc)
        send.send(outcome)
    finally:
        os._exit(0)


def _serial_nonfinite(failures):
    """The NonFiniteError one slice of all repeats raises, from (repeat offset, error) per slice.

    The engine checks a step's gradients, then its iterates, each in repeat
    order. The error names the repeat's index in the arm, not in its slice.
    """
    def serial_order(failure):
        offset, exc = failure
        return exc.step, not str(exc).startswith("non-finite gradient"), offset + exc.repeat

    offset, exc = min(failures, key=serial_order)
    repeat = offset + exc.repeat
    message = str(exc).replace(f"(repeat {exc.repeat}", f"(repeat {repeat}", 1)
    return NonFiniteError(message, step=exc.step, homotopy_iteration=exc.homotopy_iteration,
                          lam=exc.lam, repeat=repeat)


def _run_slice(problem, W0, method, schedule, cfg_sgd, seeds, total_steps, stage_hook=None):
    """Repeats with start rows W0 of one arm in lockstep; returns (lambdas, objectives, aux).

    Each repeat takes ``total_steps`` steps; repeat r runs on the stream
    seeded by ``seeds[r]``. objectives and aux are (R, epochs + 1), from
    ``problem.epoch_metrics``, evaluated in row chunks (``in_row_chunks``);
    aux is None for a family without a second metric.
    """
    rngs = [make_rng(seed) for seed in seeds]
    every = cfg_sgd.record_every
    lambdas = np.empty(total_steps // every + 1)
    objectives = np.empty((len(seeds), lambdas.size))
    aux = np.empty_like(objectives) if problem.aux_metric else None

    def sink(step, lam, W, metrics):
        e = step // every
        lambdas[e] = lam
        objectives[:, e] = metrics[0]
        if aux is not None:
            aux[:, e] = metrics[1]

    if method == "hsgd":
        sink(0, 0.0, W0, in_row_chunks(problem, problem.epoch_metrics, W0, 0.0))
        hsgd_run(W0, schedule, cfg_sgd, problem, rngs, sink=sink, stage_hook=stage_hook)
    else:
        sink(0, 1.0, W0, in_row_chunks(problem, problem.epoch_metrics, W0, 1.0))
        flat = SgdConfig(cfg_sgd.alpha, total_steps, cfg_sgd.minibatch, record_every=every)
        sgd_run(W0, flat, problem, 1.0, rngs, sink=sink)
    return lambdas, objectives, aux


def _fmt(value):
    return format(value, ".17g")


def write_trace_csv(path, epochs, lambdas, mean_obj, std_obj, mean_gap, grad_evals):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for e in range(len(epochs)):
            gap = "" if mean_gap is None else _fmt(mean_gap[e])
            fh.write(
                f"{epochs[e]},{_fmt(lambdas[e])},{_fmt(mean_obj[e])},"
                f"{_fmt(std_obj[e])},{gap},{grad_evals[e]}\n"
            )


@dataclass
class ArmResult:
    method: str
    epochs: np.ndarray
    lambdas: np.ndarray
    mean_objective: np.ndarray
    std_objective: np.ndarray
    mean_gap: np.ndarray | None
    mean_error: np.ndarray | None
    grad_evals: np.ndarray
    failed: bool = False
    failure: str = ""

    def metric_curve(self, metric):
        if metric == "gap":
            if self.mean_gap is None:
                raise ConfigurationError("no f* oracle for this experiment; gap metric unavailable")
            return self.mean_gap
        if metric == "error":
            if self.mean_error is None:
                raise ConfigurationError("error metric only exists for classification experiments")
            return self.mean_error
        return self.mean_objective


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


def run_experiment(cfg: ExperimentConfig, quiet=True):
    """Execute all repeats per arm, write CSVs + metadata, return the report."""
    dataset = build_dataset(cfg)
    problem, w0 = build_problem(cfg, dataset)
    opt = cfg.optimizer
    schedule = make_schedule(opt["schedule"], opt["n"],
                             eta=opt.get("eta"), explicit=opt.get("explicit"))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    alpha, L_tilde = resolve_alpha(cfg, problem)
    minibatch = opt["minibatch"]
    every = steps_per_epoch(problem.sample_count, minibatch)
    cfg_sgd = SgdConfig(alpha, opt["k"], minibatch, record_every=every)
    cfg_sgd.warn_if_out_of_range(L_tilde)
    budget_factor = float(opt.get("sgd_budget_factor", 1))
    # Second per-epoch metric: 0/1 error for classification, raw target-problem
    # loss for the MLP (it has no f* oracle; the gap column holds raw loss).
    aux_role = problem.aux_metric
    fstar = _fstar_table(cfg, problem, np.concatenate([[0.0], schedule.lambdas(), [1.0]]))

    methods = ["sgd", "hsgd"] if cfg.method == "both" else [cfg.method]
    seeds = [stream_seed(cfg.master_seed, rep) for rep in range(cfg.repeats)]
    arms = {}
    arm_summaries = {}
    for method in methods:
        # Per-homotopy-iteration snapshots of repeat 0, from the engine's stage hook.
        snapshots = []
        stage_hook = None
        if method == "hsgd" and cfg.experiment in ("toy-erf", "sine-mlp"):
            def stage_hook(i, lam, W):
                snapshots.append((i, lam, problem.full_objective(W[0], lam), W[0].copy()))
        try:
            lambdas, objs, auxs = _run_arm(problem, w0, method, schedule, cfg_sgd, seeds,
                                           budget_factor, stage_hook)
        except NonFiniteError as exc:  # a diverged arm leaves other arms unaffected
            arms[method] = ArmResult(method, np.array([]), np.array([]), np.array([]),
                                     np.array([]), None, None, np.array([]),
                                     failed=True, failure=str(exc))
            arm_summaries[method] = {"failed": True, "failure": str(exc)}
            continue
        epochs = np.arange(objs.shape[1])
        mean_obj = objs.mean(axis=0)
        std_obj = objs.std(axis=0)
        mean_err = auxs.mean(axis=0) if aux_role == "error" else None
        mean_gap = None
        if fstar is not None:
            mean_gap = mean_obj - np.array([fstar[float(l)] for l in lambdas])
        elif aux_role == "target_objective":
            mean_gap = auxs.mean(axis=0)
        grad_evals = epochs * every * minibatch
        arm = ArmResult(method, epochs, lambdas, mean_obj, std_obj, mean_gap,
                        mean_err, grad_evals)
        arms[method] = arm
        write_trace_csv(out / f"trace_{method}.csv", epochs, lambdas, mean_obj,
                        std_obj, mean_gap, grad_evals)
        if mean_err is not None:
            write_trace_csv(out / f"trace_{method}_error.csv", epochs, lambdas,
                            mean_err, auxs.std(axis=0), None, grad_evals)
        summary = {
            "failed": False,
            "terminal_mean_objective": float(mean_obj[-1]),
            "terminal_std_objective": float(std_obj[-1]),
            "epochs": int(epochs[-1]),
        }
        if cfg.threshold is not None:
            curve = arm.metric_curve(cfg.threshold_metric)
            hit = epochs_to_threshold(curve, cfg.threshold)
            summary["epochs_to_threshold"] = hit
            if hit is None:
                summary["censoring_epoch"] = int(epochs[-1])
        arm_summaries[method] = summary
        if snapshots:
            _write_snapshots(out / "hsgd_snapshots.csv", snapshots)

    speedup = None
    note = ""
    if cfg.threshold is not None and "sgd" in arm_summaries and "hsgd" in arm_summaries:
        e_sgd = arm_summaries["sgd"].get("epochs_to_threshold")
        e_hsgd = arm_summaries["hsgd"].get("epochs_to_threshold")
        if e_sgd is not None and e_hsgd is not None and e_hsgd > 0:
            speedup = e_sgd / e_hsgd
        elif e_sgd is None and e_hsgd is not None:
            note = "sgd did not reach the threshold (censored at the budget)"
        elif e_hsgd is None:
            note = "hsgd did not reach the threshold"

    report = ComparisonReport(cfg.experiment, cfg.threshold, cfg.threshold_metric,
                              arm_summaries, speedup, note)
    metadata = {
        "config": cfg.to_dict(),
        "library_version": __version__,
        "sampler": SAMPLER,
        "L_tilde": L_tilde,
        "alpha_resolved": alpha,
        "steps_per_epoch": every,
        "repeat_seeds": seeds,
        "schedule_increments": [float(h) for h in schedule.increments],
    }
    with open(out / "metadata.json", "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
    if not quiet:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return arms, report


def _write_snapshots(path, rows):
    """Write (homotopy_iteration, lambda, objective, iterate) rows, one per iteration."""
    d = len(rows[0][3])
    header = "homotopy_iteration,lambda,objective," + ",".join(f"w{j}" for j in range(d))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i, lam, fval, w in rows:
            fh.write(f"{i},{_fmt(lam)},{_fmt(fval)}," + ",".join(_fmt(v) for v in w) + "\n")


def run_diagnose(cfg: ExperimentConfig, lam=1.0, out_dir=None):
    """Measure landscape constants for the configured experiment at one lambda.

    An estimator that cannot produce a value (``EstimationError``: L_hat,
    fstar, the PL probe) leaves an ``error.<key>`` line in the report; any
    other error propagates.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"homotopy parameter must lie in [0, 1], got {lam}")
    dataset = build_dataset(cfg)
    problem, w0 = build_problem(cfg, dataset)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    est = diagnostics.LandscapeEstimates()
    rng = make_rng(cfg.master_seed ^ L_ESTIMATE_SALT)
    minibatch = cfg.optimizer["minibatch"]

    try:
        est.L_hat = diagnostics.estimate_L(
            problem, lam, cfg.problem.get("L_pairs", 500),
            float(cfg.problem.get("L_radius", 3.0)), rng)
    except diagnostics.EstimationError as exc:
        est.errors["L_hat"] = str(exc)
    w_samples = [w0 + 0.5 * rng.standard_normal(problem.dimension) for _ in range(5)]
    est.sigma2_hat = diagnostics.estimate_sigma2(problem, lam, w_samples, minibatch, 200, rng)
    try:
        if cfg.experiment == "toy-erf":
            spec = {"kind": "grid", **cfg.problem["fstar_grid"]}
        elif cfg.experiment == "synthetic-lq":
            spec = {"kind": "grid", "lo": -5.0, "hi": 5.0, "step": 1e-4}
        else:
            spec = {"kind": "multistart", "restarts": 10, "steps": 1500,
                    "alpha": 1.0 / est.L_hat if est.L_hat else 0.05,
                    "seed": cfg.master_seed, "init_center": w0}
        fstar = diagnostics.estimate_fstar(problem, lam, spec)
        est.fstar = fstar.value
        est.fstar_upper_bound_only = fstar.upper_bound_only
    except diagnostics.EstimationError as exc:
        est.errors["fstar"] = str(exc)
    est.delta_hat = diagnostics.estimate_delta(problem, 200, rng)
    if est.fstar is not None:
        try:
            est.pl_probe = diagnostics.expected_pl_probe(problem, lam, 500, est.fstar, rng)
        except diagnostics.EstimationError as exc:
            est.errors["pl_probe"] = str(exc)
        if problem.dimension == 1:
            grid = np.arange(-6.0, 6.0 + 1e-9, 0.05)
            mu_vals = diagnostics.pl_moduli(problem, lam, grid[:, None], est.fstar)[0]
            est.mu_grid, est.mu_values = grid, mu_vals
            with open(out / "mu_sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
                fh.write("w,mu_hat\n")
                for w, m in zip(grid, mu_vals):
                    fh.write(f"{_fmt(w)},{'' if np.isnan(m) else _fmt(m)}\n")
    with open(out / "diagnostics.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(est.to_text())
    return est
