"""Closed-loop, single-client benchmark of `homotopy-opt run` and `diagnose`.

Every op is one in-process call of ``homotopy_opt.cli.main``; ops never
overlap. The metric definitions, the layer map and the reasons behind the
workloads are in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Patch, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
HASHES_PATH = Path(__file__).with_name("trace_sha256.json")

# Fixed for good: a change to these configs invalidates every recorded baseline.
# Only optimizer.k is reduced from the experiment defaults, so each SGD step
# does exactly the work it does in a default run.
WORKLOADS = {
    "erf-fstar": {"experiment": "toy-erf"},
    "moons-seq": {"experiment": "moons-logistic", "optimizer": {"k": 100}},
    "mlp-batched": {"experiment": "sine-mlp", "optimizer": {"k": 100}},
}

# The ops of an untraced run are fixed per workload, never chosen by how long
# ops take, so every run of a workload attempts the same ops on a slow host
# and a fast one: (diagnose ops per slot, nominal run op seconds). The slot
# sizes make a slot last about 1.3 s; see untraced_ops().
OP_PLAN = {"erf-fstar": (2, 22.0), "moons-seq": (1, 12.5), "mlp-batched": (3, 10.0)}
DEFAULT_PLAN = (1, math.inf)

# The trace CSV contract from the README of the package.
CSV_HEADER = "epoch,lambda,mean_objective,std_objective,mean_gap,grad_evals"
GRID_GAP_FLOOR = -1e-12      # toy-erf f* is a grid minimum: no trace may dip below it
SETUP_WARMUPS = 1            # lets bytecode caches fill before timed set-ups
SETUP_REPEATS = 3
REFERENCE_S = 0.15           # calibrate() time at the host speed op times are scaled to
PROBE_REPEATS = 3            # single-repeat H-SGD runs timed per traced run
TRACED_RUN = "run#0-traced"
THREAD_VARS = ("HOMOTOPY_OPT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (no program, no successful op)."""


@dataclass
class Op:
    """One CLI call and the verdict of its output checks."""

    kind: str                    # "run" or "diagnose"
    label: str
    wall: float = 0.0
    cpu: float = 0.0
    completed: bool = False      # exit 0 with its output files written
    failure: str | None = None
    wrong: bool = False          # claimed success but its output failed a check
    steps: int = 0
    master_seed: int | None = None
    hashes: dict = field(default_factory=dict)
    out: Path | None = None

    @property
    def ok(self):
        return self.failure is None

    def fail(self, reason, wrong=False):
        if self.failure is None:
            self.failure = reason
        self.wrong = self.wrong or wrong


def import_cli():
    """Import homotopy_opt.cli from this checkout's src/, and from nowhere else."""
    if not (SRC / "homotopy_opt" / "cli.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'homotopy_opt'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    from homotopy_opt import cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise BenchmarkError(f"homotopy_opt was imported from {cli.__file__}, not {SRC}")
    return cli


def master_seed(workload, seed, index):
    """The op's master_seed, derived from the workload seed alone."""
    return random.Random(f"{workload}/{seed}/{index}").getrandbits(31)


def is_finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- host speed

def calibrator():
    """Return calibrate(): the seconds a fixed reference workload takes now.

    The workload tracks the host's current speed and uses no code of the
    program: small numpy calls, as in the sampler; cache-sized vector
    arithmetic; plain Python; erf over a wide outer product, as in the f*
    grid; and array streaming. Its 6 MB of arrays are allocated here, once,
    so that calibrating adds a constant to the peak memory of the ops and
    never sets it.
    """
    import numpy as np
    from scipy.special import erf
    x = np.linspace(-6.0, 6.0, 200_001)
    line = np.empty_like(x)
    u, v = np.linspace(-3.0, 3.0, 5_000), np.linspace(-2.0, 2.0, 100)
    grid = np.empty((u.size, v.size))

    def calibrate():
        rng = np.random.default_rng(12345)
        t0 = time.perf_counter()
        for _ in range(3300):
            rng.choice(500, size=5, replace=False)
        for _ in range(12):
            np.multiply(x, -1.3, out=line)
            np.abs(line, out=line)
            np.exp(line, out=line)
            np.log1p(line, out=line)
            line.sum()
        total = 0
        for j in range(320_000):
            total += j * j % 7
        for _ in range(4):
            np.outer(u, v, out=grid)
            erf(grid, out=grid)
            np.subtract(grid, 0.3, out=grid)
            np.square(grid, out=grid)
            grid.mean(axis=1)
        for _ in range(8):
            np.outer(u, v, out=grid)
            np.add(grid, 1.0, out=grid)
            np.square(grid, out=grid)
            grid.mean(axis=1)
        return time.perf_counter() - t0

    return calibrate


# ---------------------------------------------------------------- ops

def call_cli(cli, argv):
    """One CLI call; returns (exit code, crash text or None, wall s, CPU s of self and children)."""
    sink = io.StringIO()
    c0 = os.times()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code, crash = cli.main(argv), None
    except (Exception, SystemExit) as exc:  # a crash is a failed op, not a benchmark error
        code, crash = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    c1 = os.times()
    return code, crash, wall, sum(c1[:4]) - sum(c0[:4])


def check_trace_csv(text, rows, gap_floor=None):
    """Return what is wrong with one trace CSV, or None."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "no final newline"
    lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        return f"header {lines[0] if lines else ''!r}"
    if len(lines) - 1 != rows:
        return f"{len(lines) - 1} rows, expected {rows}"
    gap_seen = None
    for epoch, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != 6 or fields[0] != str(epoch):
            return f"malformed row {epoch}: {line!r}"
        has_gap = fields[4] != ""
        if gap_seen is not None and has_gap != gap_seen:
            return f"gap column partly empty at row {epoch}"
        gap_seen = has_gap
        values = [float(fields[i]) for i in (1, 2, 3, 5)] + ([float(fields[4])] if has_gap else [])
        if not all(math.isfinite(v) for v in values):
            return f"non-finite value in row {epoch}"
        if gap_floor is not None and (not has_gap or float(fields[4]) < gap_floor):
            return f"gap {fields[4] or 'missing'} below {gap_floor} at row {epoch}"
    return None


def check_run_outputs(op, out):
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    failed_arms = [m for m, arm in report["arms"].items() if arm.get("failed")]
    if failed_arms:
        op.fail("failed arm " + "; ".join(f"{m}: {report['arms'][m].get('failure')}"
                                          for m in failed_arms))
        return
    cfg = meta["config"]
    op.master_seed = cfg["master_seed"]
    every = int(meta["steps_per_epoch"])
    hsgd = int(cfg["optimizer"]["k"]) * len(meta["schedule_increments"])
    arm_steps = {"hsgd": hsgd,
                 "sgd": int(round(hsgd * float(cfg["optimizer"].get("sgd_budget_factor", 1))))}
    op.steps = int(cfg["repeats"]) * sum(arm_steps[m] for m in report["arms"])
    for method in report["arms"]:
        rows = arm_steps[method] // every + 1
        floor = GRID_GAP_FLOOR if cfg["experiment"] == "toy-erf" else None
        problem = check_trace_csv((out / f"trace_{method}.csv").read_text(encoding="utf-8"),
                                  rows, floor)
        error_csv = out / f"trace_{method}_error.csv"
        if problem is None and error_csv.exists():
            problem = check_trace_csv(error_csv.read_text(encoding="utf-8"), rows)
        if problem:
            op.fail(f"trace_{method}: {problem}", wrong=True)


def run_op(cli, config_path, out_arg, out, label):
    """``out_arg`` is passed as ``--out`` when set; the outputs are read from ``out``."""
    op = Op("run", label, out=out)
    argv = ["run", "--config", str(config_path)] + (["--out", str(out_arg)] if out_arg else [])
    code, crash, op.wall, op.cpu = call_cli(cli, argv)
    if crash or code != 0:
        op.fail(crash or f"exit code {code}")
    try:
        check_run_outputs(op, out)
        op.completed = code == 0
    except (OSError, ValueError, KeyError, TypeError) as exc:
        op.fail(f"unreadable output: {exc}", wrong=code == 0)
    op.hashes = {p.name: sha256(p) for p in sorted(out.glob("*.csv"))}
    return op


def diagnose_op(cli, config_path, out, label):
    op = Op("diagnose", label, out=out)
    code, crash, op.wall, op.cpu = call_cli(cli, ["diagnose", "--config", str(config_path),
                                                  "--out", str(out)])
    if crash or code != 0:
        op.fail(crash or f"exit code {code}")
        return op
    try:
        text = (out / "diagnostics.txt").read_text(encoding="utf-8")
    except OSError as exc:
        op.fail(f"no diagnostics.txt: {exc}", wrong=True)
        return op
    op.completed = True
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if key.startswith("error."):
            op.fail(line)
        elif not sep or key != "fstar_upper_bound_only" and not is_finite_number(value):
            op.fail(f"malformed or non-finite line {line!r}", wrong=True)
    if "L_hat" not in text and op.ok:
        op.fail("no L_hat estimate", wrong=True)
    return op


def replay_op(cli, source, out, label):
    """Re-run ``source`` from its metadata.json; every CSV must match byte for byte.

    As in acceptance criterion 12, the metadata is replayed with only its
    out_dir changed: ``run --out`` does not override the out_dir of a
    metadata file.
    """
    if not source.ok:
        op = Op("run", label, out=out)
        op.fail(f"source op {source.label} failed, nothing to replay")
        return op
    meta = json.loads((source.out / "metadata.json").read_text(encoding="utf-8"))
    meta["config"]["out_dir"] = str(out)
    config_path = out.with_name(out.name + "-metadata.json")
    config_path.write_text(json.dumps(meta), encoding="utf-8")
    op = run_op(cli, config_path, None, out, label)
    differ = {name for name, _ in set(op.hashes.items()) ^ set(source.hashes.items())}
    if op.ok and differ:
        op.fail("replay differs from its source in " + ", ".join(sorted(differ)), wrong=True)
    return op


# ---------------------------------------------------------------- set-up

def measure_setup(config, workdir, repeats):
    """Wall time of fresh interpreters that import the CLI and build dataset and problem."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), json.dumps(config)]
    samples = []
    for i in range(SETUP_WARMUPS + repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=workdir, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up interpreter failed: {proc.stderr.strip()[-800:]}")
        if i >= SETUP_WARMUPS:
            samples.append({"setup_s": wall, **json.loads(proc.stdout.splitlines()[-1])})
    return samples


# ---------------------------------------------------------------- tracing

def op_patches(cli, tracer):
    """Spans around every cross-module call the CLI, harness and estimators make."""
    harness, diagnostics = cli.harness, cli.harness.diagnostics

    def traced_fstar(original):
        grid = tracer.wrap("diagnostics.fstar", original)
        other = tracer.wrap("diagnostics.multistart", original)

        def estimate_fstar(problem, lam, search_spec):
            if search_spec.get("kind") != "grid":
                return other(problem, lam, search_spec)
            lo, hi, step = search_spec["lo"], search_spec["hi"], search_spec["step"]
            tracer.count("diagnostics.fstar_grid_points", math.ceil((hi + step / 2 - lo) / step))
            return grid(problem, lam, search_spec)
        return estimate_fstar

    return [
        Patch(harness, "run_experiment", "harness.run_experiment"),
        Patch(harness, "run_diagnose", "harness.run_diagnose"),
        Patch(harness, "build_dataset", "datasets.build"),
        Patch(harness, "build_problem", "problems.build"),
        Patch(diagnostics, "estimate_L", "diagnostics.estimate_L"),
        Patch(diagnostics, "estimate_fstar", "diagnostics.fstar", make=traced_fstar),
        Patch(diagnostics, "estimate_sigma2", "diagnostics.sigma2"),
        Patch(diagnostics, "estimate_delta", "diagnostics.delta"),
        Patch(diagnostics, "expected_pl_probe", "diagnostics.pl_probe"),
        Patch(diagnostics, "estimate_mu", "diagnostics.mu", leaf=True),
        Patch(harness, "write_trace_csv", "harness.io"),
        Patch(harness, "_write_snapshots", "harness.snapshots"),
        Patch(harness, "sgd_run", "core.sgd_run"),
        Patch(harness, "_draw_minibatch", "core.sampler", leaf=True),
    ]


def probe_steps(cli, config, seed_value, tracer):
    """Single-repeat H-SGD runs in this process at the workload's family and (N, M).

    Pool workers lose their spans, so the per-step numbers of the sampler,
    the SGD loop and the oracle come from here. Returns the steps taken.
    """
    harness = cli.harness
    core = sys.modules["homotopy_opt.core"]
    cfg = harness.ExperimentConfig.from_dict({**config, "master_seed": seed_value})
    problem, w0 = harness.build_problem(cfg, harness.build_dataset(cfg))
    alpha, _ = harness.resolve_alpha(cfg, problem)
    opt = cfg.optimizer
    minibatch = int(opt["minibatch"])
    sgd_cfg = core.SgdConfig(alpha, int(opt["k"]), minibatch,
                             record_every=core.steps_per_epoch(problem.sample_count, minibatch))
    schedule = core.make_schedule(opt["schedule"], int(opt["n"]), eta=opt.get("eta"),
                                  explicit=opt.get("explicit"))
    family = type(problem)
    patches = [
        Patch(core, "sgd_run", "core.sgd_run"),
        Patch(core, "_draw_minibatch", "core.sampler", leaf=True),
        Patch(family, "minibatch_value_and_gradient", "problems.oracle", leaf=True),
        Patch(family, "full_objective", "problems.full_objective", leaf=True),
    ]
    with tracer.patched(patches):
        for r in range(PROBE_REPEATS):
            rng = core.make_rng(core.stream_seed(cfg.master_seed, r))
            core.hsgd_run(w0, schedule, sgd_cfg, problem, rng, sink=lambda *_: None)
    return sgd_cfg.steps * schedule.n * PROBE_REPEATS


def layer_metrics(ops_tracer, probe_tracer, probe_steps_done, setup, untraced, traced_run):
    """Per-layer metrics by name; a metric whose spans are missing is left out."""
    t, p = ops_tracer, probe_tracer

    def probe_mean_us(name):
        return 1e6 * p.total(name) / p.calls(name)

    formulas = {
        "cli.import_s": lambda: statistics.median(s["cli.import_s"] for s in setup),
        "datasets.build_s": lambda: statistics.median(s["datasets.build_s"] for s in setup),
        "problems.build_s": lambda: statistics.median(s["problems.build_s"] for s in setup),
        "diagnostics.fstar_s": lambda: t.total("diagnostics.fstar"),
        "diagnostics.fstar_calls": lambda: t.calls("diagnostics.fstar"),
        "diagnostics.fstar_grid_points":
            lambda: t.counter("diagnostics.fstar_grid_points", "diagnostics.fstar"),
        "diagnostics.estimate_L_s": lambda: t.total("diagnostics.estimate_L"),
        "diagnostics.probe_s": lambda: sum(t.total(n) for n in (
            "diagnostics.sigma2", "diagnostics.delta", "diagnostics.pl_probe",
            "diagnostics.mu", "diagnostics.multistart")),
        "core.sampler_us_per_draw": lambda: probe_mean_us("core.sampler"),
        "core.sampler_draws": lambda: p.calls("core.sampler") // PROBE_REPEATS,
        "core.sgd_step_us": lambda: 1e6 * p.total("core.sgd_run") / probe_steps_done,
        "core.sgd_self_us": lambda: 1e6 * (
            p.total("core.sgd_run") - p.child_time("core.sgd_run", "problems.oracle")
            - p.child_time("core.sgd_run", "problems.full_objective")) / probe_steps_done,
        "core.steps": lambda: traced_run.steps,
        "problems.oracle_us": lambda: probe_mean_us("problems.oracle"),
        "problems.oracle_calls": lambda: p.calls("problems.oracle") // PROBE_REPEATS,
        "problems.full_objective_us": lambda: probe_mean_us("problems.full_objective"),
        "problems.full_objective_calls":
            lambda: p.calls("problems.full_objective") // PROBE_REPEATS,
        "harness.arms_s": lambda: t.self_time("harness.run_experiment"),
        "harness.snapshots_s": lambda: t.child_time("harness.run_experiment", "harness.snapshots"),
        "harness.io_s": lambda: t.child_time("harness.run_experiment", "harness.io"),
        "harness.bytes_written": lambda: sum(f.stat().st_size for f in traced_run.out.iterdir()),
        "trace.run_s": lambda: traced_run.wall,
        "trace.unaccounted_s": lambda: traced_run.wall - t.total("harness.run_experiment"),
        "trace.overhead_s": lambda: traced_run.wall - untraced.wall,
    }
    metrics, absent = {}, []
    for name, formula in formulas.items():
        try:
            metrics[name] = formula()
        except (KeyError, ZeroDivisionError, TypeError):
            absent.append(name)
    samples = {name: len(setup)
               for name in ("cli.import_s", "datasets.build_s", "problems.build_s")}
    for name, span in (("core.sampler_us_per_draw", "core.sampler"),
                       ("problems.oracle_us", "problems.oracle"),
                       ("problems.full_objective_us", "problems.full_objective")):
        samples[name] = p.stats.get(span, [0])[0]
    return metrics, absent, samples


def run_phases(tracer, traced_run):
    """The traced run op as the spans directly under run_experiment, its self time and the rest."""
    if "harness.run_experiment" not in tracer.stats:
        return {}
    phases = dict(tracer.stats["harness.run_experiment"][2])
    phases["harness.arms (self)"] = tracer.self_time("harness.run_experiment")
    phases["cli, outside run_experiment"] = traced_run.wall - tracer.total("harness.run_experiment")
    return phases


# ---------------------------------------------------------------- environment

def blas_info():
    """BLAS name and version from numpy's build config; thread count from the loaded library."""
    import numpy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        blas = {}
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with contextlib.suppress(OSError):
        maps = Path("/proc/self/maps").read_text().splitlines()
        libraries = sorted({line.split()[-1] for line in maps if "blas" in line.rsplit("/", 1)[-1]})
        for library in libraries:
            handle = ctypes.CDLL(library)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    info["threads"] = int(getattr(handle, symbol)())
                    return info
    return info


def environment(workload, seed):
    import numpy
    import scipy
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------- closed loop

def untraced_ops(cli, op_config, workdir, seconds, plan, inject):
    """The closed loop of one untraced run; ``op_config(i)`` is the config of op i.

    ``plan`` is the workload's entry of OP_PLAN. The ops depend on it and on
    ``seconds`` alone: a run op, its replay and three diagnose slots, then
    one run and diagnose pair for each further nominal run op time that fits
    in ``seconds``. Returns the ops and the calibrate() times taken before the
    first op and after each op.
    """
    per_slot, nominal_run_s = plan
    calibrate = calibrator()
    ops, calibrations, indices = [], [calibrate()], itertools.count()

    def add(op):
        ops.append(op)
        calibrations.append(calibrate())
        return op

    def diagnose_slot():
        # Diagnose ops are short, so one sample is noisy. Slots before,
        # between and after the two run ops spread the samples over the
        # run rather than over one stretch of the host's load.
        for _ in range(per_slot):
            i = next(indices)
            add(diagnose_op(cli, op_config(i), workdir / f"diagnose-{i}", f"diagnose#{i}"))

    diagnose_slot()
    first = add(run_op(cli, op_config(0), workdir / "run-0", workdir / "run-0", "run#0"))
    diagnose_slot()
    add(replay_op(cli, first, workdir / "run-0-replay", "run#0-replay"))
    diagnose_slot()
    if inject is not None:
        out = workdir / "run-inject"
        add(run_op(cli, write_config(workdir, "inject", inject), out, out, "run#inject"))
    for _ in range(max(0, int(seconds // nominal_run_s) - 2)):
        index = next(indices)
        out = workdir / f"run-{index}"
        add(run_op(cli, op_config(index), out, out, f"run#{index}"))
        add(diagnose_op(cli, op_config(index), workdir / f"diagnose-{index}",
                        f"diagnose#{index}"))
    return ops, calibrations


def traced_ops(cli, config, seed_value, config_path, ops, setup, workdir):
    """Traced replay of ops[0] and a traced diagnose (appended to ``ops``), then the probe."""
    ops_tracer, probe_tracer = Tracer(), Tracer()
    with ops_tracer.patched(op_patches(cli, ops_tracer)):
        ops_tracer.op = TRACED_RUN
        traced_run = ops_tracer.call("op.run", replay_op, cli, ops[0],
                                     workdir / "run-0-traced", TRACED_RUN)
        ops.append(traced_run)
        ops_tracer.op = "diagnose#0-traced"
        ops.append(ops_tracer.call("op.diagnose", diagnose_op, cli, config_path,
                                   workdir / "diagnose-0", "diagnose#0-traced"))
    try:
        steps = probe_steps(cli, config, seed_value, probe_tracer)
    except (AttributeError, TypeError, KeyError) as exc:
        steps = 0
        print(f"per-step probe unavailable: {type(exc).__name__}: {exc}", file=sys.stderr)
    layers, absent, samples = layer_metrics(ops_tracer, probe_tracer, steps, setup, ops[0],
                                            traced_run)
    spans = {"ops": ops_tracer.to_dict(), "probe": probe_tracer.to_dict()}
    (workdir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return traced_run, layers, absent, samples, run_phases(ops_tracer, traced_run)


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {SPEC_PATH}: {exc}") from exc


def write_config(workdir, tag, config):
    path = workdir / f"config-{tag}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def measure(workload, config, seed, seconds, trace, workdir, inject=None,
            setup_repeats=SETUP_REPEATS):
    """Run one workload and return its result; see README.md for the op sequence.

    ``inject`` is the config of one extra run op, used to check that a
    failing op is counted and kept out of the timing samples.
    """
    spec = load_spec()
    cli = import_cli()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(workload, seed)

    def op_config(index):
        return write_config(workdir, index,
                            {**config, "master_seed": master_seed(workload, seed, index)})

    setup = measure_setup({**config, "master_seed": master_seed(workload, seed, 0)},
                          workdir, setup_repeats)
    start = time.perf_counter()
    absent, phases, calibrations = [], {}, []
    if trace:
        ops = [run_op(cli, op_config(0), workdir / "run-0", workdir / "run-0", "run#0")]
        traced_run, layers, absent, layer_samples, phases = traced_ops(
            cli, config, master_seed(workload, seed, 0), op_config(0), ops, setup, workdir)
    else:
        ops, calibrations = untraced_ops(cli, op_config, workdir, seconds,
                                         OP_PLAN.get(workload, DEFAULT_PLAN), inject)
    measured_s = time.perf_counter() - start

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "workload": workload, "seed": seed, "trace": trace, "measured_s": measured_s,
        "env": env, "setup": setup, "ops": [op_summary(op) for op in ops],
        "absent": absent, "run_phases": phases, "calibrate_s": calibrations,
    }
    if trace:
        result["metrics"] = with_units(spec["per_layer"], layers, absent, layer_samples)
    else:
        result["metrics"] = end_to_end_metrics(spec, ops, setup, (self_rss + child_rss) / 1024,
                                               statistics.median(calibrations))
    failed = sum(not op.ok for op in ops)
    result.update(correct=not any(op.wrong for op in ops), attempted=len(ops), failed=failed)
    (workdir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def op_summary(op):
    return {"label": op.label, "kind": op.kind, "wall_s": op.wall, "cpu_s": op.cpu,
            "ok": op.ok, "wrong": op.wrong, "failure": op.failure, "steps": op.steps,
            "master_seed": op.master_seed, "csv_sha256": op.hashes}


def with_units(entries, values, absent, samples):
    out = {}
    for entry in entries:
        name = entry["name"]
        if name in absent:
            continue
        if name not in values:
            raise BenchmarkError(f"BENCHMARK.json names {name}, which the benchmark cannot compute")
        out[name] = {"value": values[name], "unit": entry["unit"], "samples": samples.get(name, 1)}
    return out


def end_to_end_metrics(spec, ops, setup, peak_rss_mb, calibrate_s):
    runs = [op for op in ops if op.kind == "run" and op.ok]
    if not runs:
        raise BenchmarkError("every run op failed: " + "; ".join(
            f"{op.label}: {op.failure}" for op in ops if op.kind == "run"))
    diags = [op for op in ops if op.kind == "diagnose" and op.ok]
    diag_note = ""
    if not diags:
        # Every diagnose op reported an estimator error: time the ones that ran to
        # completion so diagnose_s stays defined, and say so next to the metric.
        diags = [op for op in ops if op.kind == "diagnose" and op.completed and not op.wrong]
        diag_note = "timed from completed ops that reported an error"
    if not diags:
        raise BenchmarkError("no diagnose op completed")
    # The host runs the same code up to 2x slower from one minute to the next,
    # so op times are scaled to the host speed at which calibrate() takes
    # REFERENCE_S. Set-up runs in fresh interpreters before the first
    # calibration and is not scaled.
    scale = REFERENCE_S / calibrate_s
    unscaled = {"run_s": statistics.median(op.wall for op in runs),
                "run_cpu_s": statistics.median(op.cpu for op in runs),
                "diagnose_s": statistics.median(op.wall for op in diags)}
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        **{name: seconds * scale for name, seconds in unscaled.items()},
        "steps_per_s": runs[0].steps / (unscaled["run_s"] * scale),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": len(setup), "run_s": len(runs), "run_cpu_s": len(runs),
               "steps_per_s": len(runs), "diagnose_s": 0 if diag_note else len(diags),
               "peak_rss_mb": 1}
    metrics = with_units(spec["end_to_end"], values, [], samples)
    for name, seconds in unscaled.items():
        metrics[name]["note"] = f"unscaled {seconds:.4g} s"
    if diag_note:
        metrics["diagnose_s"]["note"] += f"; {diag_note} ({len(diags)})"
    return metrics


def report(result):
    """Human-readable lines, then the one-line JSON result as the last line."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"measured {result['measured_s']:.1f} s")
    print(f"{'metric':32s} {'value':>16s} {'unit':8s} samples")
    for name, m in result["metrics"].items():
        note = f"  ({m['note']})" if "note" in m else ""
        print(f"{name:32s} {m['value']:16.6g} {m['unit']:8s} {m['samples']}{note}")
    ratio = result["failed"] / result["attempted"]
    print(f"{'ops_failed_ratio':32s} {ratio:16.6g} {'ratio':8s} {result['attempted']} "
          f"({result['failed']} failed of {result['attempted']} ops)")
    if result["calibrate_s"]:
        median = statistics.median(result["calibrate_s"])
        print(f"op times scaled by {REFERENCE_S / median:.4f}: calibrate() took {median:.4f} s "
              f"(median of {len(result['calibrate_s'])}), {REFERENCE_S} s at the reference speed")
    for name in result["absent"]:
        print(f"{name:32s} {'absent':>16s}")
    for name, seconds in result["run_phases"].items():
        print(f"traced run phase {name:36s} {seconds:10.4f} s")
    if result["run_phases"]:
        traced = next(op for op in result["ops"] if op["label"] == TRACED_RUN)
        print(f"traced run phases sum {sum(result['run_phases'].values()):.4f} s of traced run_s "
              f"{traced['wall_s']:.4f} s")
    for op in result["ops"]:
        status = "ok" if op["ok"] else ("WRONG OUTPUT" if op["wrong"] else "failed")
        print(f"op {op['label']:20s} {op['kind']:8s} {op['wall_s']:9.3f} s  {status}"
              + ("" if op["ok"] else f": {op['failure']}"))
    baseline = recorded_hashes()
    for op in result["ops"]:
        recorded = baseline.get(f"{result['workload']}/{op['master_seed']}", {})
        for name, digest in op["csv_sha256"].items():
            verdict = ("no baseline" if name not in recorded else
                       "baseline equal" if recorded[name] == digest else "BASELINE DIFFERS")
            print(f"sha256 {op['label']} {name} {digest} {verdict}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))


def recorded_hashes():
    """Trace CSV digests recorded at the baseline commit, keyed by workload/master_seed."""
    try:
        return json.loads(HASHES_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
