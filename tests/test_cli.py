"""Command-line interface: subcommands and exit codes."""

import ast
import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import homotopy_opt
from homotopy_opt import cli, core, harness
from homotopy_opt.core import SAMPLER

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = Path(__file__).resolve().parents[1] / "src"

LQ_CONSTANTS = {
    "L": 1.0, "mu": 1.0, "sigma2": 0.11746318454690335, "delta": 1.0, "gamma": 1.0,
    "B": 1.0, "r": 0.5, "alpha": 0.1, "k": 50, "n": 20,
    "rho_tilde": 0.8, "epsilon0": 0.5,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_run_subcommand_success(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq",
        "repeats": 2,
        "optimizer": {"k": 8, "n": 4},
    })
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert (tmp_path / "out" / "trace_hsgd.csv").exists()
    assert (tmp_path / "out" / "report.json").exists()


def test_run_overrides_repeats_and_seed(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq", "optimizer": {"k": 4, "n": 2}})
    code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--repeats", "2", "--seed", "77"])
    assert code == cli.EXIT_OK
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["config"]["repeats"] == 2
    assert meta["config"]["master_seed"] == 77


def test_run_config_errors(tmp_path):
    bad = write_json(tmp_path / "bad.json", {"experiment": "nonesuch"})
    assert cli.main(["run", "--config", bad]) == cli.EXIT_CONFIG
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG
    malformed = tmp_path / "broken.json"
    malformed.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", "--config", str(malformed)]) == cli.EXIT_CONFIG


def test_run_nonfinite_exit_code(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "sine-mlp",
        "method": "hsgd",
        "repeats": 2,
        "dataset": {"N": 40},
        "optimizer": {"alpha": 1e150, "k": 16, "n": 2},
    })
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_RUNTIME


def cli_process(args, setup="", timeout=300, preexec_fn=None):
    """``homotopy-opt args`` in a fresh interpreter, after the statements ``setup``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    script = f"import os, sys\nfrom homotopy_opt import cli, core, harness\n{setup}\n" \
             "sys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=timeout, preexec_fn=preexec_fn)


def test_scipy_is_imported_only_by_the_erf_family():
    # scipy is most of the CLI's import time and only toy-erf evaluates erf,
    # so the import waits for that family's constructor.
    proc = cli_process([], "def builds_scipy(experiment):\n"
                           "    cfg = harness.ExperimentConfig.from_dict({'experiment': experiment})\n"
                           "    harness.build_problem(cfg, harness.build_dataset(cfg))\n"
                           "    return 'scipy' in sys.modules\n"
                           "print('scipy' in sys.modules, builds_scipy('moons-logistic'),"
                           " builds_scipy('sine-mlp'), builds_scipy('synthetic-lq'),"
                           " builds_scipy('toy-erf'))\n"
                           "sys.exit(0)")
    assert (proc.returncode, proc.stdout.split()) == (0, ["False"] * 4 + ["True"]), proc.stderr


def test_diverged_arm_writes_no_numpy_warning(tmp_path):
    # A diverged arm is reported by its NonFiniteError; numpy's overflow
    # warnings, printed again by every process of a split arm, are not. The
    # run's own step-size warning shows that stderr is seen.
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "sine-mlp", "repeats": 4, "dataset": {"N": 40},
        "optimizer": {"alpha": 1e150, "k": 16, "n": 2}})
    outcomes = []
    for slices in (1, 2):
        out = tmp_path / f"out{slices}"
        proc = cli_process(["run", "--config", cfg, "--out", str(out)],
                           f"core._slice_count = lambda rows, steps, samples: min({slices}, rows)")
        assert "UserWarning: step size 1e+150 exceeds" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        outcomes.append((proc.returncode, proc.stdout,
                         [report["arms"][m]["failure"] for m in ("sgd", "hsgd")]))
    assert outcomes[0][0] == cli.EXIT_RUNTIME
    assert outcomes[0][2][1].startswith("non-finite")
    assert outcomes[1] == outcomes[0]


EXTREME = {
    "slope": {"experiment": "toy-erf", "dataset": {"slope": 1e308}},
    "offsets": {"experiment": "synthetic-lq", "dataset": {"offset_std": 1e308}},
    "grid": {"experiment": "toy-erf", "problem": {
        "fstar_grid": {"lo": 1e300, "hi": 1.0000000000000002e300, "step": 1e284}}},
}


@pytest.mark.parametrize("command, config", [
    ("diagnose", "slope"), ("diagnose", "offsets"), ("diagnose", "grid"),
    ("run", "grid"), ("gen-data", "offsets"),
])
def test_extreme_valid_config_writes_no_numpy_warning(tmp_path, command, config):
    # Valid values whose arithmetic overflows on paths outside the engine (the
    # mu sweep, sigma^2, the f* grid, the dataset): every command runs under
    # cli.main's one numpy error setting, so none prints numpy's warnings.
    cfg = write_json(tmp_path / "cfg.json", EXTREME[config])
    proc = cli_process([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr == ""


def test_dead_worker_is_a_runtime_failure(tmp_path):
    # A forked worker that exits without a result fails the run with exit 4
    # and one line, not with a traceback.
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq", "repeats": 4,
                                             "optimizer": {"k": 4, "n": 2}})
    proc = cli_process(["run", "--config", cfg, "--out", str(tmp_path / "out")],
                       "core._slice_count = lambda rows, steps, samples: min(2, rows)\n"
                       "core._part_worker = lambda send, run, part: os._exit(1)")
    assert proc.returncode == cli.EXIT_RUNTIME
    assert proc.stdout == ""
    assert proc.stderr == "runtime failure: the worker for repeats from 2 exited without a result\n"


def test_numpy_error_state_is_set_only_in_cli_main():
    # One failure boundary: a private np.errstate (or np.seterr) scope would
    # silence numpy's warnings on one path of the library and not another.
    name_field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}
    found = []
    for path in sorted((SRC / "homotopy_opt").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(node, f"{path.stem}.{node.name}") for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if getattr(node, name_field.get(type(node), ""), None) in ("errstate", "seterr"):
                # The innermost scope whose subtree holds the use; a decorator counts.
                owners = [label for scope, label in scopes if node in ast.walk(scope)]
                found.append(owners[-1] if owners else path.stem)
    assert found == ["cli.main"]


def test_only_core_cuts_and_forks_slices():
    # One owner of the split, the fork, the join and the failure order: a
    # module that cut or forked its own slices would re-derive them.
    name_field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name",
                  ast.ImportFrom: "module"}
    owners = set()
    for path in sorted((SRC / "homotopy_opt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, name_field.get(type(node), ""), None) or ""
            if name.split(".")[0] in ("_slice_count", "_part_worker", "multiprocessing"):
                owners.add(path.stem)
    assert owners == {"core"}


def test_exponential_schedule_with_subnormal_weights_runs_without_warning(tmp_path):
    # e^(-740) is subnormal; rounding it once warned of a cap the run never set.
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq", "optimizer": {"schedule": "exponential", "eta": 74, "n": 10}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert not [w for w in caught if issubclass(w.category, UserWarning)]


# Configs no arm can run, each with a piece of its message. synthetic-lq has k * n = 1,000.
UNRUNNABLE = {
    # e^(-1000) is 0 in double precision, so the weights would normalize to NaN.
    "eta-underflow": ({"schedule": "exponential", "eta": 1000}, "underflows to 0 at eta = 1000, n = 20"),
    # The entries sum to inf, so every normalized increment is 0.
    "explicit-overflow": ({"schedule": "explicit", "n": 3, "explicit": [1e308, 1e308, 1e308]},
                          "increments must lie in (0, 1]"),
    "sgd-no-step": ({"sgd_budget_factor": 1e-9}, "an arm's 50 * 20 * 1e-09 steps round outside [1, "),
    "sgd-beyond-intp": ({"sgd_budget_factor": 1e300}, "an arm's 50 * 20 * 1e+300 steps round outside [1, "),
    "k-beyond-intp": ({"k": 10**19}, "an arm's 10000000000000000000 * 20 * 1 steps round outside [1, "),
}


@pytest.mark.parametrize("command", ["run", "diagnose", "gen-data"])
@pytest.mark.parametrize("case", UNRUNNABLE)
def test_unrunnable_config_is_config_error_on_every_command(tmp_path, capsys, case, command):
    optimizer, message = UNRUNNABLE[case]
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq", "repeats": 3, "optimizer": optimizer})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1 and message in err
    assert not caught, [str(w.message) for w in caught]
    assert not out.exists()


def cap_address_space(limit=4 * 2**30):
    """Cap this process's own address space at ``limit`` bytes (a ``preexec_fn``).

    An allocation beyond it fails at once whatever the host's overcommit
    setting, and a run that would grow without bound stops at the cap.
    """
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@pytest.mark.parametrize("raw, shape", [
    ({"optimizer": {"k": 10**12}}, "(2500000000001,)"),    # the lambda column: 18.2 TiB
    ({"repeats": 10**10}, "(10000000000, 126)"),           # a trace block: 9.17 TiB
])
def test_run_that_cannot_hold_its_traces_fails_before_its_dataset(tmp_path, raw, shape):
    # Each arm's trace blocks are allocated from the plan before the dataset is
    # built and before the per-repeat seeds are listed, so such a run exits 4
    # with one line, builds nothing and leaves no directory.
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq", **raw})
    out = tmp_path / "out"
    start = time.perf_counter()
    proc = cli_process(["run", "--config", cfg, "--out", str(out)],
                       "def build_dataset(cfg):\n    raise SystemExit('the dataset was built')\n"
                       "harness.build_dataset = build_dataset",
                       timeout=30, preexec_fn=cap_address_space)
    assert time.perf_counter() - start < 30
    assert proc.returncode == cli.EXIT_RUNTIME, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("runtime failure: Unable to allocate ")
    assert proc.stderr.count("\n") == 1 and shape in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "diagnose", "gen-data"])
def test_each_command_builds_the_schedule_once(tmp_path, monkeypatch, command):
    # from_dict builds the schedule while it judges the config, and a run
    # reads it from the plan.
    calls, real = [], core.make_schedule

    def make_schedule(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(core, "make_schedule", make_schedule)
    monkeypatch.setattr(harness, "make_schedule", make_schedule)
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq", "repeats": 2,
                                             "optimizer": {"k": 4, "n": 2}})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert calls == [("constant", 2)]


@pytest.mark.parametrize("command", ["run", "diagnose", "gen-data"])
@pytest.mark.parametrize("raw, named", [
    ({"dataset": {"N": 2**62}}, "dataset.N would size"),
    ({"optimizer": {"k": 1, "n": 2**61}}, "optimizer.n and repeats would size"),
    ({"repeats": 2**60}, "repeats would size"),
])
def test_count_beyond_numpys_index_range_is_config_error(tmp_path, capsys, command, raw, named):
    # numpy refuses such an array with a ValueError, which every command met as exit 1.
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq", **raw})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1 and named in err
    assert not out.exists()


def test_L_pairs_beyond_numpys_index_range_is_an_estimate_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq",
                                             "problem": {"L_pairs": 2**62}})
    why = "4611686018427387904 pairs of 1 values exceed numpy's index range"
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == ("configuration error: cannot estimate L_tilde at "
                                       f"lambda = 1: {why}\n")
    assert not (tmp_path / "run").exists()
    assert cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")]) == cli.EXIT_OK
    assert f"error.L_hat = {why}" in capsys.readouterr().out.splitlines()


# A library caller that changes a judged config: each value raised TypeError
# in diagnose, after its out dir existed. Now the write itself raises, and a
# config rebuilt with the value is judged, and refused, before any compute.
STALE = [("optimizer", "minibatch", 4.0), ("problem", "L_radius", "3")]


def changed(cfg, section, key, value):
    """``cfg`` rebuilt with ``section.key`` = ``value``, once a write of the value has raised."""
    with pytest.raises(TypeError, match="does not support item assignment"):
        getattr(cfg, section)[key] = value
    return dataclasses.replace(cfg, **{section: {**getattr(cfg, section), key: value}})


@pytest.mark.parametrize("section, key, value", STALE)
def test_a_config_changed_after_judging_does_not_diagnose(tmp_path, section, key, value):
    cfg = harness.ExperimentConfig.from_dict({"experiment": "synthetic-lq",
                                              "out_dir": str(tmp_path / "d")})
    with pytest.raises(core.ConfigurationError, match=f"{section}.{key} = {value!r}"):
        harness.run_diagnose(changed(cfg, section, key, value))
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("section, key, value", STALE)
def test_cli_diagnose_refuses_a_config_changed_after_judging(tmp_path, capsys, monkeypatch,
                                                              section, key, value):
    load = cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda args, repeats=None: changed(
        load(args, repeats), section, key, value))
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq"})
    out = tmp_path / "d"
    assert cli.main(["diagnose", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: invalid config values for synthetic-lq: ")
    assert f"{section}.{key} = {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "diagnose", "gen-data"])
def test_memory_error_is_runtime_failure(tmp_path, capsys, monkeypatch, command):
    def build_dataset(cfg):
        raise MemoryError("Unable to allocate 18.2 TiB for an array")
    monkeypatch.setattr(harness, "build_dataset", build_dataset)
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq"})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime failure: Unable to allocate 18.2 TiB for an array\n"


def test_error_without_text_prints_its_class_name(tmp_path, capsys, monkeypatch):
    def schedule_caps(n, eta, eps1):
        raise MemoryError()
    monkeypatch.setattr(cli.theory, "schedule_caps", schedule_caps)
    path = write_json(tmp_path / "c.json", LQ_CONSTANTS)
    assert cli.main(["theory", "--constants", path]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime failure: MemoryError\n"


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_a_runtime_failure(tmp_path, flags):
    # The report is lost whether the write fails in the command (unbuffered)
    # or in main's flush after it; the interpreter's exit adds nothing.
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq", "repeats": 3})
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *flags, "-m", "homotopy_opt.cli", "run", "--config", cfg,
                               "--out", str(tmp_path / "out")], stdout=write, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=300)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_RUNTIME, "runtime failure: [Errno 32] Broken pipe\n")
    assert (tmp_path / "out" / "report.json").exists()


def test_no_stdout_at_all_is_not_an_error(tmp_path):
    # Started with descriptor 1 closed, the interpreter has no sys.stdout and print writes nothing.
    path = write_json(tmp_path / "c.json", LQ_CONSTANTS)
    proc = cli_process(["theory", "--constants", path], preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OK, "")


def test_schedule_path_missing_one_is_config_error_before_compute(tmp_path, capsys):
    # 100,000 constant increments summed left to right stop 1.9e-12 short of 1,
    # so the run must refuse the schedule before any arm trains.
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq", "repeats": 2,
        "optimizer": {"n": 100000, "k": 1, "schedule": "constant"}})
    out = tmp_path / "out"
    start = time.perf_counter()
    code = cli.main(["run", "--config", cfg, "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "at n = 100000, expected 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "diagnose", "gen-data"])
def test_output_path_under_a_file_is_config_error(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq", "repeats": 2, "optimizer": {"k": 4, "n": 2}})
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code = cli.main([command, "--config", cfg, "--out", str(blocker / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_theory_subcommand_feasible(tmp_path, capsys):
    constants = write_json(tmp_path / "c.json", LQ_CONSTANTS)
    code = cli.main(["theory", "--constants", constants, "--json"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "rho" in out and "kmax_tracking" in out and "hsgd_gap_bound[20]" in out
    # The open-interval reading is informational and must not fail the run.
    assert "info-fail" in out


def test_theory_subcommand_infeasible_B(tmp_path, capsys):
    constants = dict(LQ_CONSTANTS)
    constants["B"] = 0.01  # below the noise floor sigma^2/(2 mu)
    path = write_json(tmp_path / "c.json", constants)
    code = cli.main(["theory", "--constants", path])
    out = capsys.readouterr().out
    assert code == cli.EXIT_FEASIBILITY
    assert "check B > sigma^2/2mu" in out and "FAIL" in out
    # other calculators still evaluated
    assert "eps1" in out


def theory_lines(out):
    """The ``theory`` report's lines as {key: value}."""
    return dict(line.rsplit(None, 1) for line in out.splitlines() if line and "[" not in line)


def test_theory_noise_free_degenerate(tmp_path, capsys):
    constants = dict(LQ_CONSTANTS)
    constants["sigma2"] = 0.0
    path = write_json(tmp_path / "c.json", constants)
    code = cli.main(["theory", "--constants", path])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    lines = theory_lines(out)
    assert lines["kmax_tracking"] == "0"
    assert float(lines["noise_floor"]) == 0.0
    assert abs(float(lines["eta_min"]) - (-math.log(0.8))) < 1e-10


def test_theory_unknown_constant_is_config_error(tmp_path):
    path = write_json(tmp_path / "c.json", {**LQ_CONSTANTS, "banana": 1.0})
    assert cli.main(["theory", "--constants", path]) == cli.EXIT_CONFIG


def test_theory_missing_constant_is_config_error(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", {"L": 1.0, "mu": 1.0})
    assert cli.main(["theory", "--constants", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "missing constants" in err and "'sigma2'" in err and "'n'" in err


@pytest.mark.parametrize("payload, named", [
    (5, "got int"),                                  # not an object
    ({**LQ_CONSTANTS, "mu": "x"}, "mu = 'x'"),
    ({**LQ_CONSTANTS, "sigma2": None}, "'sigma2'"),  # null for a required constant
    ({**LQ_CONSTANTS, "k": 2.5}, "k = 2.5"),
    ({**LQ_CONSTANTS, "mu": True}, "mu = True"),
    ({**LQ_CONSTANTS, "n": "20"}, "n = '20'"),
    ({**LQ_CONSTANTS, "delta": float("inf")}, "delta = inf"),
    ({**LQ_CONSTANTS, "rho_tilde": float("nan")}, "rho_tilde = nan"),
    ({**LQ_CONSTANTS, "eta": -100}, "eta must be >= 0, got -100"),  # no schedule takes it
    ({**LQ_CONSTANTS, "n": 0}, "n = 0"),     # the rule of a run's optimizer.n and .k
    ({**LQ_CONSTANTS, "n": -3}, "n = -3"),
    ({**LQ_CONSTANTS, "k": 0}, "k = 0"),
    ({**LQ_CONSTANTS, "L": 10**400}, "L = 1000"),  # an int beyond float range
])
def test_theory_mistyped_constant_is_config_error(tmp_path, capsys, payload, named):
    path = write_json(tmp_path / "c.json", payload)
    assert cli.main(["theory", "--constants", path]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("configuration error: ") and named in err


@pytest.mark.parametrize("changed, failure", [
    ({"alpha": 2.5}, "tracking_epsilons: rho must lie in [0, 1)"),     # rho = -1.5
    ({"rho_tilde": 1.5}, "hsgd_gap_bound: rho_tilde must lie in (0, 1)"),
    ({"rho_tilde": 0}, "hsgd_gap_bound: rho_tilde must lie in (0, 1)"),
    ({"epsilon0": -1}, "linear_rate_schedule_params: epsilon0 must be"),
    ({"mu": 0}, "noise_floor: mu must be positive"),
    ({"L": 20.0}, "alpha <= 1/L"),                                     # alpha = 0.1 > 0.05
])
def test_theory_infeasible_constant_set_is_reported(tmp_path, capsys, changed, failure):
    # Well-formed but infeasible: a report and exit 3, not a configuration error.
    path = write_json(tmp_path / "c.json", {**LQ_CONSTANTS, **changed})
    assert cli.main(["theory", "--constants", path, "--json"]) == cli.EXIT_FEASIBILITY
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("rho ")
    payload = json.loads(out[out.index("\n{") + 1:])
    assert payload["failures"] and any(f.startswith(failure) for f in payload["failures"])


# rho = 1 - alpha is about 1e-10, so rho^40 underflows to 0, and (delta + gamma) / epsilon0
# overflows: C_rho_tilde and eta_min come from logs.
UNDERFLOW_CONSTANTS = {"L": 1, "mu": 1, "sigma2": 0, "delta": 1e300, "gamma": 1e300, "B": 1,
                       "r": 0.5, "alpha": 0.9999999999, "k": 40, "n": 3, "rho_tilde": 0.5,
                       "epsilon0": 1e-300}


def test_theory_underflowing_rho_k_takes_the_schedule_in_logs(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", UNDERFLOW_CONSTANTS)
    assert cli.main(["theory", "--constants", path]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    rho = 1 - UNDERFLOW_CONSTANTS["alpha"]
    log_C = math.log(0.5) - 40 * math.log(rho) + math.log(1e-300) - math.log(2e300)
    lines = theory_lines(out)
    assert float(lines["eta_min"]) == pytest.approx(-(log_C + math.log(0.5)), rel=1e-11)
    assert float(lines["C_rho_tilde"]) == pytest.approx(math.exp(log_C), rel=1e-11)


def test_theory_k_beyond_a_run_configs_bound_is_config_error(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", {**UNDERFLOW_CONSTANTS, "k": 10**400})
    assert cli.main(["theory", "--constants", path]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("configuration error: k * n = 1000") and "steps exceed" in err


def test_theory_underflowing_C_times_rho_tilde_takes_eta_min_in_logs(tmp_path, capsys):
    # C_rho_tilde is the smallest subnormal, and C * rho_tilde rounds to 0.
    path = write_json(tmp_path / "c.json", {**UNDERFLOW_CONSTANTS, "delta": 4e7, "gamma": 0,
                                            "alpha": 0.7, "k": 1, "rho_tilde": 0.3000000000000001})
    assert cli.main(["theory", "--constants", path]) == cli.EXIT_OK
    lines = theory_lines(capsys.readouterr().out)
    assert float(lines["C_rho_tilde"]) == 5e-324
    expected = -(math.log(5e-324) + math.log(0.3000000000000001))
    assert float(lines["eta_min"]) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("name, constants", [("lq", LQ_CONSTANTS), ("underflow", UNDERFLOW_CONSTANTS)])
@pytest.mark.parametrize("flags, suffix", [([], "txt"), (["--json"], "json.txt")])
def test_theory_output_bytes_are_pinned(tmp_path, capsys, name, constants, flags, suffix):
    # The whole report, as text and with --json, byte for byte.
    path = write_json(tmp_path / "c.json", constants)
    assert cli.main(["theory", "--constants", path, *flags]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode() == (Path(__file__).with_name("theory_output") / f"{name}.{suffix}").read_bytes()


@pytest.mark.parametrize("command", ["diagnose", "gen-data"])
def test_repeats_is_not_a_flag_of_diagnose_or_gen_data(tmp_path, capsys, command):
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq"})
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--repeats", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --repeats 3" in capsys.readouterr().err


def test_run_unusable_threshold_metric_is_config_error(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "moons-logistic", "threshold": 0.1, "threshold_metric": "gap"})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_oversized_fstar_grid_is_config_error(tmp_path, capsys, command):
    # (hi - lo) / step = 2e600 cells, above FSTAR_GRID_CELLS; numpy refuses this grid at once.
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "toy-erf", "problem": {"fstar_grid": {"lo": -1e300, "hi": 1e300,
                                                            "step": 1e-300}}})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "problem.fstar_grid" in captured.err and "10,000,000" in captured.err
    assert not out.exists()


HUGE_INT_GRID = {"experiment": "toy-erf",
                 "problem": {"fstar_grid": {"lo": 10**400, "hi": 10**400 + 1, "step": 0.5}}}
HUGE_OFFSETS = {"experiment": "synthetic-lq", "dataset": {"offset_std": 10**400}}
# hi + step / 2, the end the grid is built to, overflows to inf.
OVERFLOWING_GRID = {"experiment": "toy-erf",
                    "problem": {"fstar_grid": {"lo": 0, "hi": 1.7e308, "step": 1.7e308}}}
# lo < hi as integers, but both round to the float 1e20: the grid would be empty.
ROUNDING_GRID = {"experiment": "toy-erf",
                 "problem": {"fstar_grid": {"lo": 10**20, "hi": 10**20 + 1, "step": 0.5}}}


@pytest.mark.parametrize("command, raw, named", [
    ("diagnose", HUGE_INT_GRID, "problem.fstar_grid"),
    ("run", HUGE_INT_GRID, "problem.fstar_grid"),
    ("run", HUGE_OFFSETS, "dataset.offset_std"),
    ("gen-data", HUGE_OFFSETS, "dataset.offset_std"),
    ("diagnose", OVERFLOWING_GRID, "problem.fstar_grid"),
    ("run", OVERFLOWING_GRID, "problem.fstar_grid"),
    ("diagnose", ROUNDING_GRID, "problem.fstar_grid"),
    ("run", ROUNDING_GRID, "problem.fstar_grid"),
])
def test_number_outside_float_range_is_config_error(tmp_path, capsys, command, raw, named):
    # Each is a real number that numpy cannot use: building the dataset or the
    # f* grid would raise OverflowError or ValueError, or find the grid empty,
    # leaving --out behind.
    cfg = write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("configuration error: ") and named in captured.err
    assert not out.exists()


@pytest.mark.parametrize("problem, named", [
    ({"L_radius": 1e-300}, "all sampled pairs were coincident"),
    ({"mu": 1e-320}, "from L_tilde = 0.0"),
])
@pytest.mark.parametrize("alpha", [0.1, "auto"])
def test_run_failed_L_estimate_is_config_error(tmp_path, capsys, problem, named, alpha):
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq", "repeats": 2, "problem": problem,
        "optimizer": {"alpha": alpha}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_tiny_curvature_run_estimates_L_without_underflow(tmp_path):
    # At mu = 1e-305 each gradient difference is a normal float whose
    # square underflows; L_tilde must still come out at mu, not 0.
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq", "repeats": 2, "problem": {"mu": 1e-305}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    L_tilde = json.loads((out / "metadata.json").read_text(encoding="utf-8"))["L_tilde"]
    assert abs(L_tilde - 1e-305) <= 1e-6 * 1e-305


def test_internal_key_error_is_not_a_config_error(tmp_path, monkeypatch):
    # Every config key is resolved by from_dict, so a KeyError is a bug, not the user's config.
    def lookup_bug(cfg):
        raise KeyError("internal lookup")

    monkeypatch.setattr(cli.harness, "run_experiment", lookup_bug)
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq"})
    with pytest.raises(KeyError, match="internal lookup"):
        cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("raw", [
    {"experiment": "synthetic-lq", "optimiser": {"k": 3}},    # misspelt section
    {"experiment": "synthetic-lq", "optimizer": {"kk": 3}},   # misspelt key
])
def test_run_unknown_config_key_is_config_error(tmp_path, capsys, raw):
    cfg = write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "unknown config keys" in capsys.readouterr().err
    assert not out.exists()


def test_replaying_pre_sampler_metadata_is_config_error(tmp_path, capsys):
    # A metadata file written before the sampler contract was versioned:
    # its traces came from another minibatch stream, so replay must refuse.
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq", "repeats": 2, "optimizer": {"k": 4, "n": 2}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    meta = json.loads((tmp_path / "a" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["sampler"] == SAMPLER
    del meta["sampler"]
    meta["library_version"] = "0.1.0"
    meta["config"]["out_dir"] = str(tmp_path / "b")
    old = write_json(tmp_path / "old-metadata.json", meta)
    assert cli.main(["run", "--config", old]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "no sampler" in err and repr(SAMPLER) in err
    assert not (tmp_path / "b").exists()
    other = write_json(tmp_path / "other-metadata.json", {**meta, "sampler": "floyd-block-v0"})
    assert cli.main(["run", "--config", other]) == cli.EXIT_CONFIG
    assert "'floyd-block-v0'" in capsys.readouterr().err


def test_readme_replay_example(tmp_path, monkeypatch):
    # README "Quick start": run, replay the metadata file into another
    # directory with --out, then cmp the traces.
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "lq.json", {"experiment": "synthetic-lq", "repeats": 20})
    assert cli.main(["run", "--config", "lq.json", "--out", "runs/lq"]) == cli.EXIT_OK
    source = {p.name: p.read_bytes() for p in (tmp_path / "runs" / "lq").iterdir()}
    code = cli.main(["run", "--config", "runs/lq/metadata.json", "--out", "runs/lq-replay"])
    assert code == cli.EXIT_OK
    replay = tmp_path / "runs" / "lq-replay"
    assert (replay / "trace_hsgd.csv").read_bytes() == source["trace_hsgd.csv"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "runs" / "lq").iterdir()} == source
    for name, data in source.items():
        if name != "metadata.json":
            assert (replay / name).read_bytes() == data
    meta = json.loads((replay / "metadata.json").read_text(encoding="utf-8"))
    assert meta["config"]["out_dir"] == "runs/lq-replay"


@pytest.mark.parametrize("flag", [["--repeats", "3"], ["--seed", "5"]])
def test_repeats_or_seed_on_a_metadata_file_is_config_error(tmp_path, capsys, flag):
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "synthetic-lq", "repeats": 2, "optimizer": {"k": 4, "n": 2}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    source = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    meta = str(tmp_path / "a" / "metadata.json")
    capsys.readouterr()
    assert cli.main(["run", "--config", meta, "--out", str(tmp_path / "b"), *flag]) == \
        cli.EXIT_CONFIG
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    assert {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()} == source


def test_package_version_has_one_source():
    # pyproject.toml reads the version from homotopy_opt.__version__.
    from setuptools.config.pyprojecttoml import read_configuration
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is flagged beta
        project = read_configuration(PYPROJECT, expand=True)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == homotopy_opt.__version__


def test_gen_data_subcommand(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "moons-logistic",
                                             "dataset": {"N": 20}})
    out = tmp_path / "moons.csv"
    code = cli.main(["gen-data", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_OK
    assert out.read_text(encoding="utf-8").startswith("x1,x2,y\n")


def test_diagnose_subcommand(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq"})
    code = cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "L_hat" in out
    assert (tmp_path / "d" / "mu_sweep.csv").exists()


@pytest.mark.parametrize("raw", [
    {"optimizer": {"k": "ten"}},       # a string: int() raised ValueError mid-run
    {"repeats": "abc"},
    {"optimizer": {"minibatch": 0}},   # steps_per_epoch divided by zero
    {"threshold": "x"},                # failed after the sgd arm had written its trace
    {"optimizer": {"k": 2.5}},         # ran silently as k = 2
    {"repeats": True},                 # ran silently as one repeat
])
def test_run_mistyped_config_value_is_config_error(tmp_path, capsys, raw):
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq", **raw})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "invalid config values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", ["1.5", "-0.25", "nan"])
def test_diagnose_lambda_outside_unit_interval_is_config_error(tmp_path, capsys, lam):
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "synthetic-lq"})
    out = tmp_path / "d"
    code = cli.main(["diagnose", "--config", cfg, "--homotopy-parameter", lam, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "homotopy parameter must lie in [0, 1]" in captured.err
    assert "error." not in captured.out
    assert not out.exists()


def test_diagnose_reports_a_diverged_multistart_as_an_error_line(tmp_path, capfd):
    # Full-batch descent at 1/L_hat diverges on every sine-mlp restart: the
    # estimate is missing, which the report says, and the command succeeds.
    # numpy's overflow warnings from the descent are not written as well:
    # pytest records warnings instead of printing them, so any RuntimeWarning
    # is raised here, and stderr is checked for what numpy prints directly.
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "sine-mlp", "dataset": {"N": 40},
                                             "problem": {"L_pairs": 50}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")])
    out, err = capfd.readouterr()
    assert "RuntimeWarning" not in err, err
    assert code == cli.EXIT_OK
    assert "error.fstar = every descent restart diverged" in out
    assert "L_hat = " in out and "delta_hat = " in out
    assert (tmp_path / "d" / "diagnostics.txt").read_text(encoding="utf-8") == out


@pytest.mark.parametrize("config, missing", [
    ({"experiment": "toy-erf", "dataset": {"slope": 1e308}}, ["L_hat", "sigma2_hat", "delta_hat"]),
    ({"experiment": "moons-logistic", "dataset": {"noise_std": 1e300}},
     ["L_hat", "sigma2_hat", "delta_hat"]),
    ({"experiment": "sine-mlp", "dataset": {"noise_std": 1e300}}, ["delta_hat"]),
])
def test_estimate_with_no_finite_sample_is_an_error_line(tmp_path, capfd, config, missing):
    # Overflowing data leave every sampled ratio (or variance) NaN. Such an
    # estimate is missing, not 0: diagnose reports it and succeeds, and run
    # names the failed L estimate instead of a flat landscape (L_tilde = 0).
    cfg = write_json(tmp_path / "cfg.json", config)
    code = cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")])
    out, err = capfd.readouterr()
    assert code == cli.EXIT_OK and err == ""
    for key in missing:
        assert f"error.{key} = every sampled " in out
        assert f"\n{key} = " not in "\n" + out
    if "L_hat" in missing:
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out_dir)]) == cli.EXIT_CONFIG
        assert capfd.readouterr().err.splitlines() == [
            "configuration error: cannot estimate L_tilde at lambda = 1: "
            "every sampled gradient-difference ratio is NaN"]
        assert not out_dir.exists()


def test_infinite_estimate_is_an_error_line(tmp_path, capfd):
    # Finite data whose sampled gradient and objective ratios overflow to inf:
    # an infinite maximum is no measured L or delta, so diagnose prints it
    # as an error line, not as a number.
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "toy-erf", "dataset": {"slope": 1e155}})
    code = cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")])
    out, err = capfd.readouterr()
    assert code == cli.EXIT_OK and err == ""
    lines = out.splitlines()
    for key in ("L_hat", "delta_hat"):
        assert f"error.{key} = the sampled maximum inf is not finite" in lines
        assert not [line for line in lines if line.startswith(f"{key} =")]


def test_nonfinite_fstar_is_an_error_line(tmp_path, capfd):
    # Overflowing labels make every grid objective inf: that f* is missing,
    # so diagnose neither prints it nor runs the PL probe or the mu sweep on it.
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "toy-erf", "dataset": {"slope": 1e308}})
    code = cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")])
    out, err = capfd.readouterr()
    assert code == cli.EXIT_OK and err == ""
    lines = out.splitlines()
    assert "error.fstar = the f* table value inf is not finite" in lines
    assert not [line for line in lines if line.startswith(("fstar", "expected_pl_"))]
    assert not (tmp_path / "d" / "mu_sweep.csv").exists()


@pytest.mark.parametrize("command", ["run", "diagnose"])
@pytest.mark.parametrize("raw, message", [
    ({"experiment": "moons-logistic", "dataset": {"N": 41}}, "even dataset.N"),
    ({"experiment": "synthetic-lq",
      "optimizer": {"schedule": "explicit", "explicit": [1, 2], "n": 3}}, "n = 3 entries"),
    ({"experiment": "synthetic-lq", "repeats": 2,
      "optimizer": {"explicit": [1, 2, 3], "k": 4, "n": 3}}, "optimizer.explicit is read only"),
])
def test_cross_field_config_error_leaves_no_directory(tmp_path, capsys, command, raw, message):
    cfg = write_json(tmp_path / "cfg.json", raw)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "diagnose", "gen-data"])
@pytest.mark.parametrize("payload", [[1, 2], "x"])
def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys, command, payload):
    cfg = write_json(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out), "--seed", "3"]) == cli.EXIT_CONFIG
    assert "must be a JSON object" in capsys.readouterr().err
    assert not out.exists()
