"""Command-line interface: subcommands and exit codes."""

import json

import pytest

from homotopy_opt import cli
from homotopy_opt.core import SAMPLER

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


def test_theory_noise_free_degenerate(tmp_path, capsys):
    constants = dict(LQ_CONSTANTS)
    constants["sigma2"] = 0.0
    path = write_json(tmp_path / "c.json", constants)
    code = cli.main(["theory", "--constants", path])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    lines = dict(
        (l.split(None, 1)[0], l.split(None, 1)[1].strip()) for l in out.splitlines() if l)
    assert lines["kmax_tracking"] == "0"
    assert float(lines["noise_floor"]) == 0.0
    import math
    assert abs(float(lines["eta_min"]) - (-math.log(0.8))) < 1e-10


def test_theory_unknown_constant_is_config_error(tmp_path):
    path = write_json(tmp_path / "c.json", {**LQ_CONSTANTS, "banana": 1.0})
    assert cli.main(["theory", "--constants", path]) == cli.EXIT_CONFIG


def test_theory_missing_constant_is_config_error(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", {"L": 1.0, "mu": 1.0})
    assert cli.main(["theory", "--constants", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "missing constants" in err and "'sigma2'" in err and "'n'" in err


def test_run_unusable_threshold_metric_is_config_error(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "experiment": "moons-logistic", "threshold": 0.1, "threshold_metric": "gap"})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert not out.exists()


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


def test_diagnose_reports_a_diverged_multistart_as_an_error_line(tmp_path, capsys):
    # Full-batch descent at 1/L_hat diverges on every sine-mlp restart: the
    # estimate is missing, which the report says, and the command succeeds.
    cfg = write_json(tmp_path / "cfg.json", {"experiment": "sine-mlp", "dataset": {"N": 40},
                                             "problem": {"L_pairs": 50}})
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(["diagnose", "--config", cfg, "--out", str(tmp_path / "d")])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "error.fstar = every descent restart diverged" in out
    assert "L_hat = " in out and "delta_hat = " in out
    assert (tmp_path / "d" / "diagnostics.txt").read_text(encoding="utf-8") == out


@pytest.mark.parametrize("command", ["run", "diagnose"])
@pytest.mark.parametrize("raw, message", [
    ({"experiment": "moons-logistic", "dataset": {"N": 41}}, "even dataset.N"),
    ({"experiment": "synthetic-lq",
      "optimizer": {"schedule": "explicit", "explicit": [1, 2], "n": 3}}, "n = 3 entries"),
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
