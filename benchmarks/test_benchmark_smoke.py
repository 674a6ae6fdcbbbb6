"""Smoke test of the benchmark itself, at a tiny size."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import homobench

SPEC = json.loads(homobench.SPEC_PATH.read_text(encoding="utf-8"))
TINY_MOONS = {"experiment": "moons-logistic", "repeats": 2, "dataset": {"N": 60},
              "optimizer": {"k": 6, "n": 2}}
TINY_ERF = {"experiment": "toy-erf", "repeats": 2, "optimizer": {"k": 3, "n": 4},
            "problem": {"fstar_grid": {"lo": -10.0, "hi": 10.0, "step": 0.01}}}
# Moons never diverges: its logistic gradient saturates. The MLP does.
DIVERGING = {"experiment": "sine-mlp", "repeats": 2, "dataset": {"N": 40},
             "optimizer": {"alpha": 1e150, "k": 16, "n": 2}}


def printed(result, capsys):
    homobench.report(result)
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics_printed(entries, lines, final):
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == {m["name"] for m in entries}
    for m in entries:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
        pattern = rf"^{re.escape(m['name'])} +\S+ {re.escape(m['unit'])} +\d+"
        assert any(re.match(pattern, line) for line in lines), m["name"]


def test_failed_op_is_counted_and_not_timed(tmp_path, capsys):
    result = homobench.measure("tiny-moons", TINY_MOONS, seed=3, seconds=0, trace=0,
                               workdir=tmp_path / "run", inject=DIVERGING, setup_repeats=1)
    lines, final = printed(result, capsys)
    assert_metrics_printed(SPEC["end_to_end"], lines, final)
    ops = {op["label"]: op for op in result["ops"]}
    assert not ops["run#inject"]["ok"] and not ops["run#inject"]["wrong"]
    assert ops["run#0-replay"]["ok"], ops["run#0-replay"]["failure"]
    attempted = len(result["ops"])
    assert (final["attempted"], final["failed"], final["correct"]) == (attempted, 1, True)
    ratio = rf"^ops_failed_ratio +{1 / attempted:.6g} ratio +{attempted} "
    assert any(re.match(ratio, line) for line in lines)
    timed = [op for op in result["ops"] if op["kind"] == "run" and op["ok"]]
    assert result["metrics"]["run_s"]["samples"] == len(timed) == 2


def test_traced_run_reports_every_layer_metric(tmp_path, capsys):
    result = homobench.measure("tiny-erf", TINY_ERF, seed=3, seconds=0, trace=1,
                               workdir=tmp_path / "run", setup_repeats=1)
    lines, final = printed(result, capsys)
    assert_metrics_printed(SPEC["per_layer"], lines, final)
    assert result["absent"] == []
    assert final["correct"] and final["failed"] == 0
    traced = next(op for op in result["ops"] if op["label"] == homobench.TRACED_RUN)
    assert abs(sum(result["run_phases"].values()) - traced["wall_s"]) < 1e-6


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(homobench.SPEC_PATH, tmp_path)
    shutil.copytree(Path(homobench.__file__).parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "moons-seq",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
