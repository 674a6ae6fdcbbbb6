"""The output differ's file report on canned output directories; no CLI runs."""

import importlib.util
import json
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "tools" / "output_diff.py"
spec = importlib.util.spec_from_file_location("output_diff", PATH)
output_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_diff)

HEADER = "epoch,lambda,mean_objective,std_objective,mean_gap,grad_evals\n"


def write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_each_file_is_byte_equal_or_reports_its_differences(tmp_path):
    same = {"run/trace_sgd_error.csv": HEADER + "0,1,0.5,0,,0\n", "run/exit.txt": "0\n"}
    parent = write(tmp_path / "parent", {
        **same,
        "run/trace_sgd.csv": HEADER + "0,1,0.69314718055994529,0,,0\n1,1,0.25,0.125,,20\n",
        "diagnose-1/diagnostics.txt": "L_hat = 2.5\nfstar = 0.125\n",
        "run/report.json": json.dumps({"speedup": 2.0, "threshold": 0.1}, indent=2),
        "run/old.csv": "a\n1\n"})
    change = write(tmp_path / "change", {
        **same,
        "run/trace_sgd.csv": HEADER + "0,1,0.69314718055994529,0,,0\n"
                                      "1,1,0.25000000000000006,nan,,20\n",
        "diagnose-1/diagnostics.txt": "L_hat = 2.5\nfstar = 0.12500000000000003\n",
        "run/report.json": json.dumps({"speedup": 2.0, "threshold": 0.1}, indent=2)})
    assert output_diff.compare_dirs(parent, change) == [
        "diagnose-1/diagnostics.txt: differs",
        "  -fstar = 0.125",
        "  +fstar = 0.12500000000000003",
        "run/exit.txt: byte-equal",
        "run/old.csv: only in parent",
        "run/report.json: byte-equal",
        "run/trace_sgd.csv: differs",
        "  epoch: equal",
        "  lambda: equal",
        "  mean_objective: 1 of 2 rows differ, max abs 5.55e-17, max rel 2.22e-16",
        "  std_objective: 1 of 2 rows differ, max abs inf, max rel inf",
        "  mean_gap: equal",
        "  grad_evals: equal",
        "run/trace_sgd_error.csv: byte-equal",
    ]


def test_a_csv_of_another_shape_is_diffed_by_lines():
    lines = output_diff.compare_file("mu_sweep.csv", b"w,mu_hat\n0,1\n", b"w,mu_hat\n0,1\n1,2\n")
    assert lines == ["mu_sweep.csv: differs", "  +1,2"]
    assert output_diff.compare_file("x.csv", None, b"a\n") == ["x.csv: only in change"]


def test_configs_are_names_files_or_inline_objects(tmp_path):
    path = tmp_path / "lq.json"
    path.write_text('{"experiment": "synthetic-lq", "repeats": 4}', encoding="utf-8")
    assert output_diff.parse_config("toy-erf") == ("toy-erf", {"experiment": "toy-erf"})
    assert output_diff.parse_config(str(path)) == (
        "synthetic-lq", {"experiment": "synthetic-lq", "repeats": 4})
    inline = '{"experiment": "moons-logistic", "optimizer": {"k": 100}}'
    assert output_diff.parse_config(inline) == (
        "moons-logistic-k100", {"experiment": "moons-logistic", "optimizer": {"k": 100}})
    assert [out for out, _, _ in output_diff.commands()] == [
        "run", "diagnose-0", "diagnose-0.5", "diagnose-1"]


def test_default_configs_are_the_experiments_and_the_benchmark_runs():
    labels = [output_diff.parse_config(spec)[0] for spec in output_diff.DEFAULT_CONFIGS]
    assert labels == ["toy-erf", "sine-mlp", "moons-logistic", "synthetic-lq",
                      "moons-logistic-k100", "sine-mlp-k100"]
