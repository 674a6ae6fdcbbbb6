"""The pair driver's statistics and verdicts on canned results; no benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", PATH)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

SPEC = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def result(**values):
    return {"metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}


def pairs(parent, change, name="run_s"):
    return [{"parent": result(**{name: a}), "change": result(**{name: b})}
            for a, b in zip(parent, change)]


def test_spread_is_the_median_and_inclusive_quartiles():
    assert bench_pair.spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}


def test_a_clear_lower_is_better_gain():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.80, 0.81, 0.79, 0.82, 0.80, 1.05, 0.78, 0.80, 0.81, 0.79]
    m = bench_pair.compare(pairs(parent, change), SPEC)["run_s"]
    assert m["pairs"] == 10 and m["won"] == {"parent": 1, "change": 9}
    assert m["change"]["median"] == pytest.approx(0.80)
    assert m["relative_change"] == pytest.approx(-0.2)
    assert m["gain"] is True and m["worse_than_bound"] is False


def test_ties_count_for_neither_side_and_spread_blocks_a_gain():
    parent = [1.0, 1.0, 2.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [1.0, 0.9, 1.9, 1.9, 0.9, 1.9, 0.9, 1.9, 0.9, 1.9]
    m = bench_pair.compare(pairs(parent, change), SPEC)["run_s"]
    assert m["won"] == {"parent": 0, "change": 9}
    # Medians 1.5 and 1.4 are closer than the parent's quartile spread of 1.0.
    assert m["gain"] is False


def test_higher_is_better_regression_beyond_the_bound():
    parent = [100.0] * 10
    change = [70.0] * 10
    m = bench_pair.compare(pairs(parent, change, "steps_per_s"), SPEC)["steps_per_s"]
    assert m["won"] == {"parent": 10, "change": 0}
    assert m["relative_change"] == pytest.approx(-0.3)
    assert m["worse_than_bound"] is True and m["gain"] is False


def test_a_failed_run_leaves_its_pair_out():
    canned = pairs([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    canned[1]["change"] = {"error": "benchmark error: every run op failed"}
    metrics = bench_pair.compare(canned, SPEC)
    assert metrics["run_s"]["pairs"] == 2 and "steps_per_s" not in metrics


def test_table_prints_each_workloads_cells_and_ops():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.80, 0.81, 0.79, 0.82, 0.80, 1.05, 0.78, 0.80, 0.81, 0.79]
    erf = pairs(parent, change)
    for p, a, b in zip(erf, parent, change):
        p["parent"]["metrics"]["steps_per_s"] = {"value": 1e6 * a}
        p["change"]["metrics"]["steps_per_s"] = {"value": 1e6 * b}
    moons = pairs([2.0] * 4, [2.5] * 4)
    report = {"workloads": {
        "erf-fstar": {"metrics": bench_pair.compare(erf, SPEC), "pairs": erf,
                      "failed_ops": {"parent": [[8, 0]] * 10, "change": [[8, 0]] * 10}},
        "moons-seq": {"metrics": bench_pair.compare(moons, SPEC), "pairs": moons,
                      "failed_ops": {"parent": [[5, 0]] * 4, "change": [[5, 0], [5, 1]] * 2}},
    }}
    assert bench_pair.table(report).splitlines() == [
        "| workload (pairs) | `run_s` s | `steps_per_s` 1/s | ops (attempted, failed) |",
        "| --- | --- | --- | --- |",
        "| erf-fstar (10) | 1.000 [0.982, 1.018] → 0.800 [0.792, 0.810], 9/10"
        " | 1000k [982k, 1018k] → 800k [792k, 810k], 1/10 | (8, 0) → (8, 0) |",
        "| moons-seq (4) | 2.000 [2.000, 2.000] → 2.500 [2.500, 2.500], 0/4 | —"
        " | (5, 0) → (5, 0) or (5, 1) |",
    ]


def test_a_parent_spread_beyond_the_bound_is_unresolved():
    # Quartiles 0.8 and 1.2 around a median of 1.0: a 40% spread, above the 0.25 bound.
    parent = [0.8, 1.2, 0.8, 1.2, 1.0, 0.8, 1.2, 1.0, 0.8, 1.2]
    overlapping = bench_pair.compare(pairs(parent, [1.1] * 10), SPEC)["run_s"]
    assert overlapping["parent"] == {"median": 1.0, "q1": 0.8, "q3": 1.2}
    assert overlapping["unresolved"] is True and overlapping["worse_than_bound"] is False
    # Every change run below every parent run resolves it, in either direction of better.
    assert bench_pair.compare(pairs(parent, [0.7] * 10), SPEC)["run_s"]["unresolved"] is False
    higher = bench_pair.compare(pairs(parent, [1.3] * 10, "steps_per_s"), SPEC)["steps_per_s"]
    assert higher["unresolved"] is False
    # A spread within the bound is resolved whatever the change's runs.
    tight = bench_pair.compare(pairs([1.0, 1.1] * 5, [1.2, 0.9] * 5), SPEC)["run_s"]
    assert tight["unresolved"] is False
    report = {"workloads": {"erf-fstar": {
        "metrics": {"run_s": overlapping}, "pairs": [{}] * 10,
        "failed_ops": {"parent": [[8, 0]] * 10, "change": [[8, 0]] * 10}}}}
    assert bench_pair.table(report).splitlines()[2] == (
        "| erf-fstar (10) | 1.000 [0.800, 1.200] → 1.100 [1.100, 1.100], 4/10 (unresolved)"
        " | (8, 0) → (8, 0) |")
    # A file written before the key existed reads as resolved.
    del overlapping["unresolved"]
    assert "(unresolved)" not in bench_pair.table(report)


def test_a_metric_worse_than_its_bound_is_marked_worse():
    # 0.184 -> 0.240 s is +30%, beyond the 0.25 bound; 0.184 -> 0.220 s is within it.
    worse = bench_pair.compare(pairs([0.184] * 10, [0.240] * 10), SPEC)["run_s"]
    assert worse["relative_change"] == pytest.approx(0.3043, abs=1e-4)
    assert worse["worse_than_bound"] is True and worse["unresolved"] is False
    within = bench_pair.compare(pairs([0.184] * 10, [0.220] * 10), SPEC)["run_s"]
    assert within["worse_than_bound"] is False
    # Worse and unresolved at once: a 40% parent spread, and a median 30% above it.
    noisy = bench_pair.compare(pairs([0.8, 1.2, 0.8, 1.2, 1.0] * 2, [1.3] * 10), SPEC)["run_s"]
    assert noisy["worse_than_bound"] is True and noisy["unresolved"] is True
    assert bench_pair.cell(within) == "0.184 [0.184, 0.184] → 0.220 [0.220, 0.220], 0/10"
    report = {"workloads": {workload: {
        "metrics": {"run_s": metric}, "pairs": [{}] * 10,
        "failed_ops": {"parent": [[5, 0]] * 10, "change": [[5, 0]] * 10}}
        for workload, metric in (("moons-seq", worse), ("erf-fstar", noisy))}}
    assert bench_pair.table(report).splitlines()[2:] == [
        "| moons-seq (10) | 0.184 [0.184, 0.184] → 0.240 [0.240, 0.240], 0/10 (worse)"
        " | (5, 0) → (5, 0) |",
        "| erf-fstar (10) | 1.000 [0.800, 1.200] → 1.300 [1.300, 1.300], 0/10 (worse) (unresolved)"
        " | (5, 0) → (5, 0) |",
    ]


def test_figures_by_magnitude():
    assert [bench_pair.figure(v) for v in (0.0612, 117.66, 625344.4)] == ["0.061", "117.7", "625k"]


def test_src_lines_counts_each_trees_python_sources(tmp_path):
    trees = {}
    for side, files in (("parent", {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/b.py": "z = 3\n"}),
                        ("change", {"src/pkg/a.py": "x = 1\n", "src/pkg/data.txt": "1\n2\n",
                                    "tests/test_a.py": "assert True\n"})):
        for name, text in files.items():
            path = tmp_path / side / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        trees[side] = bench_pair.src_lines(tmp_path / side)
    assert trees == {"parent": 3, "change": 1}
    moons = pairs([2.0] * 4, [2.5] * 4)
    report = {"src_lines": {"parent": 2523, "change": 2498}, "workloads": {
        "moons-seq": {"metrics": bench_pair.compare(moons, SPEC), "pairs": moons,
                      "failed_ops": {"parent": [[5, 0]] * 4, "change": [[5, 0]] * 4}}}}
    assert bench_pair.table(report).splitlines()[-2:] == ["", "`src/` lines: 2,523 → 2,498"]
    # A file written before the key existed prints the table alone.
    del report["src_lines"]
    assert bench_pair.table(report).splitlines()[-1].startswith("| moons-seq (4) |")


def test_bytecode_writes_are_recorded_per_side_and_printed_on_the_src_line(tmp_path, monkeypatch):
    command = [sys.executable, "benchmarks/run.py"]
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pair.bytecode(command, tmp_path) == {"PYTHONDONTWRITEBYTECODE": "1",
                                                      "dont_write_bytecode": True}
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pair.bytecode(command, tmp_path) == {"PYTHONDONTWRITEBYTECODE": None,
                                                      "dont_write_bytecode": False}
    assert bench_pair.bytecode([sys.executable, "-B", "run.py"], tmp_path)["dont_write_bytecode"]
    moons = pairs([2.0] * 4, [2.5] * 4)
    report = {"src_lines": {"parent": 2557, "change": 2567},
              "bytecode": {"parent": {"PYTHONDONTWRITEBYTECODE": "1", "dont_write_bytecode": True},
                           "change": {"PYTHONDONTWRITEBYTECODE": None,
                                      "dont_write_bytecode": False}},
              "workloads": {"moons-seq": {
                  "metrics": bench_pair.compare(moons, SPEC), "pairs": moons,
                  "failed_ops": {"parent": [[5, 0]] * 4, "change": [[5, 0]] * 4}}}}
    assert bench_pair.table(report).splitlines()[-1] == (
        "`src/` lines: 2,557 → 2,567; bytecode writes: off → on")
    # A file written before the key existed prints the line counts alone.
    del report["bytecode"]
    assert bench_pair.table(report).splitlines()[-1] == "`src/` lines: 2,557 → 2,567"


def test_a_verdict_must_hold_in_both_blocks_or_it_is_drift():
    # Odd pairs (indices 0, 2, ...) and even pairs form the blocks.
    steady = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    both = bench_pair.compare(pairs(steady, [0.8] * 10), SPEC)["run_s"]
    assert both["gain"] is True and both["drift"] is False
    assert [b["pairs"] for b in both["blocks"]] == [5, 5]
    assert [b["median_ratio"] for b in both["blocks"]] == [pytest.approx(0.8)] * 2
    assert [b["won"] for b in both["blocks"]] == [{"parent": 0, "change": 5}] * 2
    # The change wins all ten pairs and the medians 1.0 -> 0.8 clear the whole
    # run's spread, but the even block's 1.0 -> 0.99 is inside its own.
    parent = [1.0, 1.0, 1.0, 1.4, 1.0, 0.7, 1.0, 1.2, 1.0, 0.9]
    change = [0.8, 0.99, 0.8, 1.39, 0.8, 0.69, 0.8, 1.19, 0.8, 0.89]
    split = bench_pair.compare(pairs(parent, change), SPEC)["run_s"]
    assert split["won"]["change"] == 10 and split["relative_change"] == pytest.approx(-0.2)
    assert [b["gain"] for b in split["blocks"]] == [True, False]
    assert split["gain"] is False and split["drift"] is True
    # +40% in all pairs and in the odd block, +10% in the even one.
    slower = [1.4, 1.1, 1.4, 1.1, 1.4, 1.4, 1.4, 1.1, 1.4, 1.4]
    worse = bench_pair.compare(pairs(steady, slower), SPEC)["run_s"]
    assert worse["relative_change"] == pytest.approx(0.4)
    assert [b["worse_than_bound"] for b in worse["blocks"]] == [True, False]
    assert worse["worse_than_bound"] is False and worse["drift"] is True
    # No verdict at all is no drift.
    assert bench_pair.compare(pairs(steady, [1.05] * 10), SPEC)["run_s"]["drift"] is False
    report = {"workloads": {"moons-seq": {
        "metrics": {"run_s": worse}, "pairs": [{}] * 10,
        "failed_ops": {"parent": [[5, 0]] * 10, "change": [[5, 0]] * 10}}}}
    assert bench_pair.table(report).splitlines()[2] == (
        "| moons-seq (10) | 1.000 [1.000, 1.000] → 1.400 [1.175, 1.400], 0/10 (drift)"
        " | (5, 0) → (5, 0) |")
    # A file written before the key existed marks no drift.
    del worse["drift"]
    assert "(drift)" not in bench_pair.table(report)
