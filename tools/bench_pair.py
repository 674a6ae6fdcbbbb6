"""Run the benchmark on a parent and a change in alternated pairs and write the comparison.

    python3 tools/bench_pair.py PARENT CHANGE --out BENCH.json \
        [--workloads erf-fstar moons-seq mlp-batched] [--pairs 10] [--seed 1]
    python3 tools/bench_pair.py --table BENCH.json

PARENT and CHANGE are each a git revision of this repository, exported with
``git archive`` into a temporary directory, or the path of a source tree.
PARENT = CHANGE is the A/A run: the same code on both sides, so each
metric's spread and its pairs won measure the noise floor, and a gain
verdict there is a false one.
Pair i (from 1) runs the command of ``BENCHMARK.json`` with ``--workload W
--seed S --seconds 25 --trace 0`` in both trees with S = seed + i - 1, the parent first in odd
pairs. Each run gives the JSON object on its last stdout line and the ``env``
block of its ``.bench_runs/<W>-seed<S>-trace0/result.json``.

The output holds, per workload: every pair's values, its (attempted,
failed) op counts and ``correct``; per end-to-end metric and side, the
median and quartiles; the pairs each side won (ties count for neither); the
change's median relative to the parent's, whether it is worse by more than
the metric's bound, and whether it is a gain: won in at least nine of ten
pairs, with medians apart by more than the parent's quartile spread. The
pairs split into two blocks, odd and even pair index, with disjoint seeds,
and a verdict holds only when each block's medians give it too (``compare``):
``blocks`` gives each block's spreads, median ratio, pairs won and
verdicts, and a verdict that a block does not give is "drift" instead. A
metric is "unresolved" when the parent's quartile spread, relative to its
median, exceeds the metric's bound, unless every change run beats every
parent run: its pairs cannot tell a move within the bound from noise. The
environment is each side's ``env`` block from its first run. ``src_lines``
gives the line count of each side's ``src/**/*.py``, and ``bytecode`` whether
each side's interpreter ran with bytecode writes off: the
``PYTHONDONTWRITEBYTECODE`` it inherited and its ``sys.flags.dont_write_bytecode``
(``-B`` or that variable). Without bytecode every run compiles its sources,
so ``peak_rss_mb`` and ``setup_s`` then move with the size of ``src/``.

``--table`` prints a written file as a Markdown table, one row per
workload: each metric's cell is "parent median [q1, q3] → change median
[q1, q3], pairs the change won/pairs", with "(worse)" after the cell of a
metric worse than its bound, "(drift)" after a metric's whose blocks do
not agree on its verdict and "(unresolved)" after an unresolved metric's,
and the last column gives the (attempted, failed) ops of each side. A line
after the table gives the ``src/`` line counts, in a file that has them, and
whether each side wrote bytecode ("on") or not ("off"), in a file that has that.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WORKLOADS = ("erf-fstar", "moons-seq", "mlp-batched")
SECONDS = 25


def export(source, into):
    """The tree at ``source``: a directory as it is, else a git revision extracted in ``into``."""
    if Path(source).is_dir():
        return Path(source).resolve()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", source], check=True,
                             capture_output=True).stdout
    tree = Path(tempfile.mkdtemp(dir=into))
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def src_lines(tree):
    """The line count of the ``src/**/*.py`` files of ``tree``."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in Path(tree).glob("src/**/*.py"))


def bytecode(command, tree):
    """The inherited ``PYTHONDONTWRITEBYTECODE`` and the ``dont_write_bytecode`` flag of
    ``command``'s interpreter (the command less its script), run in ``tree``."""
    probe = [*command[:-1], "-c", "import sys; print(bool(sys.flags.dont_write_bytecode))"]
    flag = subprocess.run(probe, cwd=tree, capture_output=True, text=True, check=True).stdout
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "dont_write_bytecode": flag.strip() == "True"}


def run_once(command, tree, workload, seed):
    """One untraced benchmark run in ``tree``: its last-line result plus ``env``, or its error."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = tree / ".bench_runs" / f"{workload}-seed{seed}-trace0" / "result.json"
    result["env"] = json.loads(saved.read_text(encoding="utf-8"))["env"]
    return result


def spread(values):
    """Median and quartiles of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def judge(values, entry):
    """Each side's spread, the pairs each won, the median ratio and the verdicts of ``values``.

    "gain" is a change median better than the parent's by more than the
    parent's quartile spread; "worse_than_bound" a median ratio beyond the
    bound on the wrong side of 1.
    """
    lower = entry["better"] == "lower"
    before, after = [a for a, _ in values], [b for _, b in values]
    parent, change = spread(before), spread(after)
    won = {"parent": sum(a < b if lower else a > b for a, b in values),
           "change": sum(b < a if lower else b > a for a, b in values)}
    ratio = change["median"] / parent["median"] if parent["median"] else None
    return {"parent": parent, "change": change, "won": won, "median_ratio": ratio,
            "gain": (change["median"] - parent["median"]) * (-1 if lower else 1)
            > parent["q3"] - parent["q1"],
            "worse_than_bound": None if ratio is None
            else (ratio - 1 if lower else 1 - ratio) > entry["bound"]}


def compare(pairs, spec):
    """Per end-to-end metric of ``spec``, each side's spread, pairs won and the verdicts.

    ``pairs`` is a list of {"parent": result, "change": result}; a run with
    an error or without the metric leaves its pair out of that metric. The
    pairs also split into two blocks, odd and even pair index (disjoint
    seeds), each judged alone (``judge``). A gain needs the change to win at
    least nine in ten of all pairs, and ``judge``'s gain on all of them and on
    each block; worse needs ``judge``'s worse on all and on each block. A
    verdict of all the pairs that a block does not give is "drift".
    """
    out = {}
    for entry in spec:
        name, lower = entry["name"], entry["better"] == "lower"
        values = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                  if all(name in p[side].get("metrics", {}) for side in SIDES) else None
                  for p in pairs]
        blocks = [[v for v in values[start::2] if v] for start in (0, 1)]
        values = [v for v in values if v]
        if not values:
            continue
        whole = judge(values, entry)
        whole["gain"] = whole["gain"] and 10 * whole["won"]["change"] >= 9 * len(values)
        # Blocks of fewer than two pairs have no quartiles; they agree with no verdict.
        parts = [{"pairs": len(b), **judge(b, entry)} if len(b) > 1 else None for b in blocks]
        held = {key: bool(whole[key]) and all(p and p[key] for p in parts)
                for key in ("gain", "worse_than_bound")}
        before, after = [a for a, _ in values], [b for _, b in values]
        parent = whole["parent"]
        noisy = parent["q3"] - parent["q1"] > entry["bound"] * abs(parent["median"])
        beats = max(after) < min(before) if lower else min(after) > max(before)
        out[name] = {
            "unit": entry["unit"], "better": entry["better"], "bound": entry["bound"],
            "pairs": len(values), "parent": parent, "change": whole["change"],
            "won": whole["won"],
            "relative_change": None if whole["median_ratio"] is None else whole["median_ratio"] - 1,
            "worse_than_bound": None if whole["median_ratio"] is None else held["worse_than_bound"],
            "gain": held["gain"],
            "drift": any(bool(whole[key]) and not held[key] for key in held),
            "blocks": parts,
            "unresolved": noisy and not beats,
        }
    return out


def figure(value):
    """A table number: thousands as k from 10,000, one decimal from 100, else three decimals."""
    if abs(value) >= 10_000:
        return f"{value / 1000:.0f}k"
    return f"{value:.1f}" if abs(value) >= 100 else f"{value:.3f}"


def cell(metric):
    """``parent median [q1, q3] → change median [q1, q3], won/pairs`` of one compared metric."""
    side = [f"{figure(s['median'])} [{figure(s['q1'])}, {figure(s['q3'])}]"
            for s in (metric["parent"], metric["change"])]
    marks = "".join(f" ({mark})" for key, mark in (("worse_than_bound", "worse"),
                                                   ("drift", "drift"),
                                                   ("unresolved", "unresolved"))
                    if metric.get(key))  # drift and unresolved are absent in older files
    return f"{side[0]} → {side[1]}, {metric['won']['change']}/{metric['pairs']}{marks}"


def table(report):
    """The Markdown pair table of a ``report`` as written by this script."""
    workloads = report["workloads"]
    names = list(dict.fromkeys(name for w in workloads.values() for name in w["metrics"]))
    units = {name: m["unit"] for w in workloads.values() for name, m in w["metrics"].items()}
    lines = ["| workload (pairs) | " + " | ".join(f"`{n}` {units[n]}" for n in names)
             + " | ops (attempted, failed) |",
             "| --- " * (len(names) + 2) + "|"]
    for workload, w in workloads.items():
        cells = [cell(w["metrics"][n]) if n in w["metrics"] else "—" for n in names]
        ops = [" or ".join(dict.fromkeys(f"({a}, {f})" for a, f in w["failed_ops"][side]))
               for side in SIDES]
        lines.append(f"| {workload} ({len(w['pairs'])}) | " + " | ".join(cells)
                     + f" | {ops[0]} → {ops[1]} |")
    if "src_lines" in report:  # absent in older files, as is "bytecode"
        line = "`src/` lines: {parent:,} → {change:,}".format(**report["src_lines"])
        if "bytecode" in report:
            line += "; bytecode writes: " + " → ".join(
                "off" if report["bytecode"][side]["dont_write_bytecode"] else "on" for side in SIDES)
        lines += ["", line]
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--out")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--table", metavar="BENCH.json",
                        help="print the pair table of a written file, and run nothing")
    args = parser.parse_args(argv)
    if args.table:
        print(table(json.loads(Path(args.table).read_text(encoding="utf-8"))))
        return 0
    if not (args.parent and args.change and args.out):
        parser.error("PARENT, CHANGE and --out are required unless --table is given")
    with tempfile.TemporaryDirectory() as scratch:
        trees = dict(zip(SIDES, (export(args.parent, scratch), export(args.change, scratch))))
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        report = {"parent": args.parent, "change": args.change, "seconds": SECONDS,
                  "first_seed": args.seed,
                  "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
                  "bytecode": {side: bytecode(spec["command"], tree) for side, tree in trees.items()},
                  "workloads": {}}
        for workload in args.workloads:
            pairs = []
            for i in range(1, args.pairs + 1):
                seed = args.seed + i - 1
                order = SIDES if i % 2 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    run = pair[side] = run_once(spec["command"], trees[side], workload, seed)
                    status = run.get("error") or f"{run['failed']} of {run['attempted']} ops failed"
                    print(f"{workload} pair {i} {side}: {status}", file=sys.stderr, flush=True)
                pairs.append(pair)
            env = {side: next((p[side]["env"] for p in pairs if "env" in p[side]), None)
                   for side in SIDES}
            for pair in pairs:
                for side in SIDES:
                    pair[side].pop("env", None)
            report["workloads"][workload] = {
                "metrics": compare(pairs, spec["end_to_end"]),
                "failed_ops": {side: [[p[side].get("attempted"), p[side].get("failed")]
                                      for p in pairs] for side in SIDES},
                "correct": {side: all(p[side].get("correct") is True for p in pairs)
                            for side in SIDES},
                "env": env, "pairs": pairs,
            }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
