"""Run the CLI in a parent and a change tree and report how their output files differ.

    python3 tools/output_diff.py PARENT CHANGE [--configs CONFIG ...]

PARENT and CHANGE are each a git revision of this repository or the path of
a source tree, exported as ``tools/bench_pair.py`` exports them. A CONFIG is
an experiment name (its default config), a JSON config file or an inline
JSON object; the default is every experiment's default config, then the
moons-logistic and sine-mlp configs at ``optimizer.k`` 100 that the
benchmark's moons-seq and mlp-batched workloads run. Per config
and side, ``homotopy-opt run`` and ``homotopy-opt diagnose
--homotopy-parameter LAM`` at LAM = 0, 0.5 and 1 run in subprocesses on
the side's ``src``, each into its own relative out dir (so
``metadata.json`` records the same ``out_dir`` on both sides), and each
command's stdout, stderr and exit code are kept beside its files as
``stdout.txt``, ``stderr.txt`` and ``exit.txt``.

Per output file, the report prints "byte-equal"; else, for a CSV whose
header and row count agree, each column's largest absolute and relative
difference and the rows where it differs; else the differing lines of the
text or JSON file. A file that one side lacks is named. The exit code is 0
when every file is byte-equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pair import SIDES, export  # noqa: E402

EXPERIMENTS = ("toy-erf", "sine-mlp", "moons-logistic", "synthetic-lq")
# Every experiment's default config, then the configs of the benchmark's
# moons-seq and mlp-batched workloads.
DEFAULT_CONFIGS = (*EXPERIMENTS, *(json.dumps({"experiment": experiment, "optimizer": {"k": 100}})
                                   for experiment in ("moons-logistic", "sine-mlp")))
LAMBDAS = (0.0, 0.5, 1.0)


def parse_config(spec):
    """(label, config) of an experiment name, an inline JSON object or a JSON config file."""
    if spec.lstrip().startswith("{"):
        config = json.loads(spec)
    elif Path(spec).is_file():
        config = json.loads(Path(spec).read_text(encoding="utf-8"))
    else:
        config = {"experiment": spec}
    label = "-".join([config.get("experiment", "config"),
                      *(f"{key}{value}" for section in ("dataset", "optimizer", "problem")
                        for key, value in sorted(config.get(section, {}).items()))])
    return label, config


def commands():
    """(out dir, command, arguments after ``--out``) of ``run`` and each ``diagnose``."""
    return [("run", "run", [])] + [
        (f"diagnose-{lam:g}", "diagnose", ["--homotopy-parameter", str(lam)]) for lam in LAMBDAS]


def run_commands(tree, config, where):
    """Each command on ``config`` with ``tree``'s sources, its out dir under ``where``."""
    where.mkdir(parents=True)
    (where / "config.json").write_text(json.dumps(config), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for out, command, args in commands():
        proc = subprocess.run([sys.executable, "-m", "homotopy_opt.cli", command, "--config",
                               "config.json", "--out", out, *args],
                              cwd=where, env=env, capture_output=True, text=True)
        (where / out).mkdir(exist_ok=True)
        for name, text in (("stdout.txt", proc.stdout), ("stderr.txt", proc.stderr),
                           ("exit.txt", f"{proc.returncode}\n")):
            (where / out / name).write_text(text, encoding="utf-8")


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def column_differences(parent, change):
    """Per column of two CSV texts with the same header and row count, its differences, else None.

    A column's entry is (rows that differ, largest absolute and relative
    difference); a pair with a non-number, a NaN or an infinity counts as inf.
    """
    a, b = ([line.split(",") for line in text.splitlines()] for text in (parent, change))
    if len(a) != len(b) or a[0] != b[0] or any(len(x) != len(y) for x, y in zip(a, b)):
        return None
    columns = {}
    for j, name in enumerate(a[0]):
        rows, most_abs, most_rel = 0, 0.0, 0.0
        for x, y in ((row_a[j], row_b[j]) for row_a, row_b in zip(a[1:], b[1:])):
            if x == y:
                continue
            rows += 1
            u, v = _number(x), _number(y)
            if u is None or v is None or not math.isfinite(u - v):
                most_abs = most_rel = math.inf
                continue
            most_abs = max(most_abs, abs(u - v))
            most_rel = max(most_rel, abs(u - v) / (max(abs(u), abs(v)) or 1.0))
        columns[name] = (rows, most_abs, most_rel)
    return columns


def compare_file(name, parent, change):
    """Report lines for one output file, given each side's bytes (None: the side lacks it)."""
    if parent is None or change is None:
        return [f"{name}: only in {'change' if parent is None else 'parent'}"]
    if parent == change:
        return [f"{name}: byte-equal"]
    texts = [side.decode("utf-8", errors="replace") for side in (parent, change)]
    columns = column_differences(*texts) if name.endswith(".csv") else None
    if columns is not None:
        rows = len(texts[0].splitlines()) - 1
        return [f"{name}: differs"] + [
            f"  {col}: equal" if not n else
            f"  {col}: {n} of {rows} rows differ, max abs {most_abs:.3g}, max rel {most_rel:.3g}"
            for col, (n, most_abs, most_rel) in columns.items()]
    diff = difflib.unified_diff(texts[0].splitlines(), texts[1].splitlines(), lineterm="", n=0)
    return [f"{name}: differs"] + [f"  {line}" for line in diff
                                   if line[:1] in "+-" and line[:3] not in ("+++", "---")]


def compare_dirs(parent, change):
    """Report lines for every file under either directory, by relative path."""
    names = sorted({str(p.relative_to(root)) for root in (parent, change)
                    for p in Path(root).rglob("*") if p.is_file()})
    lines = []
    for name in names:
        sides = [Path(root, name) for root in (parent, change)]
        lines += compare_file(name, *(p.read_bytes() if p.is_file() else None for p in sides))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--configs", nargs="+", default=list(DEFAULT_CONFIGS))
    args = parser.parse_args(argv)
    equal = True
    with tempfile.TemporaryDirectory() as scratch:
        trees = dict(zip(SIDES, (export(args.parent, scratch), export(args.change, scratch))))
        for i, (label, config) in enumerate(map(parse_config, args.configs)):
            for side, tree in trees.items():
                print(f"{label}: running {side}", file=sys.stderr, flush=True)
                run_commands(tree, config, Path(scratch, "out", side, str(i)))
            lines = compare_dirs(*(Path(scratch, "out", side, str(i)) for side in SIDES))
            equal = equal and all(line.endswith(": byte-equal") for line in lines
                                  if not line.startswith("  "))
            print(f"## {label}\n" + "\n".join(lines), flush=True)
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
