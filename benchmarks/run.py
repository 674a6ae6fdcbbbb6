"""Benchmark entry point: python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1.

Prints the metrics of one workload as readable lines and, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
Exits 1 without a result when the program cannot be measured.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import homobench  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(homobench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workdir = homobench.ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result = homobench.measure(args.workload, homobench.WORKLOADS[args.workload], args.seed,
                                   args.seconds, args.trace, workdir)
    except homobench.BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    homobench.report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
