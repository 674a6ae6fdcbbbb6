"""Set-up phase of one op in a fresh interpreter: import the CLI, build dataset and problem.

Usage: python3 setup_probe.py '<experiment config JSON>'. Prints one JSON
line with the seconds each step took; homotopy_opt must be importable.
"""

import json
import sys
import time

t0 = time.perf_counter()
from homotopy_opt import cli  # noqa: E402

t1 = time.perf_counter()
cfg = cli.harness.ExperimentConfig.from_dict(json.loads(sys.argv[1]))
dataset = cli.harness.build_dataset(cfg)
t2 = time.perf_counter()
cli.harness.build_problem(cfg, dataset)
t3 = time.perf_counter()
print(json.dumps({"cli.import_s": t1 - t0, "datasets.build_s": t2 - t1,
                  "problems.build_s": t3 - t2}))
