"""A config fuzzer: ``from_dict``'s verdict on values at their types' edges decides every command.

A config that ``from_dict`` rejects makes ``run``, ``diagnose`` and
``gen-data`` exit 2 with one line and no output; one it accepts with a small
plan makes ``run`` exit 0, or 4 on a diverged arm or a MemoryError. The only
exit 2 of an accepted config is the L_tilde estimate's, which needs the
problem (README, "Reproducibility"). A config it accepts is read-only, and
rebuilds to the same values and plan.
"""

import contextlib
import copy
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homotopy_opt import cli, harness
from homotopy_opt.core import ConfigurationError

# Small runs of each experiment, which the drawn values override.
BASES = {
    "toy-erf": {"dataset": {"N": 20}, "optimizer": {"minibatch": 10, "k": 5, "n": 4}},
    "sine-mlp": {"dataset": {"N": 20}, "optimizer": {"k": 5, "n": 4}},
    "moons-logistic": {"dataset": {"N": 20}, "optimizer": {"minibatch": 5, "k": 5, "n": 4}},
    "synthetic-lq": {"dataset": {"N": 16}, "optimizer": {"minibatch": 4, "k": 5, "n": 4}},
}
# The integer edges up to 10^19, and 10^6 for optimizer.n alone. None lies
# above 10^6 and below 2^60, for the memory an n-entry schedule needs: from_dict
# peaks at about 33 bytes per entry while it builds one, 33 MB at n = 10^6 and
# 33 GB at 10^9. No other key draws 10^6: an L_pairs of 10^6 in a small plan
# would make run draw 2 * 10^6 points of up to 141 coordinates.
INTS = st.one_of(st.integers(-2, 64), st.sampled_from([2**60, 2**63 - 1, 2**63, 10**19]))
STAGES = st.one_of(INTS, st.just(10**6))
OTHERS = st.sampled_from([
    0.0, 0.5, 1.0, -1.0, 1e-308, 5e-324, 1e308, -1e308, True, False, None, "", "x", "auto",
    "sgd", "hsgd", "both", "constant", "exponential", "explicit", "objective", [], [0], [1, 2],
    [1, 2, 3, 4], [1e308, 1e308, 1e308, 1e308], ["x"], {}, {"lo": -1.0, "hi": 1.0, "step": 0.5},
    {"lo": 0, "hi": 1e308, "step": 1e-308},
])


def fuzz_keys(experiment):
    """The VALUE_RULES keys a config of ``experiment`` may set, but out_dir (--out sets it)."""
    record = harness.EXPERIMENTS[experiment]
    known = {f"{section}.{key}" for section in ("dataset", "optimizer", "problem")
             for key in record.defaults[section]}
    known |= {f"{section}.{key}" for section, key in record.seed_salts} | {"optimizer.explicit"}
    return sorted(key for key in harness.VALUE_RULES
                  if key != "out_dir" and ("." not in key or key in known))


@st.composite
def configs(draw):
    experiment = draw(st.sampled_from(sorted(harness.EXPERIMENTS)))
    raw = {"experiment": experiment, "repeats": 2, "problem": {"L_pairs": 20},
           **copy.deepcopy(BASES[experiment])}
    for key in draw(st.lists(st.sampled_from(fuzz_keys(experiment)), min_size=1, max_size=3,
                             unique=True)):
        section, _, name = key.rpartition(".")
        ints = STAGES if key == "optimizer.n" else INTS
        (raw.setdefault(section, {}) if section else raw)[name] = draw(st.one_of(ints, OTHERS))
    return raw


def main(command, config, out):
    """``cli.main`` on ``command``; returns (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a fuzzed alpha's step-size warning
        code = cli.main([command, "--config", str(config), "--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue()


def small(cfg):
    """At most 3 repeats of at most 50 samples, and at most k * n = 50 steps in an arm."""
    return cfg.repeats <= 3 and cfg.dataset["N"] <= 50 and max(cfg.plan.steps.values()) <= 50


# The configs the fuzzer found failing at an earlier build, each of which
# sized an array beyond numpy's index range and exited 1 with numpy's
# ValueError: 2 * L_pairs rows of the L estimate's draws (run), the same past
# an int64 dimension, and an n-entry schedule (from_dict: every command).
L_PAIRS_BEYOND_INDEX = {"experiment": "sine-mlp", "repeats": 2, "problem": {"L_pairs": 2**60},
                        "dataset": {"N": 20}, "optimizer": {"k": 5, "n": 4}}
L_PAIRS_BEYOND_INT64 = {**L_PAIRS_BEYOND_INDEX, "problem": {"L_pairs": 2**63}}
SCHEDULE_BEYOND_INDEX = {"experiment": "toy-erf", "repeats": 2, "problem": {"L_pairs": 20},
                         "dataset": {"N": 20}, "optimizer": {"minibatch": 10, "k": 5, "n": 2**60}}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(configs())
@example(L_PAIRS_BEYOND_INDEX)
@example(L_PAIRS_BEYOND_INT64)
@example(SCHEDULE_BEYOND_INDEX)
def test_fuzzed_config_verdict_holds_on_every_command(raw):
    try:
        with np.errstate(all="ignore"):  # as cli.main judges it: e^(-eta n) may overflow
            cfg = harness.ExperimentConfig.from_dict(raw)
    except ConfigurationError:
        cfg = None
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        config.write_text(json.dumps(raw), encoding="utf-8")
        if cfg is None:
            for command in ("run", "diagnose", "gen-data"):
                code, stdout, stderr = main(command, config, out)
                assert (code, stdout) == (cli.EXIT_CONFIG, ""), (command, stderr)
                assert stderr.startswith("configuration error: ") and stderr.count("\n") == 1
                assert not out.exists(), command
            return
        if not small(cfg):
            return
        code, stdout, stderr = main("run", config, out)
        if code == cli.EXIT_CONFIG:
            assert stderr.startswith(("configuration error: cannot estimate L_tilde",
                                      "configuration error: no finite step-size bound")), stderr
            assert not out.exists()
        elif code == cli.EXIT_RUNTIME and stderr:
            assert stderr.startswith("runtime failure: Unable to allocate"), stderr
        else:
            assert code in (cli.EXIT_OK, cli.EXIT_RUNTIME), stderr
            failures = [arm.get("failure") for arm in json.loads(stdout)["arms"].values()]
            assert (code == cli.EXIT_RUNTIME) == any(failures)
            assert all(f is None or f.startswith("non-finite ") for f in failures), failures


EXPLICIT = {"experiment": "synthetic-lq", "repeats": 2, "problem": {"L_pairs": 20},
            "dataset": {"N": 16}, "optimizer": {"minibatch": 4, "k": 5, "n": 4,
                                                "schedule": "explicit", "explicit": [1, 2, 3, 4]}}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(configs())
@example(EXPLICIT)
def test_an_accepted_config_is_read_only_and_rebuilds_to_its_plan(raw):
    with np.errstate(all="ignore"):
        try:
            cfg = harness.ExperimentConfig.from_dict(raw)
        except ConfigurationError:
            return
        rebuilt = [harness.ExperimentConfig.from_dict(cfg.to_dict()), dataclasses.replace(cfg)]
    plain = cfg.to_dict()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.repeats = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.plan = None
    for section in (getattr(cfg, name) for name in harness.SECTIONS):
        with pytest.raises(TypeError):
            section[next(iter(section))] = 1
    if "fstar_grid" in cfg.problem:
        with pytest.raises(TypeError):
            cfg.problem["fstar_grid"]["step"] = 1.0
    if "explicit" in cfg.optimizer:
        with pytest.raises(TypeError):
            cfg.optimizer["explicit"][0] = 1.0
    # Plain dicts and lists, as metadata.json records them, and nothing was written.
    assert json.loads(json.dumps(plain)) == plain == cfg.to_dict()
    for other in rebuilt:
        assert repr(other.to_dict()) == repr(plain)  # by repr: 8.0 == 8
        assert (other.plan.steps, other.plan.record_every) == (cfg.plan.steps,
                                                               cfg.plan.record_every)
        assert other.plan.schedule.lambdas.tobytes() == cfg.plan.schedule.lambdas.tobytes()
