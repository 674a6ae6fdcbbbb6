"""Command-line front end: run experiments, evaluate theory bounds, diagnose.

Exit codes: 0 success, 2 configuration error, 3 feasibility failure,
4 runtime failure (a diverged arm, or a forked worker that died).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import datasets, harness, theory
from .core import ConfigurationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FEASIBILITY = 3
EXIT_RUNTIME = 4


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_config(args, repeats=None):
    """The config of ``--config`` with ``--out``, ``--seed`` and ``repeats`` applied."""
    return harness.ExperimentConfig.from_dict(_load_json(args.config), out_dir=args.out,
                                              repeats=repeats, master_seed=args.seed)


def cmd_run(args):
    cfg = _load_config(args, args.repeats)
    arms, report = harness.run_experiment(cfg)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if any(a.failed for a in arms.values()):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_theory(args):
    constants = theory.TheoryConstants.from_dict(_load_json(args.constants))
    rho = constants.rho
    lines = []
    failures = []

    def emit(key, value):
        lines.append(f"{key:28s} {value}")

    def evaluate(key, calculate, *args):
        try:
            return calculate(*args)
        except theory.InfeasibleError as exc:  # reported; the other calculators still run
            failures.append(f"{key}: {exc}")
            emit(key, f"infeasible ({exc})")
            return None

    emit("rho", f"{rho:.12g}")
    noise_floor = evaluate("noise_floor", lambda: constants.noise_floor)
    if noise_floor is not None:
        emit("noise_floor", f"{noise_floor:.12g}")
    emit("gamma", f"{constants.gamma:.12g}")
    if noise_floor is not None:
        if constants.B <= noise_floor:
            failures.append("B > sigma^2/(2 mu)")
        emit("check B > sigma^2/2mu", "FAIL" if constants.B <= noise_floor else "pass")
    step_ok = constants.L > 0 and constants.alpha <= 1.0 / constants.L
    if not step_ok:
        failures.append("alpha <= 1/L")
    emit("check alpha <= 1/L", "pass" if step_ok else "FAIL")
    kmax = evaluate("kmax_tracking", theory.kmax_tracking,
                    rho, constants.sigma2, constants.mu, constants.r)
    if kmax is not None:
        emit("kmax_tracking", kmax)
    eps = evaluate("tracking_epsilons", theory.tracking_epsilons, rho, constants.k, constants.sigma2,
                   constants.mu, constants.r, constants.B, constants.delta, constants.gamma)
    if eps is not None:
        emit("eps1", f"{eps.eps1:.12g}")
        emit("eps2", f"{eps.eps2:.12g}")
        emit("eps_tilde", f"{eps.eps_tilde:.12g}" if eps.feasible else f"infeasible ({eps.note})")
        if not eps.feasible:
            failures.append(f"tracking_epsilons: {eps.note}")
    gap_curve = None
    if constants.rho_tilde is not None and constants.epsilon0 is not None:
        params = evaluate("linear_rate_schedule_params", theory.linear_rate_schedule_params,
                          rho, constants.k, constants.rho_tilde, constants.epsilon0,
                          constants.delta, constants.gamma, constants.sigma2, constants.mu,
                          constants.B, constants.r)
        if params is not None:
            emit("C_rho_tilde", f"{params.C_rho_tilde:.12g}")
            emit("eta_min", f"{params.eta_min:.12g}")
            emit("eta_min_main_text_sign", f"{params.eta_min_main_text:.12g}")
            emit("k_min", params.k_min)
            for check in params.report.checks:
                status = "pass" if check.passed else ("info-fail" if "informational" in check.note else "FAIL")
                emit(f"check {check.key}", f"{status}  [{check.requirement}] value={check.value:.12g}")
                if status == "FAIL":
                    failures.append(check.key)
            eta = constants.eta if constants.eta is not None else params.eta_min
            if params.eta_min < float("inf"):  # inf: no schedule exists; NaN: rho out of range
                caps, reachable = theory.schedule_caps(constants.n, eta, params.eps1)
                emit("achievable_lambda_n", f"{min(reachable, 1.0):.12g}")
                if reachable < 1.0:
                    emit("note", "feasible increments sum below 1; lambda = 1 not reachable in n iterations")
        gap_curve = evaluate("hsgd_gap_bound", lambda: [
            theory.hsgd_gap_bound(i, constants.rho_tilde, constants.epsilon0,
                                  constants.sigma2, constants.mu)
            for i in range(constants.n + 1)
        ])
        for i, bound in enumerate(gap_curve or ()):
            emit(f"hsgd_gap_bound[{i}]", f"{bound:.12g}")
    print("\n".join(lines))
    if args.json:
        payload = {"rho": rho, "failures": failures}
        if gap_curve is not None:
            payload["hsgd_gap_bound"] = gap_curve
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_FEASIBILITY if failures else EXIT_OK


def cmd_diagnose(args):
    cfg = _load_config(args)
    est = harness.run_diagnose(cfg, lam=args.homotopy_parameter)
    sys.stdout.write(est.to_text())
    return EXIT_OK


def cmd_gen_data(args):
    cfg = _load_config(args)
    dataset = harness.build_dataset(cfg)
    path = args.out or f"{cfg.experiment}-dataset.csv"
    datasets.dataset_to_csv(dataset, path)
    print(f"wrote {dataset.sample_count} samples to {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="homotopy-opt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out", default=None)
    common.add_argument("--seed", type=int, default=None)

    p_run = sub.add_parser("run", parents=[common], help="run an experiment from a JSON config")
    p_run.add_argument("--repeats", type=int, default=None)
    p_run.set_defaults(fn=cmd_run)

    p_theory = sub.add_parser("theory", help="evaluate bounds for a constants JSON")
    p_theory.add_argument("--constants", required=True)
    p_theory.add_argument("--json", action="store_true")
    p_theory.set_defaults(fn=cmd_theory)

    p_diag = sub.add_parser("diagnose", parents=[common], help="estimate landscape constants")
    p_diag.add_argument("--homotopy-parameter", type=float, default=1.0)
    p_diag.set_defaults(fn=cmd_diagnose)

    p_gen = sub.add_parser("gen-data", parents=[common], help="emit the dataset CSV for a config")
    p_gen.set_defaults(fn=cmd_gen_data)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # A NaN/Inf is reported as an error, not as numpy's warnings; forked workers inherit this.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    except (ConfigurationError, theory.InfeasibleError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:  # NonFiniteError, EstimationError, a worker that died
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
