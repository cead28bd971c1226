"""Command-line front end: fit, bootstrap, simulate, gen and curve dumps.

Each cmd_* function returns the result dict of its command, or None for gen
and curve, which write CSV.  main wraps a result in the one JSON envelope
that fit, bootstrap and simulate share: schema_version, command, the
resolved configuration and result.  Identical inputs give byte-identical
output (wall-clock timings are kept out of the JSON).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .copula import theta_from_tau
from .data import Dataset, _check_count, load_csv, pool_risks, stratify
from .errors import DataError, EstimationError
from .estimators import (
    FitResult2SE,
    FitResult3SE,
    fit_2se,
    fit_3se,
    three_stage_point,
    two_stage_point,
)
from .cge import CURVE_OVERFLOW, curves, sorted_table
from .inference import bootstrap
from .marginals import FAMILIES, AftModel
from .simulate import DgpSpec, generate_dataset, monte_carlo

SCHEMA_VERSION = 1

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_ESTIMATION = 4

METHODS = ("3se-aft", "3se-ph", "2se")


def _parse_z_cols(text):
    if text is None:
        return None
    text = text.strip()
    if not text:
        return []
    names = [c.strip() for c in text.split(",")]
    if "" in names:
        raise ValueError(f"--z-cols has an empty column name: {text!r}")
    return names


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


def _load_dataset(args) -> Dataset:
    ds = load_csv(
        args.input,
        x_col=args.x_col,
        delta_col=args.delta_col,
        z_cols=_parse_z_cols(args.z_cols),
    )
    return pool_risks(ds, args.target_risk)


def _method(args, point: bool = False):
    """The fit that --method names, or with point=True its flat parameter
    view, with the family and model kind bound; fit, bootstrap and simulate
    all take their estimator from here."""
    if args.method != "3se-aft" and args.family != "weibull":
        # 3se-ph fits a weibull baseline and 2se no parametric family
        raise ValueError(f"--family {args.family} applies only to --method 3se-aft, "
                         f"not {args.method}")
    if args.method == "2se":
        return two_stage_point if point else fit_2se
    ph = args.method == "3se-ph"
    return functools.partial(three_stage_point if point else fit_3se,
                             family="weibull" if ph else args.family,
                             model_kind="ph" if ph else "aft")


def cmd_fit(args) -> dict:
    result: FitResult3SE | FitResult2SE = _method(args)(_load_dataset(args))
    if isinstance(result, FitResult3SE):
        model = result.model
        params = {"alpha": model.alpha, "beta": model.beta, "sigma": model.sigma}
        extra = {}
    else:
        params = {"beta": result.beta_hat}
        extra = {"x_star": result.x_star, "x_double_star": result.x_double_star}
    return {
        "tau_hat": result.tau_hat,
        "theta_hat": result.theta_hat,
        "params": params,
        "kept_n": result.kept_n,
        "diagnostics": result.diagnostics,
        "objective_trace": result.objective_trace,
        **extra,
    }


def cmd_bootstrap(args) -> dict:
    _check_count("reps", args.reps, 2)
    ds = _load_dataset(args)
    estimator = _method(args, point=True)
    result = bootstrap(
        estimator, ds, args.reps, level=args.level, seed=args.seed, jobs=args.jobs
    )
    if args.replicates_out:
        with open(args.replicates_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(result.param_names)
            writer.writerows(result.replicates.tolist())
    return {
        "param_names": result.param_names,
        "estimate": result.estimate,
        "se": result.se,
        "ci_lower": result.ci_lower,
        "ci_upper": result.ci_upper,
        "level": result.level,
        "n_requested": result.n_requested,
        "n_effective": result.n_effective,
        "n_failed": result.n_failed,
    }


def _dgp_from_args(args) -> DgpSpec:
    beta_t = [args.beta_t] if args.covariate else []
    beta_c = [args.beta_c] if args.covariate else []
    model_t = AftModel(args.family_t, args.alpha_t, beta_t, args.sigma_t)
    model_c = AftModel(args.family_c, args.alpha_c, beta_c, args.sigma_c)
    return DgpSpec(n=args.n, tau=args.tau, model_t=model_t, model_c=model_c, p_z=args.p_z)


def _truth_for(spec: DgpSpec, method: str) -> dict[str, float]:
    truth = {"tau": spec.tau}
    if method != "2se":
        truth["alpha"] = spec.model_t.alpha
        truth["sigma"] = spec.model_t.sigma
    beta = spec.model_t.beta
    if method in ("2se", "3se-ph"):
        # the PH coefficients live on the hazard scale
        beta = spec.model_t.sigma * beta
    for j, bj in enumerate(beta, start=1):
        truth[f"beta{j}"] = float(bj)
    return truth


def cmd_gen(args) -> None:
    spec = _dgp_from_args(args)
    ds = generate_dataset(spec, args.seed)
    header = ",".join(["x", "delta"] + [f"z{j+1}" for j in range(ds.k)])
    # the bytes csv.writer gives: no field needs quoting, rows end in \r\n
    row = "{:.12g},{:d}" + ",{:.12g}" * ds.k
    rows = map(row.format, ds.x.tolist(), ds.delta.tolist(), *ds.z.T.tolist())
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([header, *rows, ""]))


def cmd_simulate(args) -> dict:
    spec = _dgp_from_args(args)
    estimator = _method(args, point=True)
    truth = _truth_for(spec, args.method)
    report = monte_carlo(
        spec, estimator, truth, reps=args.reps, seed=args.seed, jobs=args.jobs
    )
    lines = [
        f"replications: {report.n_completed}/{report.n_requested} "
        f"(failed {report.n_failed}), wall time {report.wall_time_s:.1f}s",
        f"{'parameter':<10} {'truth':>10} {'mean':>10} {'bias^2':>10} {'mse':>10}",
    ]
    for name in truth:
        lines.append(
            f"{name:<10} {truth[name]:>10.4f} {report.mean[name]:>10.4f} "
            f"{report.bias2[name]:>10.5f} {report.mse[name]:>10.5f}"
        )
    sys.stderr.write("\n".join(lines) + "\n")
    return {
        "spec": {**dataclasses.asdict(spec), "theta": spec.theta},
        "truth": report.truth,
        "n_requested": report.n_requested,
        "n_completed": report.n_completed,
        "n_failed": report.n_failed,
        "mean": report.mean,
        "bias2": report.bias2,
        "mse": report.mse,
    }


def cmd_curve(args) -> None:
    ds = _load_dataset(args)
    try:
        taus = [float(t) for t in args.tau_list.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"--tau-list expects comma-separated numbers, "
                         f"got {args.tau_list!r}") from None
    if not taus:
        raise ValueError("--tau-list must contain at least one value")
    thetas = np.array([theta_from_tau(tau) for tau in taus])
    strata = stratify(ds)
    table, _ = sorted_table(ds, strata)
    # every curve is computed before the output is opened, so a bad tau or an
    # overflowing curve leaves no partial file or stdout
    rows = curves(table, thetas)
    failed = np.isnan(rows[:, 0])
    if failed.any():
        raise EstimationError(f"{CURVE_OVERFLOW} (theta = {thetas[np.argmax(failed)]:g})")
    out = sys.stdout if not args.output else open(args.output, "w", newline="", encoding="utf-8")
    try:
        writer = csv.writer(out)
        writer.writerow(["stratum", "tau", "t", "survival"])
        tau_labels = [_shortest(tau) for tau in taus]
        for level, span in zip(strata.levels, table.spans):
            label = ";".join(map(_shortest, level)) or "all"
            for tau_label, row in zip(tau_labels, rows):
                for t, s in zip(table.times[span], row[span]):
                    writer.writerow([label, tau_label, f"{t:.12g}", f"{s:.12g}"])
    finally:
        if args.output:
            out.close()


def _shortest(value: float) -> str:
    """The shortest text that reads back as the same float, without a
    trailing ".0": distinct levels and taus get distinct labels."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _check_output_dirs(args) -> None:
    """Fail before any work if an output path is a directory or its
    directory does not exist, with the error that opening the path would
    give."""
    for path in (getattr(args, "output", None), getattr(args, "replicates_out", None)):
        if not path:
            continue
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--x-col", default="x", help="duration column name")
    parser.add_argument("--delta-col", default="delta", help="risk label column name")
    parser.add_argument(
        "--z-cols",
        default=None,
        help="comma-separated covariate columns (default: auto-detect z1, z2, ...)",
    )
    parser.add_argument(
        "--target-risk",
        type=int,
        default=1,
        help="risk label of interest; all other labels are pooled as censoring",
    )


def _add_method_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=METHODS, default="3se-aft")
    parser.add_argument("--family", choices=FAMILIES, default="weibull")


def _add_dgp_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--tau", type=float, default=0.8, help="Kendall's tau of the DGP")
    parser.add_argument("--p-z", type=float, default=0.3, help="Pr(z = 1)")
    parser.add_argument(
        "--no-covariate",
        dest="covariate",
        action="store_false",
        help="simulate without the binary covariate",
    )
    parser.add_argument("--family-t", choices=FAMILIES, default="weibull")
    parser.add_argument("--alpha-t", type=float, default=1.0)
    parser.add_argument("--beta-t", type=float, default=1.0)
    parser.add_argument("--sigma-t", type=float, default=1.5)
    parser.add_argument("--family-c", choices=FAMILIES, default="weibull")
    parser.add_argument("--alpha-c", type=float, default=1.0)
    parser.add_argument("--beta-c", type=float, default=1.0)
    parser.add_argument("--sigma-c", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coprisk",
        description="Dependent competing risks via the Clayton copula-graphic estimator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a dependence-and-marginal model to a CSV")
    _add_input_options(p_fit)
    _add_method_options(p_fit)
    p_fit.add_argument("--output", default=None, help="JSON output path (default stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_boot = sub.add_parser("bootstrap", help="fit plus nonparametric bootstrap inference")
    _add_input_options(p_boot)
    _add_method_options(p_boot)
    p_boot.add_argument("--reps", type=int, default=200, help="bootstrap replicates")
    p_boot.add_argument("--level", type=float, default=0.95)
    p_boot.add_argument("--seed", type=int, default=0)
    p_boot.add_argument("--jobs", type=int, default=1)
    p_boot.add_argument("--replicates-out", default=None, help="CSV path for the replicate matrix")
    p_boot.add_argument("--output", default=None)
    p_boot.set_defaults(func=cmd_bootstrap)

    p_gen = sub.add_parser("gen", help="write one simulated dataset as CSV")
    _add_dgp_options(p_gen)
    p_gen.add_argument("--output", required=True, help="CSV output path")
    p_gen.set_defaults(func=cmd_gen)

    p_sim = sub.add_parser("simulate", help="Monte Carlo study of an estimator on a design")
    _add_dgp_options(p_sim)
    _add_method_options(p_sim)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.add_argument("--output", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_curve = sub.add_parser("curve", help="dump stratified curves at given tau values")
    _add_input_options(p_curve)
    p_curve.add_argument("--tau-list", required=True, help="comma-separated tau values")
    p_curve.add_argument("--output", default=None, help="CSV output path (default stdout)")
    p_curve.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        result = args.func(args)
        if result is not None:
            _emit({"schema_version": SCHEMA_VERSION, "command": args.command,
                   "config": _config_echo(args), "result": result}, args.output)
        return 0
    except ValueError as exc:
        _error("usage", str(exc))
        return EXIT_USAGE
    except DataError as exc:
        _error("data", str(exc))
        return EXIT_DATA
    except EstimationError as exc:
        _error("estimation", str(exc))
        return EXIT_ESTIMATION
    except OSError as exc:
        # an output path that cannot be written; unreadable input is a DataError
        _error("usage", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
