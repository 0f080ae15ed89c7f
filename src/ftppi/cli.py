"""Command-line front end.

Every subcommand is a thin adapter: it parses arguments, calls the same
library functions a script would, and serializes the returned report.
Numbers in JSON output are rounded to 12 significant digits so output is
stable across platforms; non-finite values are refused rather than
written.  Library errors exit with status 2 and a single-line JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .allocate import AllocationResult, solve_optimal_allocation
from .core import (
    DEFAULT_SEED,
    FtppiError,
    NumericalError,
    ParameterError,
    Predictor,
    RngSeed,
    UnlabeledDataset,
    check_int,
    read_labeled_csv,
    read_predictions_csv,
    read_unlabeled_csv,
)
from .m_estim import (
    builtin_loss,
    m_estimate_ci,
    read_choice_labeled_csv,
    read_choice_unlabeled_csv,
    sandwich_covariance,
    solve_ppi_m_estimator,
)
from .ppi_mean import (
    MeanEstimateReport,
    Method,
    ft_only_report,
    ppi_mean_ci,
    sample_mean_estimate,
)
from .rampup import RampUpPlan, rampup_final_estimate, run_rampup
from .scaling import ScalingLaw, fit_report_dict, fit_scaling_law, read_observations_csv
from .simulate import (
    SimTrainer,
    bootstrap_robustness,
    brute_force_allocation,
    external_ft_experiment,
    generate_world_data,
    run_estimator_comparison,
    scenario_from_dict,
    world_from_dict,
)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _round_floats(obj):
    """Normalize a report tree for serialization.

    Floats are rounded to 12 significant digits (then kept as numbers),
    numpy scalars and arrays become plain Python values, and non-finite
    numbers are rejected: a NaN in a report is a bug upstream, not
    something to print.
    """
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round_floats(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise NumericalError(f"refusing to serialize non-finite value {x}")
        return float(format(x, ".12g"))
    if obj is None or isinstance(obj, str):
        return obj
    raise NumericalError(f"cannot serialize value of type {type(obj).__name__}")


def render_json(payload: dict, indent: int | None = 2) -> str:
    return json.dumps(_round_floats(payload), indent=indent) + "\n"


def render_csv(payload: dict) -> str:
    """Flat dict as a two-line CSV; only the flat-report subcommands take ``--format``."""
    clean = _round_floats(payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(clean.keys()))
    writer.writerow(["" if v is None else v for v in clean.values()])
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_csv_file(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(_round_floats(list(row)))


def _mean_report_dict(report: MeanEstimateReport) -> dict:
    return {
        "estimate": report.estimate,
        "variance_hat": report.variance_hat,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "delta": report.delta,
        "n_ppi": report.n_ppi,
        "m": report.m,
        "method": report.method.value,
        "notes": report.notes,
    }


def _allocation_dict(result: AllocationResult) -> dict:
    return {
        "s_star": result.s_star_int,
        "fraction": result.fraction,
        "objective": result.objective_value,
        "feasible": result.feasible,
        "threshold": result.threshold,
        "s_star_real": result.s_star_real,
        "objective_int": result.objective_value_int,
        "diagnostics": result.diagnostics,
    }


def _load_json_file(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ParameterError(f"{what} file {path} must hold a JSON object")
    return spec


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns a payload dict, or None if it already
# wrote its own output)
# ---------------------------------------------------------------------------


def _cmd_fit_scaling(args, seed: RngSeed) -> dict:
    observations = read_observations_csv(args.observations, workers=args.threads)
    fit = fit_scaling_law(observations)
    payload = fit_report_dict(fit)
    payload["n_observations"] = len(observations)
    return payload


def _cmd_allocate(args, seed: RngSeed) -> dict:
    law = ScalingLaw(a=args.a, alpha=args.alpha, b=args.b)
    result = solve_optimal_allocation(law, args.n, sigma_sq=args.sigma_sq)
    return _allocation_dict(result)


def _predictions(
    path: str, workers: int, side: str | None = None, rows: int | None = None
) -> np.ndarray:
    """The prediction column of ``path``; with ``side``, it must have ``rows`` rows."""
    preds = read_predictions_csv(path, workers=workers)
    if side is not None and preds.shape[0] != rows:
        raise ParameterError(f"{side} predictions have {preds.shape[0]} rows but data has {rows}")
    return preds


def _pool_from_predictions(
    path_features: str | None, preds: np.ndarray, workers: int
) -> UnlabeledDataset:
    """The pool's features are never consulted when predictions are
    precomputed, so a feature file is optional."""
    if path_features is not None:
        pool = read_unlabeled_csv(path_features, workers=workers)
        if pool.m != preds.shape[0]:
            raise ParameterError(
                f"unlabeled features have {pool.m} rows but predictions have {preds.shape[0]}"
            )
        return pool
    return UnlabeledDataset(np.zeros((preds.shape[0], 1)))


#: The estimate-mean options each method does not read, and so rejects.
_UNUSED_BY_METHOD = {
    "sample-mean": ("unlabeled", "pred_labeled", "pred_unlabeled"),
    "ft-only": ("labeled", "pred_labeled"),
}


def _cmd_estimate_mean(args, seed: RngSeed) -> dict:
    method = {
        "ft-ppi": Method.FT_PPI,
        "ppi-only": Method.PPI_ONLY,
        "sample-mean": Method.SAMPLE_MEAN,
        "ft-only": Method.FT_ONLY,
    }[args.method]
    for name in _UNUSED_BY_METHOD.get(args.method, ()):
        if getattr(args, name) is not None:
            option = "--" + name.replace("_", "-")
            raise ParameterError(f"{option} does not apply to method {args.method}")

    if method is Method.SAMPLE_MEAN:
        if args.labeled is None:
            raise ParameterError("--labeled is required for method sample-mean")
        labeled = read_labeled_csv(args.labeled, workers=args.threads)
        return _mean_report_dict(sample_mean_estimate(labeled, args.delta))

    if method is Method.FT_ONLY:
        if args.pred_unlabeled is None:
            raise ParameterError("--pred-unlabeled is required for method ft-only")
        pairs = []
    elif args.labeled is None or args.pred_labeled is None or args.pred_unlabeled is None:
        raise ParameterError(
            f"--labeled, --pred-labeled and --pred-unlabeled are required for method {args.method}"
        )
    else:
        labeled = read_labeled_csv(args.labeled, workers=args.threads)
        pairs = [(labeled, _predictions(args.pred_labeled, args.threads, "labeled", labeled.n))]
    preds_pool = _predictions(args.pred_unlabeled, args.threads)
    pool = _pool_from_predictions(args.unlabeled, preds_pool, args.threads)
    f = Predictor.precomputed(pairs + [(pool, preds_pool)], label="cli")
    if method is Method.FT_ONLY:
        return _mean_report_dict(ft_only_report(pool, f, args.delta))
    return _mean_report_dict(ppi_mean_ci(labeled, pool, f, args.delta, method=method))


def _cmd_estimate_m(args, seed: RngSeed) -> dict:
    if args.dim is not None and args.loss == "mean":
        raise ParameterError("--dim does not apply to loss mean")
    if args.n_options is not None and args.loss != "mnl":
        raise ParameterError(f"--n-options applies only to loss mnl, not {args.loss}")
    if args.loss == "mnl":
        labeled, k1, d1 = read_choice_labeled_csv(args.labeled, workers=args.threads)
        pool, k2, d2 = read_choice_unlabeled_csv(args.unlabeled, workers=args.threads)
        if (k1, d1) != (k2, d2):
            raise ParameterError(
                f"labeled file has {k1} options x {d1} features but unlabeled has {k2} x {d2}"
            )
        if args.n_options is not None and args.n_options != k1:
            raise ParameterError(
                f"--n-options {args.n_options} contradicts the files ({k1} options)"
            )
        if args.dim is not None and args.dim != d1:
            raise ParameterError(
                f"--dim {args.dim} contradicts the files ({d1} features per option)"
            )
        loss = builtin_loss("mnl", n_options=k1, dim=d1)
    else:
        labeled = read_labeled_csv(args.labeled, workers=args.threads)
        pool = read_unlabeled_csv(args.unlabeled, workers=args.threads)
        if labeled.dim != pool.dim:
            raise ParameterError(
                f"labeled features are {labeled.dim}-dimensional but unlabeled are {pool.dim}"
            )
        if args.loss == "mean":
            loss = builtin_loss("mean")
        elif args.loss == "categorical":
            if args.dim is None:
                raise ParameterError("--dim (number of classes) is required for loss categorical")
            loss = builtin_loss("categorical", dim=args.dim)
        else:
            if args.dim is not None and args.dim != labeled.dim:
                raise ParameterError(
                    f"--dim {args.dim} contradicts the files ({labeled.dim} features)"
                )
            loss = builtin_loss("ols", dim=labeled.dim)

    preds_lab = _predictions(args.pred_labeled, args.threads, "labeled", labeled.n)
    preds_pool = _predictions(args.pred_unlabeled, args.threads, "unlabeled", pool.m)
    f = Predictor.precomputed([(labeled, preds_lab), (pool, preds_pool)], label="cli")
    theta = solve_ppi_m_estimator(loss, labeled, pool, f)
    cov = sandwich_covariance(loss, labeled, pool, f, theta)
    report = m_estimate_ci(cov, theta, args.delta)
    return {
        "loss": loss.name,
        "theta_hat": report.theta_hat,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "delta": report.delta,
        "nu_det": report.nu_det,
        "nu_trace": report.nu_trace,
        "sigma_hat": report.sigma_hat,
        "n_ppi": cov.n_ppi,
        "m": cov.m,
    }


def _allocation_curve_rows(columns, world, n, m, seed, **section) -> list:
    result = brute_force_allocation(world, n, m, seed=seed, **section)
    return list(zip(result.fractions, result.variances))


def _comparison_rows(columns, world, n, m, seed, **section) -> list:
    report = run_estimator_comparison(world, n, m, seed=seed, **section)
    return [[getattr(row, name) for name in columns] for row in report.rows]


def _bootstrap_rows(columns, world, n, m, seed, n_fit, **section) -> list:
    report = bootstrap_robustness(world, n_fit=n if n_fit is None else n_fit, seed=seed, **section)
    rows = [[name, q.median, q.ci_low, q.ci_high] for name, q in report.quantities.items()]
    rows.append(["fraction_var_data_sampling", report.data_sampling_part, "", ""])
    rows.append(["fraction_var_training", report.training_randomness_part, "", ""])
    rows.append(["fraction_var_total", report.total_variance, "", ""])
    return rows


def _external_rows(columns, world, n, m, seed, **section) -> list:
    report = external_ft_experiment(world, n=n, m=m, seed=seed, **section)
    return [[getattr(report, name) for name in columns]]


#: The sections of a simulate scenario, in run order: each writes
#: ``<section>.csv`` with these columns from its row builder, which gets the
#: section's keys as keywords and the scenario seed's child 1, 2, 3 or 4.
_SIMULATE_SECTIONS = (
    ("allocation_curve", ("fraction", "variance"), _allocation_curve_rows),
    ("comparison", ("method", "mean_estimate", "rmse", "mae", "variance"), _comparison_rows),
    ("bootstrap", ("quantity", "value", "ci_low", "ci_high"), _bootstrap_rows),
    (
        "external",
        ("strength", "fraction_base", "fraction_external", "mc_mean", "mc_se",
         "true_mean", "empirical_variance", "analytic_variance", "replicates"),
        _external_rows,
    ),
)


def _cmd_simulate(args, seed: RngSeed) -> dict:
    if args.out is None:
        raise ParameterError("simulate requires --out <directory> for its CSV outputs")
    scenario = scenario_from_dict(_load_json_file(args.scenario, "scenario"))
    world, n, m = scenario["world"], scenario["n"], scenario["m"]
    if args.seed is None and scenario["seed"] is not None:
        seed = RngSeed(scenario["seed"])

    os.makedirs(args.out, exist_ok=True)
    written: list[str] = []
    for tag, (name, columns, build_rows) in enumerate(_SIMULATE_SECTIONS, start=1):
        if scenario[name] is not None:
            rows = build_rows(
                columns, world, n, m, seed.child(tag), workers=args.threads, **scenario[name]
            )
            path = os.path.join(args.out, f"{name}.csv")
            _write_csv_file(path, list(columns), rows)
            written.append(path)

    sys.stdout.write(render_json({"written": written}, indent=None))
    return {}


def _cmd_rampup(args, seed: RngSeed) -> dict:
    world = world_from_dict(_load_json_file(args.world, "world"))
    labeled, unlabeled = generate_world_data(world, args.n, args.m, seed.child(1))
    trainer = SimTrainer(world, seed.child(2))
    plan = RampUpPlan(schedule=_int_list(args.schedule, "--schedule"), n_v=args.n_v)
    trace = run_rampup(labeled, plan, trainer, seed.child(3), cv_folds=args.cv_folds)

    lines = [render_json(rec.as_dict(), indent=None) for rec in trace.records]
    final: dict = {
        "completed": trace.completed,
        "stop_stage": trace.stop_stage,
        "s_final": trace.s_final,
        "mode": trace.mode,
        "n_v": trace.n_v,
        "error": trace.error,
    }
    if trace.completed:
        report = rampup_final_estimate(trace, labeled, unlabeled, trainer, args.delta)
        final["estimate"] = _mean_report_dict(report)
    lines.append(render_json({"final": final}, indent=None))
    _emit("".join(lines), args.out)
    return {}


def _cmd_bootstrap(args, seed: RngSeed) -> dict:
    world = world_from_dict(_load_json_file(args.world, "world"))
    s_grid = _int_list(args.s_grid, "--s-grid") if args.s_grid else None
    report = bootstrap_robustness(
        world,
        n_datasets=args.n_datasets,
        n_training_seeds=args.n_training_seeds,
        n_fit=args.n_fit,
        resamples=args.resamples,
        seed=seed,
        s_grid=s_grid,
        training_noise=not args.no_training_noise,
        n_alloc=args.n_alloc,
        workers=args.threads,
    )
    return {
        "quantities": {
            name: {"median": q.median, "ci_low": q.ci_low, "ci_high": q.ci_high}
            for name, q in report.quantities.items()
        },
        "fraction_variance": {
            "data_sampling": report.data_sampling_part,
            "training_randomness": report.training_randomness_part,
            "total": report.total_variance,
        },
        "n_datasets": report.n_datasets,
        "n_training_seeds": report.n_training_seeds,
        "resamples": report.resamples,
    }


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"{option} must be comma-separated integers: {exc}") from exc


def _env_int(name: str, default: int) -> int:
    """Integer value of environment variable ``name``, or ``default`` when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ParameterError(f"{name} must be an integer, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"RNG seed (default: $FTPPI_SEED or {DEFAULT_SEED})",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes for simulate and bootstrap replicates and for parsing"
        " large CSV inputs; 0 (the default) means every usable CPU, 1 runs serially"
        " ($FTPPI_THREADS). A CSV file is parsed in parts only on Linux, and only when it"
        " is at least 1 MiB of ASCII text without quotes. Output is identical for any value.",
    )
    common.add_argument("--out", default=None, help="write output here instead of stdout"
                        " (for simulate: output directory)")
    flat = argparse.ArgumentParser(add_help=False)
    flat.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="fmt",
        help="output format (default json)",
    )

    parser = argparse.ArgumentParser(
        prog="ftppi",
        description="Split a labeled budget between fine-tuning and rectification,"
        " and compute rectified estimates.",
    )
    parser.add_argument("--version", action="version", version=f"ftppi {__version__}")
    parser.set_defaults(fmt="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "fit-scaling", parents=[common, flat],
        help="fit the residual-variance scaling law to (size, variance) pairs",
    )
    p.add_argument("--observations", required=True, help="CSV with header s,variance")
    p.set_defaults(handler=_cmd_fit_scaling)

    p = sub.add_parser(
        "allocate", parents=[common, flat],
        help="solve for the optimal fine-tuning size under a fitted law",
    )
    p.add_argument("--a", type=float, required=True, help="law coefficient a")
    p.add_argument("--alpha", type=float, required=True, help="law exponent alpha")
    p.add_argument("--b", type=float, required=True, help="law floor b")
    p.add_argument("--n", type=int, required=True, help="labeled budget")
    p.add_argument(
        "--sigma-sq", type=float, default=None,
        help="outcome variance; enables the feasibility check",
    )
    p.set_defaults(handler=_cmd_allocate)

    p = sub.add_parser(
        "estimate-mean", parents=[common, flat],
        help="rectified mean with a normal confidence interval",
    )
    p.add_argument("--labeled", default=None,
                   help="CSV with header y,x1,...,xd (not accepted for ft-only)")
    p.add_argument("--unlabeled", default=None,
                   help="optional CSV with header x1,...,xd (features are not needed"
                   " when predictions are precomputed; not accepted for sample-mean)")
    p.add_argument("--pred-labeled", default=None, help="CSV with header f: predictions"
                   " for the labeled rows (ft-ppi and ppi-only only)")
    p.add_argument("--pred-unlabeled", default=None, help="CSV with header f: predictions"
                   " for the unlabeled pool (not accepted for sample-mean)")
    p.add_argument("--delta", type=float, default=0.05, help="miscoverage level (default 0.05)")
    p.add_argument(
        "--method", choices=("ft-ppi", "ppi-only", "sample-mean", "ft-only"),
        default="ft-ppi", help="estimator variant (default ft-ppi)",
    )
    p.set_defaults(handler=_cmd_estimate_mean)

    p = sub.add_parser(
        "estimate-m", parents=[common],
        help="rectified M-estimate with sandwich confidence intervals",
    )
    p.add_argument("--loss", choices=("mean", "categorical", "ols", "mnl"), required=True)
    p.add_argument("--labeled", required=True,
                   help="CSV with header y,x1,...,xd (mnl: choice,x_1_1,...,x_K_d)")
    p.add_argument("--unlabeled", required=True,
                   help="CSV with header x1,...,xd (mnl: x_1_1,...,x_K_d)")
    p.add_argument("--pred-labeled", required=True, help="predicted labels for the labeled rows")
    p.add_argument("--pred-unlabeled", required=True, help="predicted labels for the pool")
    p.add_argument("--delta", type=float, default=0.05, help="miscoverage level (default 0.05)")
    p.add_argument("--dim", type=int, default=None,
                   help="categorical: number of classes (required); ols and mnl: cross-check"
                        " of the features (per option) in the files; not accepted for mean")
    p.add_argument("--n-options", type=int, default=None,
                   help="mnl only (not accepted for other losses): cross-check of the"
                        " option count in the files")
    p.set_defaults(handler=_cmd_estimate_m)

    p = sub.add_parser(
        "simulate", parents=[common],
        help="run synthetic-world experiments from a scenario file into --out/",
    )
    p.add_argument("--scenario", required=True, help="scenario JSON (world, n, m, sections)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "rampup", parents=[common],
        help="staged fine-tuning demo on a synthetic world (JSONL trace)",
    )
    p.add_argument("--world", required=True, help="world JSON file")
    p.add_argument("--n", type=int, required=True, help="labeled budget to draw")
    p.add_argument("--m", type=int, required=True, help="unlabeled pool to draw")
    p.add_argument("--schedule", required=True, help="comma-separated stage sizes")
    p.add_argument("--n-v", type=int, required=True, help="measurement holdout size")
    p.add_argument("--cv-folds", type=int, default=None,
                   help="use K-fold residuals instead of a holdout")
    p.add_argument("--delta", type=float, default=0.05, help="miscoverage level (default 0.05)")
    p.set_defaults(handler=_cmd_rampup)

    p = sub.add_parser(
        "bootstrap", parents=[common],
        help="two-level stability audit of the fitted law on a synthetic world",
    )
    p.add_argument("--world", required=True, help="world JSON file")
    p.add_argument("--n-datasets", type=int, required=True)
    p.add_argument("--n-training-seeds", type=int, required=True)
    p.add_argument("--n-fit", type=int, required=True, help="labeled rows per dataset")
    p.add_argument("--resamples", type=int, default=500, help="bootstrap resamples")
    p.add_argument("--s-grid", default=None, help="comma-separated measurement sizes")
    p.add_argument("--no-training-noise", action="store_true",
                   help="reuse one training seed everywhere (isolates data sampling)")
    p.add_argument("--n-alloc", type=int, default=None,
                   help="budget at which the implied split is solved (default --n-fit)")
    p.set_defaults(handler=_cmd_bootstrap)

    return parser


def run_guarded(run) -> int:
    """``run()``'s exit status; a library or OS error it raises becomes a
    single-line JSON object on stderr and exit status 2."""
    try:
        return run()
    except (FtppiError, OSError) as exc:
        name = type(exc).__name__ if isinstance(exc, FtppiError) else "OSError"
        sys.stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    def run() -> int:
        threads = args.threads if args.threads is not None else _env_int("FTPPI_THREADS", 0)
        args.threads = check_int(threads, "--threads", 0)
        seed_value = args.seed if args.seed is not None else _env_int("FTPPI_SEED", DEFAULT_SEED)
        payload = args.handler(args, RngSeed(seed_value))
        if payload:
            text = render_csv(payload) if args.fmt == "csv" else render_json(payload)
            _emit(text, args.out)
        return 0

    return run_guarded(run)


def entry() -> int:
    """The ``ftppi`` program: ``main`` on ``sys.argv`` after freezing the import heap.

    ``gc.freeze`` moves every object alive at this point (the modules just
    imported, numpy's included) out of the collector's reach, so neither
    the collections during the run nor the one at interpreter exit walk
    them again.  ``main`` itself leaves the collector alone, for callers
    in a longer-lived process.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
