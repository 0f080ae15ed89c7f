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
import dataclasses
import importlib.util
import io
import json
import math
import os
import sys
from enum import Enum

import numpy as np

from . import __version__
from .core import (
    DEFAULT_SEED,
    FtppiError,
    NumericalError,
    ParameterError,
    Predictor,
    RngSeed,
    UnlabeledDataset,
    _resolve_workers,
    check_int,
    check_probability,
    read_labeled_csv,
    read_predictions_csv,
    read_unlabeled_csv,
)


def _lazy(name: str):
    """Submodule ``name`` of this package, in ``sys.modules`` from now on
    but run only when one of its attributes is first read; a module already
    imported is returned as it is.

    So ``ftppi --version`` runs only this module and ``.core``.  A lazy
    module takes no lock when it runs: each handler reads its modules on
    the main thread before any worker thread or process starts.
    """
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
    return sys.modules[fullname]


allocate, m_estim, ppi_mean, rampup, scaling, simulate = map(
    _lazy, ("allocate", "m_estim", "ppi_mean", "rampup", "scaling", "simulate")
)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _round_floats(obj):
    """Normalize a report tree for serialization.

    Floats are rounded to 12 significant digits (then kept as numbers),
    numpy scalars and arrays, dataclasses (their fields, in order) and
    enum members become plain Python values, and non-finite numbers are
    rejected: a NaN in a report is a bug upstream, not something to print.
    """
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        obj = obj.value
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


def render_json(payload, indent: int | None = 2) -> str:
    return json.dumps(_round_floats(payload), indent=indent) + "\n"


def render_csv(payload) -> str:
    """Flat report as a two-line CSV; only the flat-report subcommands take ``--format``."""
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


def _allocation_dict(result: allocate.AllocationResult) -> dict:
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
# Subcommand handlers (each returns a payload, a dict or a report dataclass,
# or an empty dict if it already wrote its own output)
# ---------------------------------------------------------------------------


def _cmd_fit_scaling(args, seed: RngSeed) -> dict:
    observations = scaling.read_observations_csv(args.observations, workers=args.threads)
    fit = scaling.fit_scaling_law(observations)
    payload = scaling.fit_report_dict(fit)
    payload["n_observations"] = len(observations)
    return payload


def _cmd_allocate(args, seed: RngSeed) -> dict:
    law = scaling.ScalingLaw(a=args.a, alpha=args.alpha, b=args.b)
    result = allocate.solve_optimal_allocation(law, args.n, sigma_sq=args.sigma_sq)
    return _allocation_dict(result)


def _predictions(
    path: str, workers: int, side: str | None = None, rows: int | None = None
) -> np.ndarray:
    """The prediction column of ``path``; with ``side``, it must have ``rows`` rows."""
    preds = read_predictions_csv(path, workers=workers)
    if side is not None and preds.shape[0] != rows:
        raise ParameterError(f"{side} predictions have {preds.shape[0]} rows but data has {rows}")
    return preds


#: The estimate-mean options each method does not read, and so rejects.
_UNUSED_BY_METHOD = {
    "sample-mean": ("unlabeled", "pred_labeled", "pred_unlabeled"),
    "ft-only": ("labeled", "pred_labeled"),
}


def _cmd_estimate_mean(args, seed: RngSeed) -> ppi_mean.MeanEstimateReport:
    for name in _UNUSED_BY_METHOD.get(args.method, ()):
        if getattr(args, name) is not None:
            option = "--" + name.replace("_", "-")
            raise ParameterError(f"{option} does not apply to method {args.method}")

    if args.method == "sample-mean":
        if args.labeled is None:
            raise ParameterError("--labeled is required for method sample-mean")
        labeled = read_labeled_csv(args.labeled, workers=args.threads)
        return ppi_mean.sample_mean_estimate(labeled, args.delta)

    if args.method == "ft-only":
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
    # The pool's feature file is optional: every row is parsed and checked,
    # but the estimate reads only the predictions, so only its shape is kept.
    pool = None
    if args.unlabeled is not None:
        pool = read_unlabeled_csv(args.unlabeled, workers=args.threads, features=False)
        if args.labeled is not None and labeled.dim != pool.dim:
            raise ParameterError(
                f"labeled features are {labeled.dim}-dimensional but unlabeled are {pool.dim}"
            )
    preds_pool = _predictions(args.pred_unlabeled, args.threads)
    if pool is None:
        pool = UnlabeledDataset._shape_only(preds_pool.shape[0], 1)
    elif pool.m != preds_pool.shape[0]:
        raise ParameterError(
            f"unlabeled features have {pool.m} rows but predictions have {preds_pool.shape[0]}"
        )
    f = Predictor._adopt(pairs + [(pool, preds_pool)], label="cli")
    if args.method == "ft-only":
        return ppi_mean.ft_only_report(pool, f, args.delta)
    method = ppi_mean.Method[args.method.upper().replace("-", "_")]  # ft-ppi -> FT_PPI
    return ppi_mean.ppi_mean_ci(labeled, pool, f, args.delta, method=method)


def _cmd_estimate_m(args, seed: RngSeed) -> dict:
    if args.dim is not None and args.loss == "mean":
        raise ParameterError("--dim does not apply to loss mean")
    if args.n_options is not None and args.loss != "mnl":
        raise ParameterError(f"--n-options applies only to loss mnl, not {args.loss}")
    if args.loss == "mnl":
        labeled, k1, d1 = m_estim.read_choice_labeled_csv(args.labeled, workers=args.threads)
        pool, k2, d2 = m_estim.read_choice_unlabeled_csv(args.unlabeled, workers=args.threads)
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
        # each kernel call runs on no more threads than it has blocks
        workers = _resolve_workers(args.threads, max(labeled.n, pool.m))
        loss = m_estim.builtin_loss("mnl", n_options=k1, dim=d1, workers=workers)
    else:
        labeled = read_labeled_csv(args.labeled, workers=args.threads)
        # the mean and categorical losses never read the pool's features
        pool = read_unlabeled_csv(
            args.unlabeled, workers=args.threads, features=args.loss == "ols"
        )
        if labeled.dim != pool.dim:
            raise ParameterError(
                f"labeled features are {labeled.dim}-dimensional but unlabeled are {pool.dim}"
            )
        if args.loss == "mean":
            loss = m_estim.builtin_loss("mean")
        elif args.loss == "categorical":
            if args.dim is None:
                raise ParameterError("--dim (number of classes) is required for loss categorical")
            loss = m_estim.builtin_loss("categorical", dim=args.dim)
        else:
            if args.dim is not None and args.dim != labeled.dim:
                raise ParameterError(
                    f"--dim {args.dim} contradicts the files ({labeled.dim} features)"
                )
            loss = m_estim.builtin_loss("ols", dim=labeled.dim)

    preds_lab = _predictions(args.pred_labeled, args.threads, "labeled", labeled.n)
    preds_pool = _predictions(args.pred_unlabeled, args.threads, "unlabeled", pool.m)
    f = Predictor._adopt([(labeled, preds_lab), (pool, preds_pool)], label="cli")
    theta = m_estim.solve_ppi_m_estimator(loss, labeled, pool, f)
    cov = m_estim.sandwich_covariance(loss, labeled, pool, f, theta)
    report = m_estim.m_estimate_ci(cov, theta, args.delta)
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
    result = simulate.brute_force_allocation(world, n, m, seed=seed, **section)
    return list(zip(result.fractions, result.variances))


def _comparison_rows(columns, world, n, m, seed, **section) -> list:
    report = simulate.run_estimator_comparison(world, n, m, seed=seed, **section)
    return [[getattr(row, name) for name in columns] for row in report.rows]


def _bootstrap_rows(columns, world, n, m, seed, n_fit, **section) -> list:
    n_fit = n if n_fit is None else n_fit
    report = simulate.bootstrap_robustness(world, n_fit=n_fit, seed=seed, **section)
    rows = [[name, q.median, q.ci_low, q.ci_high] for name, q in report.quantities.items()]
    rows.append(["fraction_var_data_sampling", report.data_sampling_part, "", ""])
    rows.append(["fraction_var_training", report.training_randomness_part, "", ""])
    rows.append(["fraction_var_total", report.total_variance, "", ""])
    return rows


def _external_rows(columns, world, n, m, seed, **section) -> list:
    report = simulate.external_ft_experiment(world, n=n, m=m, seed=seed, **section)
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
    scenario = simulate.scenario_from_dict(_load_json_file(args.scenario, "scenario"))
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
    if (args.n_v is None) == (args.cv_folds is None):
        raise ParameterError("--n-v is required without --cv-folds, and does not apply with it")
    check_int(args.m, "--m", 2)  # the final interval needs the pool's variance
    world = simulate.world_from_dict(_load_json_file(args.world, "world"))
    labeled, unlabeled = simulate.generate_world_data(world, args.n, args.m, seed.child(1))
    trainer = simulate.SimTrainer(world, seed.child(2))
    plan = rampup.RampUpPlan(schedule=_int_list(args.schedule, "--schedule"), n_v=args.n_v)
    trace = rampup.run_rampup(labeled, plan, trainer, seed.child(3), cv_folds=args.cv_folds)

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
        report = rampup.rampup_final_estimate(trace, labeled, unlabeled, trainer, args.delta)
        final["estimate"] = report
    lines.append(render_json({"final": final}, indent=None))
    _emit("".join(lines), args.out)
    return {}


def _cmd_bootstrap(args, seed: RngSeed) -> dict:
    world = simulate.world_from_dict(_load_json_file(args.world, "world"))
    s_grid = _int_list(args.s_grid, "--s-grid") if args.s_grid else None
    report = simulate.bootstrap_robustness(
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
        "quantities": report.quantities,
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
        help="CPUs to use: worker processes for simulate and bootstrap replicates and for"
        " parsing large CSV inputs, threads for the estimate-m --loss mnl kernels; 0 (the"
        " default) means every usable CPU, 1 runs serially ($FTPPI_THREADS). A CSV file is"
        " parsed in parts only on Linux, and only when it is at least 1 MiB of ASCII text"
        " without quotes; the mnl kernels use one thread per 8192-row block at most."
        " Output is identical for any value.",
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
                   help="optional CSV with header x1,...,xd, parsed and checked in full;"
                   " only its row count and width are used (not accepted for sample-mean)")
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
    p.add_argument("--n-v", type=int, default=None,
                   help="measurement holdout size (required without --cv-folds, not"
                   " accepted with it)")
    p.add_argument("--cv-folds", type=int, default=None,
                   help="use K-fold residuals instead of a --n-v holdout")
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
        if hasattr(args, "delta"):  # refused before a handler reads any input
            check_probability(args.delta, "delta")
        seed_value = args.seed if args.seed is not None else _env_int("FTPPI_SEED", DEFAULT_SEED)
        payload = args.handler(args, RngSeed(seed_value))
        if payload:
            text = render_csv(payload) if args.fmt == "csv" else render_json(payload)
            _emit(text, args.out)
        return 0

    return run_guarded(run)


if __name__ == "__main__":
    sys.exit(main())
