"""Output checks, computed apart from the program.

Each check receives the inputs the benchmark generated and one
operation's result, and raises ``CheckFailed`` when the output is wrong.
The reference values are recomputed here with plain numpy from the
generated arrays, or follow from a property the method must have (an
unbiased estimator sits within a few standard errors of the truth, a
sample variance lies in its chi-square band).  Nothing is compared to a
stored copy of an earlier output.  Band tails are 1e-6 per point, so a
correct program fails a check far less than once in the whole benchmark.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

import inputs

TAIL = 1e-6
# Standard errors allowed between an unbiased Monte Carlo mean and the truth.
SE_BAND = NormalDist().inv_cdf(1.0 - TAIL)


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's own computation."""


@dataclass
class Result:
    """What one operation produced."""

    returncode: int
    stdout: str
    stderr: str
    out_dir: str | None = None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(name: str, got, want, rel: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    _require(got.shape == want.shape, f"{name}: shape {got.shape}, expected {want.shape}")
    scale = max(float(np.max(np.abs(want))), 1e-300)
    err = float(np.max(np.abs(got - want)))
    _require(err <= rel * scale, f"{name}: {got} differs from {want} (max error {err:.3e})")


def _json(result: Result) -> dict:
    _require(result.returncode == 0, f"exit status {result.returncode}: {result.stderr.strip()}")
    return json.loads(result.stdout)


def _csv_rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _z(delta: float) -> float:
    return NormalDist().inv_cdf(1.0 - delta / 2.0)


def law_value(law: dict, s: float) -> float:
    return law["a"] * s ** (-law["alpha"]) + law["b"]


def optimal_split(law: dict, n: float) -> float:
    """Root of d/ds log[(a s^-alpha + b) / (n - s)], by bisection in log s."""
    a, alpha, b = law["a"], law["alpha"], law["b"]

    def slope(log_s: float) -> float:
        s = math.exp(log_s)
        return -alpha * a * s ** (-alpha) / (a * s ** (-alpha) + b) + s / (n - s)

    lo, hi = math.log(n * 1e-12), math.log(n * (1.0 - 1e-12))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def optimal_split_int(law: dict, n: int) -> int:
    s = optimal_split(law, n)
    return min(
        {max(1, math.floor(s)), math.ceil(s)},
        key=lambda k: law_value(law, k) / (n - k),
    )


def chi2_band(df: int) -> tuple[float, float]:
    """Bounds on S^2 / sigma^2 for a sample variance with df degrees of
    freedom, each tail TAIL, by the Wilson-Hilferty approximation."""
    z = NormalDist().inv_cdf(1.0 - TAIL)
    c = 2.0 / (9.0 * df)
    lo = max(1.0 - c - z * math.sqrt(c), 0.0) ** 3
    hi = (1.0 - c + z * math.sqrt(c)) ** 3
    return lo, hi


def _variance_in_band(name: str, got: float, want: float, df: int) -> None:
    lo, hi = chi2_band(df)
    ratio = got / want
    _require(lo <= ratio <= hi, f"{name}: variance {got:.6g} is {ratio:.3f}x the implied "
             f"{want:.6g}, outside the band [{lo:.3f}, {hi:.3f}] for {df} df")


def _mean_report(name: str, report: dict, estimate: float, variance: float, delta: float) -> None:
    half = _z(delta) * math.sqrt(variance)
    _close(f"{name} estimate", report["estimate"], estimate, 1e-9)
    _close(f"{name} variance_hat", report["variance_hat"], variance, 1e-9)
    _close(f"{name} ci_low", report["ci_low"], estimate - half, 1e-9)
    _close(f"{name} ci_high", report["ci_high"], estimate + half, 1e-9)


class World:
    """Population quantities of a synthetic world, from its definition."""

    def __init__(self, spec: dict):
        self.law = spec["law"]
        self.true_mean = spec["true_mean"]
        self.noise_floor = spec["noise_floor"] if spec["noise_floor"] is not None else self.law["b"]
        self.signal_sd = math.sqrt(spec["var_y"] - self.noise_floor)
        bias = spec["bias"]
        self.bias_mean = 0.0 if bias["kind"] == "zero" else bias["value"]
        # A drifting bias value * (1 + x1) moves with the signal x1.
        self.bias_slope = bias["value"] if bias["kind"] == "drifting" else 0.0

    def residual_var(self, s: int) -> float:
        return law_value(self.law, s)

    def prediction_var(self, s: int) -> float:
        """Var f(x) at size s: signal plus drift, plus the rest of the law
        above the noise floor and the drift's own share."""
        field = law_value(self.law, s) - self.noise_floor - self.bias_slope**2
        return (self.signal_sd + self.bias_slope) ** 2 + field


# ---------------------------------------------------------------------------
# csv-mean
# ---------------------------------------------------------------------------


def check_csv_mean(inp: inputs.Inputs, result: Result) -> None:
    report = _json(result)
    y, f_lab, f_pool = inp.arrays["y"], inp.arrays["f_lab"], inp.arrays["f_pool"]
    resid = y - f_lab
    estimate = float(np.mean(resid) + np.mean(f_pool))
    variance = float(np.var(resid, ddof=1) / y.size + np.var(f_pool, ddof=1) / f_pool.size)
    _mean_report("estimate-mean", report, estimate, variance, 0.05)
    _require(report["n_ppi"] == y.size and report["m"] == f_pool.size, "wrong n_ppi or m")
    _require(report["method"] == "FtPpi", f"method {report['method']!r}")


# ---------------------------------------------------------------------------
# csv-mnl
# ---------------------------------------------------------------------------


def _mnl_probs(X: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Choice probabilities of the K options; the outside option has utility 0."""
    u = np.concatenate([np.zeros((X.shape[0], 1)), X @ theta], axis=1)
    u -= u.max(axis=1, keepdims=True)
    e = np.exp(u)
    return (e / e.sum(axis=1, keepdims=True))[:, 1:]


def mnl_scores(X: np.ndarray, choice: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per-row gradient of the negative log-likelihood, shape (rows, d)."""
    chosen = np.zeros(X.shape[:2])
    rows = np.nonzero(choice > 0)[0]
    chosen[rows, choice[rows] - 1] = 1.0
    weights = _mnl_probs(X, theta) - chosen
    return np.matmul(weights[:, None, :], X)[:, 0, :]


def mnl_mean_hessian(X: np.ndarray, theta: np.ndarray) -> np.ndarray:
    p = _mnl_probs(X, theta)
    mean_x = np.matmul(p[:, None, :], X)[:, 0, :]
    second = np.matmul(np.transpose(X * p[:, :, None], (0, 2, 1)), X).mean(axis=0)
    return second - mean_x.T @ mean_x / X.shape[0]


def check_csv_mnl(inp: inputs.Inputs, result: Result) -> None:
    report = _json(result)
    a = inp.arrays
    X_lab, X_pool = a["X_lab"], a["X_pool"]
    theta = np.asarray(report["theta_hat"], dtype=float)
    _require(theta.shape == (inputs.MNL_D,), f"theta_hat has shape {theta.shape}")

    s_true = mnl_scores(X_lab, a["y"], theta)
    s_fit = mnl_scores(X_lab, a["f_lab"], theta)
    s_pool = mnl_scores(X_pool, a["f_pool"], theta)
    score = s_true.mean(axis=0) - s_fit.mean(axis=0) + s_pool.mean(axis=0)
    _require(float(np.max(np.abs(score))) < 1e-7, f"rectified score at theta_hat is {score}")

    n, m = X_lab.shape[0], X_pool.shape[0]
    h = mnl_mean_hessian(X_lab, theta)
    v_resid = np.cov(s_true - s_fit, rowvar=False)
    v_pred = np.cov(s_pool, rowvar=False)
    h_inv = np.linalg.inv(h)
    sigma = h_inv @ (v_resid / n + v_pred / m) @ h_inv
    _close("sigma_hat", report["sigma_hat"], sigma, 1e-6)
    half = _z(0.05) * np.sqrt(np.diag(sigma))
    _close("ci_low", report["ci_low"], theta - half, 1e-6)
    _close("ci_high", report["ci_high"], theta + half, 1e-6)
    _close("nu_det", report["nu_det"], np.linalg.det(v_resid) ** (1.0 / theta.size), 1e-6)
    _close("nu_trace", report["nu_trace"], np.trace(h_inv @ h_inv @ v_resid), 1e-6)
    _require(report["n_ppi"] == n and report["m"] == m, "wrong n_ppi or m")


# ---------------------------------------------------------------------------
# sim-oracle
# ---------------------------------------------------------------------------


def _written(result: Result, names: list[str]) -> dict[str, str]:
    written = _json(result)["written"]
    expected = [os.path.join(result.out_dir, name) for name in names]
    _require(written == expected, f"wrote {written}, expected {expected}")
    return dict(zip(names, written))


def check_sim_oracle(inp: inputs.Inputs, result: Result) -> None:
    path = _written(result, ["allocation_curve.csv"])["allocation_curve.csv"]
    scenario = inp.params
    n, m = scenario["n"], scenario["m"]
    curve = scenario["allocation_curve"]
    world = World(scenario["world"])
    rows = _csv_rows(path)
    count = round(1.0 / curve["grid_step"]) - 1
    _require(len(rows) == count, f"{len(rows)} curve points, expected {count}")
    for i, row in enumerate(rows):
        fraction = float(row["fraction"])
        _close("fraction", fraction, curve["grid_step"] * (i + 1), 1e-9)
        s = min(max(round(fraction * n), 1), n - 2)
        # The pool is held fixed across replicates, so only the predictor's
        # own noise on it adds to the rectification term.
        implied = world.residual_var(s) / (n - s) + (world.residual_var(s) - world.noise_floor) / m
        _variance_in_band(f"curve at s={s}", float(row["variance"]), implied, curve["replicates"] - 1)


# ---------------------------------------------------------------------------
# sim-fresh
# ---------------------------------------------------------------------------


def _unbiased(name: str, mean: float, truth: float, se: float) -> None:
    _require(abs(mean - truth) <= SE_BAND * se,
             f"{name}: mean {mean:.6g} is {abs(mean - truth) / se:.1f} SE from {truth:.6g}")


def check_simulate_fresh(inp: inputs.Inputs, result: Result) -> None:
    paths = _written(result, ["comparison.csv", "bootstrap.csv", "external.csv"])
    scenario = inp.params["scenario"]
    world = World(scenario["world"])
    n, m = scenario["n"], scenario["m"]

    reps = scenario["comparison"]["replicates"]
    rows = {row["method"]: row for row in _csv_rows(paths["comparison.csv"])}
    _require(sorted(rows) == ["FtOnly", "FtPpi", "PpiOnly", "SampleMean"], f"methods {sorted(rows)}")
    for name, row in rows.items():
        mean, var = float(row["mean_estimate"]), float(row["variance"])
        truth = world.true_mean + (world.bias_mean if name == "FtOnly" else 0.0)
        _unbiased(name, mean, truth, math.sqrt(var / reps))
        mse = (mean - world.true_mean) ** 2 + var * (reps - 1) / reps
        _close(f"{name} rmse", float(row["rmse"]), math.sqrt(mse), 1e-9)
        _require(float(row["mae"]) <= float(row["rmse"]) * (1 + 1e-12), f"{name}: mae > rmse")
    spec = scenario["world"]
    _variance_in_band("SampleMean", float(rows["SampleMean"]["variance"]), spec["var_y"] / n, reps - 1)
    s = optimal_split_int(world.law, n)
    implied = world.residual_var(s) / (n - s) + world.prediction_var(s) / m
    _variance_in_band("FtPpi", float(rows["FtPpi"]["variance"]), implied, reps - 1)

    boot = {row["quantity"]: row for row in _csv_rows(paths["bootstrap.csv"])}
    parts = [float(boot[k]["value"]) for k in
             ("fraction_var_data_sampling", "fraction_var_training", "fraction_var_total")]
    _close("bootstrap variance parts", parts[0] + parts[1], parts[2], 1e-9)
    fraction = optimal_split(world.law, n) / n
    median = float(boot["fraction"]["value"])
    _require(abs(median - fraction) <= 0.05 * fraction,
             f"bootstrap fraction {median:.6g} is not near s*/n = {fraction:.6g}")

    ext_spec = scenario["external"]
    (ext,) = _csv_rows(paths["external.csv"])
    strength = ext_spec["strength"]
    law = world.law
    shifted = {
        "a": law["a"],
        "alpha": law["alpha"] * (1.0 + 0.2 * strength),
        "b": max(law["b"] * (1.0 - 0.5 * strength), world.noise_floor),
    }
    _close("fraction_base", float(ext["fraction_base"]), optimal_split(law, n) / n, 1e-6)
    _close("fraction_external", float(ext["fraction_external"]), optimal_split(shifted, n) / n, 1e-6)
    _unbiased("external", float(ext["mc_mean"]), world.true_mean, float(ext["mc_se"]))
    s = optimal_split_int(shifted, n)
    # The program keeps the world's noise floor when it shifts the law.
    ext_world = World(dict(scenario["world"], law=shifted, noise_floor=world.noise_floor))
    implied = ext_world.residual_var(s) / (n - s) + ext_world.prediction_var(s) / m
    _variance_in_band("external", float(ext["empirical_variance"]), implied,
                      ext_spec["replicates"] - 1)
    _require(int(ext["replicates"]) == ext_spec["replicates"], "wrong replicate count")


def _rampup_lines(result: Result) -> tuple[list[dict], dict]:
    _require(result.returncode == 0, f"exit status {result.returncode}: {result.stderr.strip()}")
    lines = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
    _require(len(lines) >= 2 and "final" in lines[-1], "trace lacks stage records or final line")
    return lines[:-1], lines[-1]["final"]


def check_rampup(inp: inputs.Inputs, result: Result) -> None:
    params = inp.params["rampup"]
    world = World(inputs.DRIFTING_WORLD)
    n, n_v, schedule = params["n"], params["n_v"], params["schedule"]
    records, final = _rampup_lines(result)
    for i, rec in enumerate(records):
        stage, size = i + 1, schedule[i]
        _require(rec["stage"] == stage and rec["size"] == size, f"stage {i + 1} mislabeled: {rec}")
        law = world.residual_var(size)
        _variance_in_band(f"stage {stage}", rec["residual_variance"], law, n_v - 1)
        _unbiased(f"stage {stage} residual", rec["mean_residual"], -world.bias_mean,
                  math.sqrt(law / n_v))
        if stage < 3:
            _require(rec["fit"] is None and rec["s_hat"] is None, f"stage {stage} fitted too early")
            stop = stage == len(schedule)
        else:
            fit = rec["fit"]
            s_hat = optimal_split(fit, n)
            _close(f"stage {stage} s_hat", rec["s_hat"], s_hat, 1e-6)
            stop = rec["s_hat"] <= size or stage == len(schedule)
        want = "stop" if stop else "continue"
        _require(rec["decision"] == want, f"stage {stage}: decision {rec['decision']}, rule says {want}")
        if stop:
            _require(stage == len(records), "records continue after a stop")
    last = records[-1]
    _require(final["completed"] is True and final["error"] is None, f"not completed: {final}")
    _require(final["stop_stage"] == last["stage"] and final["s_final"] == last["size"],
             "final line disagrees with the last stage")
    est = final["estimate"]
    n_ppi = n - n_v - last["size"]
    _require(est["n_ppi"] == n_ppi and est["m"] == params["m"], "final estimate used wrong sizes")
    _unbiased("final estimate", est["estimate"], world.true_mean, math.sqrt(est["variance_hat"]))
    half = _z(0.05) * math.sqrt(est["variance_hat"])
    _close("final ci_low", est["ci_low"], est["estimate"] - half, 1e-9)
    _close("final ci_high", est["ci_high"], est["estimate"] + half, 1e-9)


def check_rampup_fault(inp: inputs.Inputs, result: Result) -> None:
    """Stage 1 (size 10) is below s_min = 50: the trace must end there."""
    records, final = _rampup_lines(result)
    _require(len(records) == 1, f"{len(records)} stage records after a refused first stage")
    rec = records[0]
    _require(rec["stage"] == 1 and rec["size"] == 10 and rec["decision"] == "error",
             f"first record is not the stage-1 error: {rec}")
    _require(rec["mean_residual"] is None and rec["residual_variance"] is None,
             "error record carries statistics that were never measured")
    _require(final["completed"] is False and final["s_final"] is None, f"final: {final}")
    message = final["error"] or ""
    _require("stage 1" in message and "minimum 50" in message,
             f"final line lacks the trainer's message: {message!r}")
