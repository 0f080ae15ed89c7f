"""Rectified mean estimation: point estimate, variance, and intervals.

The estimator combines cheap surrogate predictions on a large unlabeled
pool with a bias correction measured on held-out labeled data:

    estimate = mean(y_i - f(x_i)) over the rectification subset
             + mean(f(x_tilde_j)) over the unlabeled pool.

It is unbiased for E[Y] no matter how biased f is; its variance splits
into a residual term shrinking in the rectification count and a
prediction term shrinking in the pool size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    InsufficientDataError,
    LabeledDataset,
    ParameterError,
    Predictor,
    UnlabeledDataset,
    check_int,
    check_probability,
)

#: Below this many samples the normal interval is flagged as optimistic.
SMALL_SAMPLE_THRESHOLD = 30


class Method(str, Enum):
    """Which estimator produced a mean report."""

    SAMPLE_MEAN = "SampleMean"
    FT_ONLY = "FtOnly"
    PPI_ONLY = "PpiOnly"
    FT_PPI = "FtPpi"


@dataclass(frozen=True)
class MeanEstimateReport:
    """Point estimate with a normal confidence interval and provenance."""

    estimate: float
    variance_hat: float
    ci_low: float
    ci_high: float
    delta: float
    n_ppi: int
    m: int
    method: Method
    notes: str = ""


@dataclass(frozen=True)
class R2Criterion:
    """Is fine-tuning plus rectification worth it at this split?

    ``gain = r2_s - fraction`` is positive exactly when the surrogate
    route beats the plain sample mean (unlimited unlabeled pool).
    """

    r2_s: float
    fraction: float
    gain: float


class VarianceParts(NamedTuple):
    sigma_resid_sq: float
    sigma_f_sq: float
    total: float


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    return NormalDist().inv_cdf(check_probability(p, "normal_quantile: p"))


def ppi_mean_estimate(
    labeled_ppi: LabeledDataset, unlabeled: UnlabeledDataset, f: Predictor
) -> float:
    """Rectified point estimate of E[Y]."""
    return _rectified_mean(labeled_ppi.ys, f.on(labeled_ppi), f.on(unlabeled))


def _rectified_mean(ys: np.ndarray, preds_labeled: np.ndarray, preds_pool: np.ndarray) -> float:
    """mean(ys - preds_labeled) + mean(preds_pool), the rectified estimate on raw arrays."""
    return float(np.mean(ys - preds_labeled) + np.mean(preds_pool))


def ppi_mean_variance_hat(
    labeled_ppi: LabeledDataset, unlabeled: UnlabeledDataset, f: Predictor
) -> VarianceParts:
    """Plug-in variance of the rectified mean.

    Residual variance uses divisor (n_ppi - 1); prediction variance uses
    (m - 1); the total is resid/n_ppi + pred/m.
    """
    if labeled_ppi.n < 2:
        raise InsufficientDataError("variance needs at least 2 rectification samples")
    if unlabeled.m < 2:
        raise InsufficientDataError("variance needs at least 2 unlabeled samples")
    resid = labeled_ppi.ys - f.on(labeled_ppi)
    preds = f.on(unlabeled)
    sigma_resid_sq = float(np.var(resid, ddof=1))
    sigma_f_sq = float(np.var(preds, ddof=1))
    total = sigma_resid_sq / labeled_ppi.n + sigma_f_sq / unlabeled.m
    return VarianceParts(sigma_resid_sq, sigma_f_sq, float(total))


def _small_sample_note(n_ppi: int, m: int) -> str:
    small = []
    if n_ppi < SMALL_SAMPLE_THRESHOLD:
        small.append(f"n_ppi={n_ppi}")
    if 0 < m < SMALL_SAMPLE_THRESHOLD:
        small.append(f"m={m}")
    if small:
        return "small sample (" + ", ".join(small) + "): normal interval may undercover"
    return ""


def _normal_report(
    estimate: float,
    variance_hat: float,
    delta: float,
    n_ppi: int,
    m: int,
    method: Method,
    notes: str,
) -> MeanEstimateReport:
    """Report with the two-sided normal (1 - delta) interval around ``estimate``."""
    half = normal_quantile(1.0 - delta / 2.0) * math.sqrt(variance_hat)
    return MeanEstimateReport(
        estimate=estimate,
        variance_hat=variance_hat,
        ci_low=estimate - half,
        ci_high=estimate + half,
        delta=delta,
        n_ppi=n_ppi,
        m=m,
        method=method,
        notes=notes,
    )


def ppi_mean_ci(
    labeled_ppi: LabeledDataset,
    unlabeled: UnlabeledDataset,
    f: Predictor,
    delta: float,
    method: Method = Method.FT_PPI,
) -> MeanEstimateReport:
    """Rectified estimate with a two-sided normal (1 - delta) interval."""
    delta = check_probability(delta, "delta")
    estimate = ppi_mean_estimate(labeled_ppi, unlabeled, f)
    parts = ppi_mean_variance_hat(labeled_ppi, unlabeled, f)
    return _normal_report(
        estimate,
        parts.total,
        delta,
        labeled_ppi.n,
        unlabeled.m,
        method,
        _small_sample_note(labeled_ppi.n, unlabeled.m),
    )


def r2_criterion(sigma_resid_sq: float, var_y: float, s: int, n: int) -> R2Criterion:
    """Compare explained residual variance against the labeled share spent.

    r2_s = 1 - sigma_resid_sq/var_y.  With an unlimited unlabeled pool the
    surrogate route beats the sample mean iff r2_s exceeds s/n.
    """
    if not np.isfinite(var_y) or var_y <= 0:
        raise ParameterError(f"var_y must be finite and > 0, got {var_y}")
    if not np.isfinite(sigma_resid_sq) or sigma_resid_sq < 0:
        raise ParameterError(f"sigma_resid_sq must be >= 0, got {sigma_resid_sq}")
    n = check_int(n, "n", 2)
    s = check_int(s, "s", 1)
    if s >= n:
        raise ParameterError(f"s must be < n = {n}, got {s}")
    r2_s = 1.0 - sigma_resid_sq / var_y
    fraction = s / n
    return R2Criterion(r2_s=float(r2_s), fraction=float(fraction), gain=float(r2_s - fraction))


def _column_report(
    size: int, column: Callable[[], np.ndarray], delta: float, too_few: str, method: Method,
    note: str = "",
) -> MeanEstimateReport:
    """Mean of one column of ``size`` values with the normal interval of its
    sampling noise alone: the labeled outcomes, or for FT_ONLY the pool's
    predictions.  ``column()`` is called only once ``delta`` and ``size`` pass."""
    delta = check_probability(delta, "delta")
    if size < 2:
        raise InsufficientDataError(too_few)
    values = column()
    n_ppi, m = (0, size) if method is Method.FT_ONLY else (size, 0)
    # A pool-only report has no rectification count to call small.
    small = _small_sample_note(n_ppi or SMALL_SAMPLE_THRESHOLD, m)
    return _normal_report(
        float(np.mean(values)),
        float(np.var(values, ddof=1)) / size,
        delta,
        n_ppi,
        m,
        method,
        "; ".join(part for part in (note, small) if part),
    )


def sample_mean_estimate(labeled: LabeledDataset, delta: float) -> MeanEstimateReport:
    """Plain sample mean of the labeled outcomes, as a baseline report."""
    return _column_report(
        labeled.n, lambda: labeled.ys, delta, "sample mean CI needs at least 2 samples",
        Method.SAMPLE_MEAN,
    )


def ft_only_report(unlabeled: UnlabeledDataset, f: Predictor, delta: float) -> MeanEstimateReport:
    """Surrogate-only baseline with the same report shape as the others.

    The variance term only reflects sampling noise of the pool average;
    it does not account for prediction bias, which this method cannot see.
    """
    return _column_report(
        unlabeled.m, lambda: f.on(unlabeled), delta,
        "surrogate-only CI needs at least 2 pool samples", Method.FT_ONLY,
        "interval ignores prediction bias",
    )
