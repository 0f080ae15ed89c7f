"""Residual-variance scaling law: model, fitting, and diagnostics.

The law maps a fine-tuning sample count s to the population variance of
the prediction residual:

    variance(s) = a * s**(-alpha) + b,   a > 0, alpha > 0, b >= 0.

``b`` is the noise floor the surrogate cannot improve past; ``a`` and
``alpha`` describe how fast extra fine-tuning data pays off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CsvFormatError,
    DomainError,
    InsufficientDataError,
    ParameterError,
    UnderdeterminedFitError,
    _RowError,
    _read_csv,
    check_int,
)

#: Search range for the decay exponent during fitting.
ALPHA_MIN = 0.01
ALPHA_MAX = 2.0
#: Lower bound used when the amplitude is forced against its constraint.
A_FLOOR = 1e-12


@dataclass(frozen=True)
class ScalingLaw:
    """Parameters (a, alpha, b) of the residual-variance decay."""

    a: float
    alpha: float
    b: float

    def __post_init__(self) -> None:
        for name in ("a", "alpha", "b"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ParameterError(f"ScalingLaw.{name} must be finite, got {value}")
        if self.a <= 0:
            raise ParameterError(f"ScalingLaw.a must be > 0, got {self.a}")
        if self.alpha <= 0:
            raise ParameterError(f"ScalingLaw.alpha must be > 0, got {self.alpha}")
        if self.b < 0:
            raise ParameterError(f"ScalingLaw.b must be >= 0, got {self.b}")


@dataclass(frozen=True)
class ScalingObservation:
    """One measured point: fine-tuning size s and residual variance."""

    s: int
    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", check_int(self.s, "ScalingObservation.s", 1))
        if not np.isfinite(self.variance) or self.variance < 0:
            raise ParameterError(
                f"ScalingObservation.variance must be finite and >= 0, got {self.variance}"
            )


@dataclass(frozen=True)
class ScalingFit:
    """Fit result: the law, goodness of fit, and per-point residuals.

    ``boundary`` is set when the fitted alpha sits at an edge of the search
    range [ALPHA_MIN, ALPHA_MAX]: the best fit may lie outside it, and the
    law and any split solved from it are then suspect.  A degenerate fit
    has no fitted alpha and is never flagged as boundary.
    """

    law: ScalingLaw
    r_squared: float
    residuals: np.ndarray
    alpha_ge_one: bool
    degenerate: bool
    boundary: bool


@dataclass(frozen=True)
class LogLogDiagnostic:
    """Points (log s, log(variance - b)) for a straight-line check.

    Observations with variance <= b cannot be placed on the log-log plot;
    they are dropped and counted instead of silently vanishing.
    """

    points: tuple[tuple[float, float], ...]
    dropped: int


def eval_variance(law: ScalingLaw, s: int) -> float:
    """Evaluate the law at an integer fine-tuning size s >= 1."""
    try:
        s = check_int(s, "eval_variance: s", 1)
    except ParameterError as exc:
        raise DomainError(str(exc)) from None
    return float(law.a * float(s) ** (-law.alpha) + law.b)


def _profile(
    alphas: np.ndarray, log_s: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (a, b) with a >= A_FLOOR, b >= 0 at each alpha, and its SSE.

    At fixed alpha the law is linear in (a, b) with regressor
    x = s**(-alpha): closed-form 2x2 least squares with the constraints
    clamped, one row per alpha.  Returns arrays (a, b, sse).
    """
    x = np.exp(-alphas[:, None] * log_s)
    n = log_s.shape[0]
    sx = x.sum(axis=1)
    sxx = (x * x).sum(axis=1)
    sv = v.sum()
    sxv = x @ v
    det = n * sxx - sx * sx
    # Where the regressor is nearly constant the slope is not identifiable.
    solvable = det > 1e-14 * np.maximum(1.0, n * sxx)
    det = np.where(solvable, det, 1.0)
    floor_b = np.maximum((sv - A_FLOOR * sx) / n, 0.0)
    a = np.where(solvable, (n * sxv - sx * sv) / det, A_FLOOR)
    b = np.where(solvable, (sv * sxx - sx * sxv) / det, floor_b)
    negative_b = b < 0.0
    through_origin = np.divide(sxv, sxx, out=np.full_like(sxx, A_FLOOR), where=sxx > 0)
    a = np.where(negative_b, through_origin, a)
    b = np.where(negative_b, 0.0, b)
    low_a = a < A_FLOOR
    a = np.where(low_a, A_FLOOR, a)
    b = np.where(low_a, floor_b, b)
    resid = v - (a[:, None] * x + b[:, None])
    return a, b, np.einsum("ij,ij->i", resid, resid)


#: A fitted alpha within this distance of ALPHA_MIN or ALPHA_MAX sits at
#: the edge.  A fit whose SSE still falls at an edge returns that edge
#: exactly; the tolerance also catches optima just inside it.
_EDGE_TOL = 1e-6


def fit_scaling_law(observations) -> ScalingFit:
    """Fit (a, alpha, b) by least squares in variance space.

    Strategy: profile out (a, b) by constrained linear least squares at
    each alpha (variable projection), scan a 120-point log-spaced alpha
    grid over [ALPHA_MIN, ALPHA_MAX], then zoom: rescan 33 evenly spaced
    alphas between the best point's two neighbours until they are less
    than 1e-12 apart.  The best scanned point is returned; ties go to the
    smaller alpha.  All-equal variances are a degenerate case: the flat
    law (b = common value, a at its floor) is returned and flagged rather
    than rejected.
    """
    obs = list(observations)
    if len(obs) < 3:
        raise InsufficientDataError(
            f"fit_scaling_law needs at least 3 observations, got {len(obs)}"
        )
    for o in obs:
        if not isinstance(o, ScalingObservation):
            raise ParameterError(f"expected ScalingObservation, got {type(o).__name__}")
    s = np.array([o.s for o in obs], dtype=np.float64)
    v = np.array([o.variance for o in obs], dtype=np.float64)
    if len(set(s.tolist())) < 3:
        raise UnderdeterminedFitError(
            "fit_scaling_law needs observations at >= 3 distinct sizes"
        )

    v_mean = float(v.mean())
    sst = float(np.dot(v - v_mean, v - v_mean))
    if sst == 0.0:
        law = ScalingLaw(A_FLOOR, ALPHA_MIN, v_mean)
        resid = v - (A_FLOOR * s ** (-ALPHA_MIN) + v_mean)
        return ScalingFit(
            law=law,
            r_squared=1.0,
            residuals=resid,
            alpha_ge_one=False,
            degenerate=True,
            boundary=False,
        )

    log_s = np.log(s)
    alphas = np.geomspace(ALPHA_MIN, ALPHA_MAX, 120)
    while True:
        a, b, sse = _profile(alphas, log_s, v)
        best = int(np.argmin(sse))  # ties resolve to the smaller alpha
        lo = alphas[max(best - 1, 0)]
        hi = alphas[min(best + 1, alphas.shape[0] - 1)]
        if hi - lo < 1e-12:
            break
        alphas = np.linspace(lo, hi, 33)
    alpha, a, b, sse = (float(arr[best]) for arr in (alphas, a, b, sse))

    law = ScalingLaw(a=a, alpha=alpha, b=b)
    residuals = v - (a * s ** (-alpha) + b)
    return ScalingFit(
        law=law,
        r_squared=1.0 - sse / sst,
        residuals=residuals,
        alpha_ge_one=alpha >= 1.0,
        degenerate=False,
        boundary=min(alpha - ALPHA_MIN, ALPHA_MAX - alpha) < _EDGE_TOL,
    )


def log_log_diagnostic(fit: ScalingFit, observations) -> LogLogDiagnostic:
    """Transform observations to (log s, log(variance - b)) coordinates.

    Under the fitted law these points lie on a straight line with slope
    ``-alpha``.  Points at or below the noise floor are dropped and counted.
    """
    obs = list(observations)
    b = fit.law.b
    points: list[tuple[float, float]] = []
    dropped = 0
    for o in obs:
        if o.variance > b:
            points.append((float(np.log(o.s)), float(np.log(o.variance - b))))
        else:
            dropped += 1
    return LogLogDiagnostic(points=tuple(points), dropped=dropped)


def fit_report_dict(fit: ScalingFit) -> dict:
    """JSON-ready summary of a fit (stable field order)."""
    return {
        "a": fit.law.a,
        "alpha": fit.law.alpha,
        "b": fit.law.b,
        "r_squared": fit.r_squared,
        "alpha_ge_one_flag": fit.alpha_ge_one,
        "boundary_flag": fit.boundary,
        "degenerate_flag": fit.degenerate,
    }


def _check_observations_header(path: str, header: list[str]) -> None:
    if header != ["s", "variance"]:
        raise CsvFormatError(
            f"{path}: expected header 's,variance', got {','.join(header)}"
        )


def _observations(_, mat: np.ndarray) -> list[ScalingObservation]:
    out = []
    for i, (s_val, variance) in enumerate(mat):
        if not np.isfinite(s_val) or s_val != int(s_val):
            raise _RowError(i, f", column s: expected an integer, got {s_val}")
        try:
            out.append(ScalingObservation(s=int(s_val), variance=float(variance)))
        except ParameterError as exc:
            raise _RowError(i, f": {exc}") from exc
    return out


def read_observations_csv(path: str, workers: int = 1) -> list[ScalingObservation]:
    """Read scaling observations from a CSV with header ``s,variance``."""
    return _read_csv(path, _check_observations_header, _observations, workers)[1]
