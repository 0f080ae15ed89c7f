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
    _data_line,
    _read_csv,
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
        if not isinstance(self.s, (int, np.integer)) or isinstance(self.s, bool):
            raise ParameterError(f"ScalingObservation.s must be an integer, got {self.s!r}")
        if self.s < 1:
            raise ParameterError(f"ScalingObservation.s must be >= 1, got {self.s}")
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
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool):
        raise DomainError(f"eval_variance: s must be an integer, got {s!r}")
    if s < 1:
        raise DomainError(f"eval_variance: s must be >= 1, got {s}")
    return float(law.a * float(s) ** (-law.alpha) + law.b)


def _profile_fit(x: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """Best (a, b) with a >= A_FLOOR, b >= 0 for fixed regressor x = s**(-alpha).

    Closed-form 2x2 least squares with constraint clamping; returns
    (a, b, sse).
    """
    n = x.shape[0]
    sx = float(x.sum())
    sxx = float((x * x).sum())
    sv = float(v.sum())
    sxv = float((x * v).sum())
    det = n * sxx - sx * sx
    if det > 1e-14 * max(1.0, n * sxx):
        a = (n * sxv - sx * sv) / det
        b = (sv * sxx - sx * sxv) / det
    else:
        # Regressor nearly constant: slope not identifiable at this alpha.
        a = A_FLOOR
        b = max((sv - a * sx) / n, 0.0)
    if b < 0.0:
        b = 0.0
        a = sxv / sxx if sxx > 0 else A_FLOOR
    if a < A_FLOOR:
        a = A_FLOOR
        b = max((sv - a * sx) / n, 0.0)
    resid = v - (a * x + b)
    return a, b, float(np.dot(resid, resid))


def _profile_sse(alpha: float, s: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    x = np.exp(-alpha * np.log(s))
    a, b, sse = _profile_fit(x, v)
    return a, b, sse


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
#: A fitted alpha this close to ALPHA_MIN or ALPHA_MAX sits at the edge
#: (the width at which the golden-section refinement may stop).
_EDGE_TOL = 1e-6


def fit_scaling_law(observations) -> ScalingFit:
    """Fit (a, alpha, b) by least squares in variance space.

    Strategy: profile out (a, b) by constrained linear least squares at
    each alpha, scan a log-spaced alpha grid over [0.01, 2.0], then refine
    alpha locally by golden-section until the objective improves by less
    than 1e-10 relative per step.  All-equal variances are a degenerate
    case: the flat law (b = common value, a at its floor) is returned and
    flagged rather than rejected.
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
    if np.unique(s).shape[0] < 3:
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

    grid = np.geomspace(ALPHA_MIN, ALPHA_MAX, 120)
    sses = np.empty_like(grid)
    for i, alpha in enumerate(grid):
        sses[i] = _profile_sse(float(alpha), s, v)[2]
    best = int(np.argmin(sses))  # ties resolve to the smaller alpha

    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, grid.shape[0] - 1)])
    best_sse = float(sses[best])

    # Golden-section refinement of alpha; (a, b) are re-profiled exactly at
    # every probe, so each step refines all three parameters.
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = _profile_sse(x1, s, v)[2]
    f2 = _profile_sse(x2, s, v)[2]
    for _ in range(200):
        if hi - lo < 1e-12:
            break
        prev = best_sse
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _profile_sse(x1, s, v)[2]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _profile_sse(x2, s, v)[2]
        best_sse = min(best_sse, f1, f2)
        if prev > 0 and (prev - best_sse) / prev < 1e-10 and hi - lo < 1e-6:
            break

    alpha = 0.5 * (lo + hi)
    a, b, sse = _profile_sse(alpha, s, v)
    # Keep whichever probe was actually best (guards against a final
    # midpoint evaluation being marginally worse than a bracket endpoint).
    for cand in (x1, x2, lo, hi):
        ca, cb, csse = _profile_sse(cand, s, v)
        if csse < sse:
            alpha, a, b, sse = cand, ca, cb, csse

    law = ScalingLaw(a=a, alpha=alpha, b=b)
    residuals = v - (a * s ** (-alpha) + b)
    r_squared = 1.0 - sse / sst
    return ScalingFit(
        law=law,
        r_squared=float(r_squared),
        residuals=residuals,
        alpha_ge_one=bool(alpha >= 1.0),
        degenerate=False,
        boundary=bool(min(alpha - ALPHA_MIN, ALPHA_MAX - alpha) < _EDGE_TOL),
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


def read_observations_csv(path: str) -> list[ScalingObservation]:
    """Read scaling observations from a CSV with header ``s,variance``."""
    _, mat = _read_csv(path, _check_observations_header)
    out = []
    for i in range(mat.shape[0]):
        s_val = mat[i, 0]
        if not np.isfinite(s_val) or s_val != int(s_val):
            raise CsvFormatError(
                f"{path}: row {_data_line(path, i)}, column s: expected an integer, got {s_val}"
            )
        try:
            out.append(ScalingObservation(s=int(s_val), variance=float(mat[i, 1])))
        except ParameterError as exc:
            raise CsvFormatError(f"{path}: row {_data_line(path, i)}: {exc}") from exc
    return out
