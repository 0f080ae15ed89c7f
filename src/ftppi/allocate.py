"""Optimal labeled-budget split between fine-tuning and rectification.

Given n labeled samples and a residual-variance law, spending s on
fine-tuning leaves n - s for rectification, so (ignoring the unlabeled
pool, which the labeled split does not touch) the estimator variance is
proportional to

    objective(s) = (a * s**(-alpha) + b) / (n - s).

The minimizer balances a better surrogate against fewer rectification
samples.  The stationarity condition in s,

    alpha*a*n*s**(-alpha-1) - (alpha+1)*a*s**(-alpha) - b = 0,

has a strictly decreasing left-hand side on (0, n) with opposite signs at
the endpoints, so bisection pins the unique root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, ParameterError, check_int
from .scaling import ScalingLaw

#: Relative bracket endpoints and stopping width for the bisection.
BRACKET_EPS = 1e-9
BRACKET_TOL = 1e-10


@dataclass(frozen=True)
class AllocationResult:
    """Solver output: real and integer optima plus feasibility context."""

    s_star_real: float
    s_star_int: int
    fraction: float
    objective_value: float
    objective_value_int: float
    feasible: bool
    threshold: float | None
    diagnostics: str


@dataclass(frozen=True)
class FeasibilityInput:
    """Inputs for the can-the-surrogate-help-at-all check."""

    law: ScalingLaw
    n: int
    sigma_sq: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int(self.n, "n", 2))
        if not np.isfinite(self.sigma_sq) or self.sigma_sq <= 0:
            raise ParameterError(
                f"FeasibilityInput.sigma_sq must be finite and > 0, got {self.sigma_sq}"
            )


def foc_residual(law: ScalingLaw, n: int, s: float) -> float:
    """Stationarity residual of the split objective at interior point s.

    Positive means s is below the optimum, negative above.
    """
    n = check_int(n, "n", 2)
    if not np.isfinite(s) or not 0 < s < n:
        raise DomainError(f"foc_residual: s must lie in (0, n), got s={s}, n={n}")
    a, alpha, b = law.a, law.alpha, law.b
    s = float(s)
    return alpha * a * n * s ** (-alpha - 1.0) - (alpha + 1.0) * a * s ** (-alpha) - b


def allocation_objective(law: ScalingLaw, n: int, s: float) -> float:
    """Residual variance per rectification sample, (a*s^-alpha + b)/(n-s)."""
    n = check_int(n, "n", 2)
    if not np.isfinite(s) or not 0 < s < n:
        raise DomainError(f"allocation_objective: s must lie in (0, n), got s={s}")
    s = float(s)
    return (law.a * s ** (-law.alpha) + law.b) / (n - s)


def _solve_root(law: ScalingLaw, n: float) -> float:
    """Bisection for the stationarity root on (0, n); n may be real here.

    The residual is bisected times s**(alpha+1)/a > 0: same sign, but no
    negative power of s to overflow near s = 0, and the floor term
    saturates to +inf where s**(alpha+1) overflows.  Where b/a overflows,
    the residual's two terms are compared by their logs instead, which
    gives the same sign.  The bracket stops at width
    BRACKET_TOL * min(n, 100 * lo), so a root below n / 100 is known to the
    same relative precision, 1e-8, as a root at n / 100.
    """
    alpha, b_over_a = law.alpha, law.b / law.a
    if math.isinf(b_over_a):
        log_b_over_a = math.log(law.b) - math.log(law.a)

        def foc(s: float) -> float:
            head = alpha * n - (alpha + 1.0) * s
            if head <= 0.0 or s == 0.0:
                return head  # the residual's sign, which is all the bisection reads
            return math.log(head) - log_b_over_a - (alpha + 1.0) * math.log(s)
    else:

        def foc(s: float) -> float:
            try:
                floor_term = b_over_a * s ** (alpha + 1.0) if b_over_a else 0.0
            except OverflowError:
                floor_term = math.inf
            return alpha * n - (alpha + 1.0) * s - floor_term

    lo = BRACKET_EPS * n
    hi = n - BRACKET_EPS * n
    f_lo = foc(lo)
    f_hi = foc(hi)
    # foc is alpha * n > 0 at 0 and negative at n, so a root the bracket
    # misses (alpha below about 1e-9 or above about 1e9, for b = 0) lies
    # beyond an end: that end bounds it, and the bracket's other end moves
    # from it halfway toward 0 or n at a time until it passes the root.
    while f_lo <= 0.0 < lo:
        hi, f_hi, lo = lo, f_lo, 0.5 * lo
        f_lo = foc(lo)
    gap = n - hi
    while f_hi > 0.0 < gap:
        lo, f_lo, gap = hi, f_hi, 0.5 * gap
        hi = n - gap
        f_hi = foc(hi)
    if not (f_lo > 0.0 >= f_hi and lo > 0.0):
        # a root below the smallest float, or overflow pathologies: refuse
        # rather than return a wrong root
        raise DomainError(
            f"stationarity residual does not bracket a root on ({lo}, {hi}): "
            f"f(lo)={f_lo}, f(hi)={f_hi}"
        )
    while hi - lo > BRACKET_TOL * min(n, 100.0 * lo):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is down to adjacent floats
            break
        if foc(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_optimal_allocation(
    law: ScalingLaw, n: int, sigma_sq: float | None = None
) -> AllocationResult:
    """Solve for the optimal fine-tuning share of n labeled samples.

    Returns both the real-valued optimum and the best integer choice
    (neighbors of the real optimum compared on the objective).  The
    integer size is clamped so at least 2 samples remain for
    rectification; when that forces a move, a diagnostic says so.
    When ``sigma_sq`` is given, a feasibility verdict (can the surrogate
    route beat the plain sample mean at all?) is attached; otherwise
    ``feasible`` defaults to True with a note.
    """
    n = check_int(n, "n", 2)
    notes: list[str] = []
    s_real = _solve_root(law, float(n))

    s_int_cap = max(1, n - 2)
    if n - 2 < 1:
        notes.append("n too small to keep 2 rectification samples; using s=1")
    candidates = sorted(
        {
            min(max(int(c), 1), s_int_cap)
            for c in (math.floor(s_real), round(s_real), math.ceil(s_real))
        }
    )
    best_s = candidates[0]
    best_obj = allocation_objective(law, n, best_s)
    for c in candidates[1:]:
        obj = allocation_objective(law, n, c)
        if obj < best_obj:
            best_s, best_obj = c, obj
    if best_s != round(s_real) and (round(s_real) < 1 or round(s_real) > s_int_cap):
        notes.append(f"integer optimum clamped to [1, {s_int_cap}]")
    if n - best_s < 2:
        notes.append("fewer than 2 rectification samples remain")

    if sigma_sq is not None:
        feasible, threshold = check_feasibility(
            FeasibilityInput(law=law, n=n, sigma_sq=sigma_sq)
        )
        if not feasible:
            notes.append(
                "noise floor too high: surrogate route cannot beat the sample mean at this n"
            )
    else:
        feasible, threshold = True, None
        notes.append("feasibility not evaluated (sigma_sq not provided)")

    return AllocationResult(
        s_star_real=float(s_real),
        s_star_int=int(best_s),
        fraction=float(s_real / n),
        objective_value=allocation_objective(law, n, s_real),
        objective_value_int=float(best_obj),
        feasible=feasible,
        threshold=threshold,
        diagnostics="; ".join(notes),
    )


def variance_discriminant(inp: FeasibilityInput, s: float) -> float:
    """Variance advantage q(s) = sigma_sq*(n-s) - n*(a*s^-alpha + b).

    Positive q(s) means the surrogate route with split s beats the plain
    sample mean (unlabeled pool taken as effectively unlimited).
    """
    if not np.isfinite(s) or not 0 < s < inp.n:
        raise DomainError(f"variance_discriminant: s must lie in (0, n), got s={s}")
    law = inp.law
    s = float(s)
    return inp.sigma_sq * (inp.n - s) - inp.n * (law.a * s ** (-law.alpha) + law.b)


def check_feasibility(inp: FeasibilityInput) -> tuple[bool, float]:
    """Noise-floor feasibility: can any split beat the plain sample mean?

    Feasible iff  b/sigma_sq < 1 - (1 + 1/alpha) * (a*alpha*n^(-alpha)/sigma_sq)^(1/(alpha+1)).
    Equivalent to the variance advantage being positive at its peak.
    """
    law = inp.law
    threshold = 1.0 - (1.0 + 1.0 / law.alpha) * (
        law.a * law.alpha * float(inp.n) ** (-law.alpha) / inp.sigma_sq
    ) ** (1.0 / (law.alpha + 1.0))
    return bool(law.b / inp.sigma_sq < threshold), float(threshold)
