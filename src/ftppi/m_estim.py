"""Rectified M-estimation: losses, solver, and sandwich covariance.

The rectified empirical risk replaces unknown labels on the big pool
with predictions and debiases with the labeled rectification subset:

    L(theta) = mean_i[ loss(x_i, y_i; theta) - loss(x_i, f(x_i); theta) ]
             + mean_j[ loss(x_tilde_j, f(x_tilde_j); theta) ].

Its minimizer is asymptotically normal with a sandwich covariance
H^-1 (V_resid/(n-s) + V_pred/m) H^-1, where H is the mean Hessian on
the labeled rectification subset and the V's are score covariances.

Built-in losses cover scalar means, categorical frequency vectors,
linear regression, and multinomial choice with an outside option.
Categorical outcomes are integer labels 1..d; choice outcomes are
0..K with 0 meaning "none of the options".  Predictors must emit hard
labels for these discrete losses.

The damped Newton solver evaluates the rectified risk one point at a
time: ``LossModel.rows`` runs once per feature array at each point, and
the objective, score and Hessian there, for both the true and the
predicted labels, share its result.  The value of an accepted trial step
is the next iteration's baseline.  The multinomial-choice kernels walk
the rows in blocks of ``_BLOCK_ROWS``, so their temporaries stay bounded
whatever the pool size; their ``rows`` carries the choice probabilities
at the point, so each is computed once per point and array.  Within a
block they reduce over the K options in column passes, one per option,
and pick each row's chosen option by its flat index; both give the same
bits as the row-wise reductions and 2-d gathers they replace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ConvergenceError,
    CsvFormatError,
    DomainError,
    InsufficientDataError,
    LabeledDataset,
    NumericalError,
    ParameterError,
    Predictor,
    SingularHessianError,
    UnlabeledDataset,
    _RowError,
    check_int,
    check_probability,
    _read_csv,
)
from .ppi_mean import normal_quantile

#: Hessians with a condition number beyond this are treated as singular.
CONDITION_LIMIT = 1e12
#: Convergence threshold on the max-norm of the rectified score.
SCORE_TOL = 1e-10
MAX_ITERATIONS = 200
#: Rows per block of the multinomial-choice kernels.
_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class LossModel:
    """A twice-differentiable loss, given only by its vectorized callables.

    The ``batch_*`` callables act on stacked arrays (features ``xs`` with
    one row per sample, outcomes ``ys``) and are what the solver and the
    sandwich use.  ``loss``, ``score`` and ``hessian`` evaluate a single
    (x, y, theta) by running them on a one-row batch.  ``width`` is the
    feature length a row must have, or None when the loss ignores x.
    """

    name: str
    dim: int
    batch_loss_mean: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    batch_score: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    batch_hessian_mean: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    width: int | None = None

    def _one_row(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(x, dtype=np.float64).reshape(1, -1)
        if self.width is not None and xs.shape[1] != self.width:
            raise DomainError(f"{self.name}: expected {self.width} features, got {xs.shape[1]}")
        return xs, np.array([float(y)])

    def loss(self, x, y: float, theta: np.ndarray) -> float:
        return self.batch_loss_mean(*self._one_row(x, y), theta)

    def score(self, x, y: float, theta: np.ndarray) -> np.ndarray:
        return self.batch_score(*self._one_row(x, y), theta)[0]

    def hessian(self, x, y: float, theta: np.ndarray) -> np.ndarray:
        return self.batch_hessian_mean(*self._one_row(x, y), theta)

    def rows(self, xs: np.ndarray, theta: np.ndarray):
        """Features for the ``batch_*`` callables at ``theta``, with any work they share.

        ``xs`` itself here.  The multinomial choice loss bundles the choice
        probabilities at ``theta`` with its features, so that every call at
        one point shares a single evaluation of them.
        """
        return xs


@dataclass(frozen=True)
class SandwichCovariance:
    """Pieces of the sandwich: bread (H) and both filling covariances."""

    h_hat: np.ndarray
    v_resid: np.ndarray
    v_pred: np.ndarray
    sigma_hat: np.ndarray
    n_ppi: int
    m: int


@dataclass(frozen=True)
class MEstimateReport:
    """Estimate, covariance, per-coordinate intervals, and scalar summaries."""

    theta_hat: np.ndarray
    sigma_hat: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    delta: float
    nu_det: float
    nu_trace: float


# ---------------------------------------------------------------------------
# Built-in losses
# ---------------------------------------------------------------------------


def _label_indices(ys: np.ndarray, d: int, what: str, base: int) -> np.ndarray:
    """Integer labels in [base, d], or DomainError."""
    labs = np.rint(ys).astype(np.int64)
    if np.max(np.abs(ys - labs)) > 1e-6 or labs.min() < base or labs.max() > d:
        raise DomainError(
            f"{what}: labels must be integers in [{base}, {d}]"
        )
    return labs


def _one_hot_matrix(ys: np.ndarray, d: int) -> np.ndarray:
    """One-hot rows of categorical labels 1..d."""
    labs = _label_indices(ys, d, "categorical", base=1)
    out = np.zeros((ys.shape[0], d))
    out[np.arange(ys.shape[0]), labs - 1] = 1.0
    return out


def _squared_loss(name: str, d: int, target: Callable[[np.ndarray], np.ndarray]) -> LossModel:
    """Squared distance to a target row per outcome: loss = |target(y) - theta|^2 / 2.

    The minimizer is the mean target row; ``target`` maps n outcomes to an
    (n, d) matrix.
    """
    eye = np.eye(d)

    def batch_loss_mean(xs, ys, theta):
        diff = target(ys) - theta[None, :]
        return float(np.mean(0.5 * np.sum(diff * diff, axis=1)))

    def batch_score(xs, ys, theta):
        return theta[None, :] - target(ys)

    def batch_hessian_mean(xs, ys, theta):
        return eye.copy()

    return LossModel(name, d, batch_loss_mean, batch_score, batch_hessian_mean)


def mean_loss() -> LossModel:
    """Squared loss whose minimizer is the mean: loss = (y - theta)^2 / 2."""
    return _squared_loss("mean", 1, lambda ys: ys[:, None])


def categorical_loss(d: int) -> LossModel:
    """Squared loss on one-hot labels; the minimizer is the class-frequency vector.

    Outcomes are integer labels in 1..d.
    """
    d = check_int(d, "categorical_loss: d", 2)
    return _squared_loss("categorical", d, lambda ys: _one_hot_matrix(ys, d))


def linear_regression_loss(d: int) -> LossModel:
    """Least squares: loss = (y - x.theta)^2 / 2 with d regression coefficients."""
    d = check_int(d, "linear_regression_loss: d", 1)

    def batch_loss_mean(xs, ys, theta):
        r = ys - xs @ theta
        return float(np.mean(0.5 * r * r))

    def batch_score(xs, ys, theta):
        return xs * (xs @ theta - ys)[:, None]

    def batch_hessian_mean(xs, ys, theta):
        return xs.T @ xs / xs.shape[0]

    return LossModel("ols", d, batch_loss_mean, batch_score, batch_hessian_mean, width=d)


class _ChoiceRows(NamedTuple):
    """Choice features with the probabilities every mnl callable needs at one theta."""

    xs: np.ndarray
    theta: bytes  # float64 bytes of the theta that p and lse belong to
    p: np.ndarray  # choice probabilities, n x K
    lse: np.ndarray  # per-row log-sum-exp of the utilities, the outside option's being 0


def _choice_blocks(xs: np.ndarray, K: int, d: int):
    """(row slice, its rows as an (rows, K, d) array) for each row block of ``xs``."""
    for lo in range(0, xs.shape[0], _BLOCK_ROWS):
        span = slice(lo, lo + _BLOCK_ROWS)
        yield span, xs[span].reshape(-1, K, d)


def _choice_rows(xs, theta, K: int, d: int) -> _ChoiceRows:
    """``xs``, raw or a ``_ChoiceRows``, with its choice probabilities at ``theta``.

    A ``_ChoiceRows`` built at this very theta is returned as it is; one
    built at another theta is recomputed from its features.
    """
    theta = np.asarray(theta, dtype=np.float64)
    key = theta.tobytes()
    if isinstance(xs, _ChoiceRows):
        if xs.theta == key:
            return xs
        xs = xs.xs
    p = np.empty((xs.shape[0], K))
    lse = np.empty(xs.shape[0])
    for span, X in _choice_blocks(xs, K, d):
        u = np.einsum("nkd,d->nk", X, theta)
        # The max over options runs as K - 1 passes over columns: numpy
        # reduces a short trailing axis slowly, and a max is exact in any
        # order.  The sum stays a reduction: from K = 9 on numpy sums the
        # options pairwise, which column passes would not reproduce.
        top = np.maximum(0.0, u[:, 0])
        for k in range(1, K):
            np.maximum(top, u[:, k], out=top)
        u -= top[:, None]
        np.exp(u, out=u)
        denom = np.exp(-top) + u.sum(axis=1)
        lse[span] = top + np.log(denom)
        np.divide(u, denom[:, None], out=p[span])
    return _ChoiceRows(xs, key, p, lse)


def _chosen(lab: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """A block's rows that chose an option, and each choice's flat index row * K + label - 1."""
    chose = np.flatnonzero(lab)
    return chose, chose * K + (lab[chose] - 1)


class _ChoiceLoss(LossModel):
    """The model ``mnl_loss`` builds: its ``rows`` carry the choice probabilities."""

    def rows(self, xs: np.ndarray, theta: np.ndarray) -> _ChoiceRows:
        return _choice_rows(xs, theta, self.width // self.dim, self.dim)


def mnl_loss(n_options: int, dim_per_option: int) -> LossModel:
    """Multinomial choice likelihood with an outside option.

    A sample's feature vector stacks the K option vectors (row-major:
    option 1's features, then option 2's, ...), and the outcome is the
    chosen index in 0..K, 0 meaning the outside option.  The loss is the
    negative log-likelihood; its minimizer recovers the utility weights.

    The callables work through the rows in blocks of ``_BLOCK_ROWS``, so
    no temporary grows with n beyond the (n, K) probability matrix.  They
    take raw features or the model's ``rows(xs, theta)``, which carries
    that matrix: calls on one ``rows`` value at its theta share a single
    evaluation of the probabilities, and a call at another theta
    recomputes them.
    """
    K = check_int(n_options, "mnl_loss: n_options", 1)
    d = check_int(dim_per_option, "mnl_loss: dim_per_option", 1)

    def batch_loss_mean(xs, ys, theta):
        labs = _label_indices(ys, K, "mnl", base=0)
        at = _choice_rows(xs, theta, K, d)
        picked = np.zeros(at.xs.shape[0])
        for span, X in _choice_blocks(at.xs, K, d):
            chose, flat = _chosen(labs[span], K)
            picked[span.start + chose] = np.take(X.reshape(-1, d), flat, axis=0) @ theta
        return float(np.mean(at.lse - picked))

    def batch_score(xs, ys, theta):
        labs = _label_indices(ys, K, "mnl", base=0)
        at = _choice_rows(xs, theta, K, d)
        out = np.empty((at.xs.shape[0], d))
        for span, X in _choice_blocks(at.xs, K, d):
            resid = at.p[span].copy()
            resid.reshape(-1)[_chosen(labs[span], K)[1]] -= 1.0
            out[span] = np.einsum("nkd,nk->nd", X, resid)
        return out

    def batch_hessian_mean(xs, ys, theta):
        at = _choice_rows(xs, theta, K, d)
        full = np.zeros((d, d))
        outer = np.zeros((d, d))
        for span, X in _choice_blocks(at.xs, K, d):
            pb = at.p[span]
            full += (X * pb[:, :, None]).reshape(-1, d).T @ X.reshape(-1, d)
            g = np.einsum("nkd,nk->nd", X, pb)
            outer += g.T @ g
        n = at.xs.shape[0]
        return full / n - outer / n

    return _ChoiceLoss("mnl", d, batch_loss_mean, batch_score, batch_hessian_mean, width=K * d)


def builtin_loss(kind: str, **kwargs) -> LossModel:
    """Look up a built-in loss by name: mean, categorical, ols, or mnl."""
    if kind == "mean":
        return mean_loss()
    if kind == "categorical":
        return categorical_loss(kwargs.get("dim"))
    if kind == "ols":
        return linear_regression_loss(kwargs.get("dim"))
    if kind == "mnl":
        return mnl_loss(kwargs.get("n_options"), kwargs.get("dim"))
    raise ParameterError(f"unknown loss kind {kind!r} (expected mean|categorical|ols|mnl)")


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


def _check_condition(h: np.ndarray, what: str) -> None:
    """SingularHessianError unless ``h``'s condition number is finite and within CONDITION_LIMIT."""
    cond = np.linalg.cond(h)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularHessianError(
            f"{what} is numerically singular (condition ~{cond:.3e})", condition=float(cond)
        )


class _Point(NamedTuple):
    """The rectified objective, mean score and mean Hessian at ``theta``."""

    theta: np.ndarray
    objective: Callable[[], float]
    score: Callable[[], np.ndarray]
    hessian: Callable[[], np.ndarray]


def _rectified_pieces(loss: LossModel, labeled_ppi, unlabeled, f) -> Callable[[np.ndarray], _Point]:
    """Evaluator of the rectified risk, one point at a time.

    At each theta, ``loss.rows`` runs once on the labeled features and
    once on the pool's; all three pieces, and both label vectors of the
    labeled rows, share those results.
    """
    xl, yl = labeled_ppi.xs, labeled_ppi.ys
    fl = f.on(labeled_ppi)
    xu = unlabeled.xs
    fu = f.on(unlabeled)

    def mean_score(xs, ys, theta):
        return loss.batch_score(xs, ys, theta).mean(axis=0)

    def at(theta: np.ndarray) -> _Point:
        rl, ru = loss.rows(xl, theta), loss.rows(xu, theta)

        def rectified(mean_over):
            return lambda: (
                mean_over(rl, yl, theta) - mean_over(rl, fl, theta) + mean_over(ru, fu, theta)
            )

        return _Point(
            theta,
            rectified(loss.batch_loss_mean),
            rectified(mean_score),
            rectified(loss.batch_hessian_mean),
        )

    return at


def solve_ppi_m_estimator(
    loss: LossModel,
    labeled_ppi: LabeledDataset,
    unlabeled: UnlabeledDataset,
    f: Predictor,
) -> np.ndarray:
    """Minimize the rectified empirical risk by damped Newton from theta = 0.

    Newton steps with objective-based step halving; if the rectified
    Hessian is numerically singular the step falls back to plain gradient
    descent.  The objective is evaluated once per point: an accepted
    step's value is the next iteration's baseline.  Convergence means the
    rectified score's max-norm drops below 1e-10; running out of
    iterations raises ConvergenceError with the last iterate attached.
    """
    theta = np.zeros(loss.dim)
    at = _rectified_pieces(loss, labeled_ppi, unlabeled, f)

    # Rebinding ``point`` releases the previous point's shared work once
    # the next one exists.
    point = at(theta)
    g = point.score()
    base = point.objective()
    for _ in range(MAX_ITERATIONS):
        norm = float(np.max(np.abs(g)))
        if norm < SCORE_TOL:
            return theta
        H = point.hessian()
        try:
            _check_condition(H, "rectified Hessian")
            direction = np.linalg.solve(H, -g)
        except (SingularHessianError, np.linalg.LinAlgError):
            direction = -g
        step = 1.0
        halvings = 0
        point = at(theta + step * direction)
        value = point.objective()
        while value > base and halvings < 60:
            step *= 0.5
            halvings += 1
            point = at(theta + step * direction)
            value = point.objective()
        if halvings >= 60:
            raise ConvergenceError(
                "step halving stalled before the score converged",
                last_iterate=theta,
                score_norm=norm,
            )
        theta, base = point.theta, value
        g = point.score()

    raise ConvergenceError(
        f"no convergence in {MAX_ITERATIONS} iterations "
        f"(score max-norm {float(np.max(np.abs(g))):.3e})",
        last_iterate=theta,
        score_norm=float(np.max(np.abs(g))),
    )


# ---------------------------------------------------------------------------
# Covariance
# ---------------------------------------------------------------------------


def _covariance(rows: np.ndarray) -> np.ndarray:
    centered = rows - rows.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (rows.shape[0] - 1)
    return 0.5 * (cov + cov.T)


def _repair_psd(sigma: np.ndarray) -> np.ndarray:
    sigma = 0.5 * (sigma + sigma.T)
    eigvals, eigvecs = np.linalg.eigh(sigma)
    trace = float(np.trace(sigma))
    floor = -1e-8 * max(trace, 0.0)
    if eigvals.min() < floor:
        raise NumericalError(
            f"covariance has eigenvalue {eigvals.min():.3e}, "
            f"below the repairable floor {floor:.3e}"
        )
    if eigvals.min() < 0.0:
        eigvals = np.clip(eigvals, 0.0, None)
        sigma = (eigvecs * eigvals) @ eigvecs.T
        sigma = 0.5 * (sigma + sigma.T)
    return sigma


def sandwich_covariance(
    loss: LossModel,
    labeled_ppi: LabeledDataset,
    unlabeled: UnlabeledDataset,
    f: Predictor,
    theta_hat: np.ndarray,
) -> SandwichCovariance:
    """Sandwich covariance of the rectified M-estimate.

    V_resid is the covariance of per-sample score differences
    score(x, y) - score(x, f(x)) on the rectification subset (divisor
    n_ppi - 1); V_pred is the covariance of score(x~, f(x~)) on the pool
    (divisor m - 1); H is the mean Hessian on the rectification subset
    with true labels.  The product H^-1 (...) H^-1 is formed by linear
    solves, never an explicit inverse.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64).reshape(-1)
    if theta_hat.shape != (loss.dim,):
        raise ParameterError(f"theta_hat must have shape ({loss.dim},)")
    if labeled_ppi.n < loss.dim + 1:
        raise InsufficientDataError(
            f"sandwich needs n_ppi >= dim+1 ({loss.dim + 1}), got {labeled_ppi.n}"
        )
    if unlabeled.m < loss.dim + 1:
        raise InsufficientDataError(
            f"sandwich needs m >= dim+1 ({loss.dim + 1}), got {unlabeled.m}"
        )
    rl = loss.rows(labeled_ppi.xs, theta_hat)
    yl, fl = labeled_ppi.ys, f.on(labeled_ppi)
    delta_scores = loss.batch_score(rl, yl, theta_hat) - loss.batch_score(rl, fl, theta_hat)
    v_resid = _covariance(delta_scores)
    pool_scores = loss.batch_score(unlabeled.xs, f.on(unlabeled), theta_hat)
    v_pred = _covariance(pool_scores)

    h_hat = loss.batch_hessian_mean(rl, yl, theta_hat)
    h_hat = 0.5 * (h_hat + h_hat.T)
    _check_condition(h_hat, "mean Hessian")

    middle = v_resid / labeled_ppi.n + v_pred / unlabeled.m
    sigma = np.linalg.solve(h_hat, np.linalg.solve(h_hat, middle).T).T
    sigma = _repair_psd(sigma)
    return SandwichCovariance(
        h_hat=h_hat,
        v_resid=v_resid,
        v_pred=v_pred,
        sigma_hat=sigma,
        n_ppi=labeled_ppi.n,
        m=unlabeled.m,
    )


def scalarize(v: np.ndarray, h: np.ndarray, mode: str) -> float:
    """Collapse a score covariance to a scalar for allocation decisions.

    ``det`` returns det(V)^(1/d), tracking confidence-ellipsoid volume;
    ``trace`` returns tr(H^-1 H^-1 V), tracking summed coordinate MSE.
    Either scalar decays in s like a power law plus floor, so the same
    split solver applies downstream.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ParameterError(f"scalarize: V must be square, got {v.shape}")
    if np.max(np.abs(v - v.T)) > 1e-10 * max(1.0, float(np.max(np.abs(v)))):
        raise ParameterError("scalarize: V must be symmetric")
    d = v.shape[0]
    if mode == "det":
        det = float(np.linalg.det(v))
        if det < -1e-10:
            raise NumericalError(f"scalarize: determinant {det:.3e} is negative beyond tolerance")
        return float(max(det, 0.0) ** (1.0 / d))
    if mode == "trace":
        h = np.asarray(h, dtype=np.float64)
        if h.shape != v.shape:
            raise ParameterError(f"scalarize: H must match V's shape, got {h.shape}")
        _check_condition(h, "scalarize: H")
        return float(np.trace(np.linalg.solve(h, np.linalg.solve(h, v))))
    raise ParameterError(f"scalarize: mode must be 'det' or 'trace', got {mode!r}")


def m_estimate_ci(
    cov: SandwichCovariance, theta_hat: np.ndarray, delta: float
) -> MEstimateReport:
    """Per-coordinate normal intervals plus both scalar summaries."""
    delta = check_probability(delta, "delta")
    theta_hat = np.asarray(theta_hat, dtype=np.float64).reshape(-1)
    d = cov.sigma_hat.shape[0]
    if theta_hat.shape != (d,):
        raise ParameterError(f"theta_hat must have shape ({d},)")
    z = normal_quantile(1.0 - delta / 2.0)
    half = z * np.sqrt(np.clip(np.diag(cov.sigma_hat), 0.0, None))
    return MEstimateReport(
        theta_hat=theta_hat,
        sigma_hat=cov.sigma_hat,
        ci_low=theta_hat - half,
        ci_high=theta_hat + half,
        delta=delta,
        nu_det=scalarize(cov.v_resid, cov.h_hat, "det"),
        nu_trace=scalarize(cov.v_resid, cov.h_hat, "trace"),
    )


# ---------------------------------------------------------------------------
# Choice-data CSV ingestion: header ``choice,x_1_1,...,x_K_d`` where x_k_j
# is feature j of option k.  Unlabeled files drop the choice column.
# ---------------------------------------------------------------------------


def _parse_option_header(path: str, names: list[str]) -> tuple[int, int]:
    if not names:
        raise CsvFormatError(f"{path}: no option feature columns found")
    pairs = []
    for name in names:
        parts = name.split("_")
        if len(parts) != 3 or parts[0] != "x":
            raise CsvFormatError(
                f"{path}: expected option columns named x_<k>_<j>, got {name!r}"
            )
        try:
            pairs.append((int(parts[1]), int(parts[2])))
        except ValueError:
            raise CsvFormatError(
                f"{path}: expected option columns named x_<k>_<j>, got {name!r}"
            ) from None
    K = max(p[0] for p in pairs)
    d = max(p[1] for p in pairs)
    expected = [(k, j) for k in range(1, K + 1) for j in range(1, d + 1)]
    if pairs != expected:
        raise CsvFormatError(
            f"{path}: option columns must be x_1_1..x_{K}_{d} in row-major order"
        )
    return K, d


def _check_choice_header(path: str, header: list[str]) -> tuple[int, int]:
    if not header or header[0] != "choice":
        raise CsvFormatError(f"{path}: first column must be 'choice', got {header[:1]}")
    return _parse_option_header(path, header[1:])


def _choice_dataset(options: tuple[int, int], mat: np.ndarray) -> LabeledDataset:
    K = options[0]
    choices = mat[:, 0]
    labs = np.rint(choices)
    bad = np.nonzero((np.abs(choices - labs) > 1e-9) | (labs < 0) | (labs > K))[0]
    if bad.size:
        raise _RowError(
            bad[0], f", column choice: must be an integer in [0, {K}], got {choices[bad[0]]}"
        )
    return LabeledDataset(mat[:, 1:], choices)


def read_choice_labeled_csv(path: str, workers: int = 1) -> tuple[LabeledDataset, int, int]:
    """Read choice data; returns (dataset, n_options, features per option)."""
    (K, d), data = _read_csv(path, _check_choice_header, _choice_dataset, workers)
    return data, K, d


def read_choice_unlabeled_csv(path: str, workers: int = 1) -> tuple[UnlabeledDataset, int, int]:
    """Read option features without choices; returns (dataset, K, d)."""
    (K, d), mat = _read_csv(path, _parse_option_header, workers=workers)
    return UnlabeledDataset._adopt(mat), K, d
