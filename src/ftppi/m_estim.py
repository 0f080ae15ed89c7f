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
time: ``LossModel.rows(xs, theta, labels)`` runs once per feature array
when a point is made, given the label vectors the point asks about, and
the objective, score and Hessian there share its result.  The value of
an accepted trial step is the next iteration's baseline.

No pool-sized array is built past the features: every sum over a
feature array's rows (the objectives, the mean score, the sandwich's
V_resid and V_pred and the choice Hessian) adds one partial sum per
block of ``_BLOCK_ROWS`` rows, in block order (``_ordered_sum``).  Both
of the sandwich's covariances are taken in one walk over their rows
(``_score_covariance``): per block, its row count, score sum and score
cross-product centred on the block's own mean, merged in block order.
The multinomial-choice kernels walk the rows, and check the labels, in
those blocks.  A block's utilities are one matrix-vector product over
its option rows, and its choice probabilities are computed from them
into its worker's scratch.  Their ``rows`` computes each block's
probabilities once and sums from them, in one walk, every label vector's
loss terms and the Hessian; a label vector's score sum is the column sum
of the rows g_i = X_i' p_i, which the Hessian forms, less that of the
chosen options' rows, so the solver builds no score row.  It holds only
those means, which the objective, ``mean_score`` and the Hessian read.
Within a block the kernels reduce over the K options in column passes,
one per option, and pick each row's chosen option by its flat index;
both give the same bits as the row-wise reductions and 2-d gathers they
replace.  Below ``_PAIRWISE_FROM`` options the sum over them runs in
column passes too.  ``workers`` runs the blocks on that many threads
(``core._threaded_blocks``): numpy releases the interpreter lock in the
blocks' matrix products and ufuncs, and each block writes its own rows,
so every result has the same bits for any thread count.  A mean over
zero rows raises InsufficientDataError naming the loss (``_nonempty``).
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
    _threaded_blocks,
    check_int,
    check_probability,
    _read_csv,
)
from .ppi_mean import normal_quantile

#: Hessians with a condition number beyond this are treated as singular.
CONDITION_LIMIT = 1e12
#: Convergence threshold on the max-norm of the rectified score.
SCORE_TOL = 1e-10
#: A trial step is halved only while its objective exceeds the base point's
#: by more than this many machine epsilons of the three means it sums.
ROUNDING_SLACK = 8 * float(np.finfo(np.float64).eps)
MAX_ITERATIONS = 200
#: Rows per block of the block-wise kernels and sums.
_BLOCK_ROWS = 8192
#: numpy's sum adds fewer values than this one after another, and this
#: many or more in eight partial sums (its pairwise summation; numpy 2.4).
_PAIRWISE_FROM = 8


@dataclass(frozen=True)
class LossModel:
    """A twice-differentiable loss, given only by its vectorized callables.

    The ``batch_*`` callables act on stacked arrays (features ``xs`` with
    one row per sample, outcomes ``ys``) and are what the solver and the
    sandwich use.  ``loss``, ``score`` and ``hessian`` evaluate a single
    (x, y, theta) by running them on a one-row batch.  ``width`` is the
    feature length a row must have, or None when the loss ignores x.
    ``batch_score`` returns a new array, which the sandwich may overwrite.
    ``workers`` is the thread count of the block-wise score sums.
    """

    name: str
    dim: int
    batch_loss_mean: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    batch_score: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    batch_hessian_mean: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    width: int | None = None
    workers: int = 1

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

    def rows(self, xs: np.ndarray, theta: np.ndarray, labels: tuple = ()):
        """Features for the ``batch_*`` callables at ``theta``, with any work they share.

        ``xs`` itself here.  The multinomial choice loss bundles its
        features with the mean Hessian at ``theta`` and, for each label
        vector in ``labels``, the loss mean and the mean score, all taken
        in one walk over the rows, so that every call at one point reads
        them.
        """
        return xs

    def mean_score(self, xs, ys: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """The column mean of ``batch_score``'s rows, which the solver and the sandwich use.

        The rows are built and summed block by block (``_block_mean``), on
        up to ``workers`` threads.
        """
        def block(span):
            return self.batch_score(xs[span], ys[span], theta).sum(axis=0)

        return _block_mean(self.name, block, ys.shape[0], self.workers)


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


def _spans(n: int) -> list[slice]:
    """The row slice of each block of an n-row array."""
    return [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, n, _BLOCK_ROWS)]


def _ordered_sum(parts):
    """The sum of ``parts``, added one after another from 0.0.

    Every pool sum here adds its blocks' partial sums this way, in block
    order, so that it has the same bits for any thread count.
    """
    total = 0.0
    for part in parts:
        total = total + part
    return total


def _nonempty(name: str, n: int) -> int:
    """``n``, or InsufficientDataError naming the loss when there are no rows to average."""
    if n == 0:
        raise InsufficientDataError(f"{name}: no rows to average over")
    return n


def _block_mean(name: str, fn, n: int, workers: int, scratch=()):
    """The mean over n rows whose blocks ``fn(span, *buffers)`` sums.

    The blocks run on up to ``workers`` threads, each with its own
    ``buffers`` (``core._threaded_blocks``), and their sums are added in
    block order (``_ordered_sum``).
    """
    parts = _threaded_blocks(fn, _spans(_nonempty(name, n)), workers, scratch)
    return _ordered_sum(parts) / n


def _label_indices(ys: np.ndarray, d: int, what: str, base: int) -> np.ndarray:
    """Integer labels in [base, d], or DomainError; no labels pass."""
    labs = np.rint(ys).astype(np.int64)
    if labs.size and (np.max(np.abs(ys - labs)) > 1e-6 or labs.min() < base or labs.max() > d):
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
    (n, d) matrix, which the objective builds block by block.
    """
    eye = np.eye(d)

    def batch_loss_mean(xs, ys, theta):
        def block(span):
            diff = target(ys[span]) - theta[None, :]
            return np.sum(0.5 * np.sum(diff * diff, axis=1))

        return float(_block_mean(name, block, ys.shape[0], 1))

    def batch_score(xs, ys, theta):
        return theta[None, :] - target(ys)

    def batch_hessian_mean(xs, ys, theta):
        _nonempty(name, ys.shape[0])
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
        def block(span):
            r = ys[span] - xs[span] @ theta
            return np.sum(0.5 * r * r)

        return float(_block_mean("ols", block, ys.shape[0], 1))

    def batch_score(xs, ys, theta):
        return xs * (xs @ theta - ys)[:, None]

    def batch_hessian_mean(xs, ys, theta):
        return xs.T @ xs / _nonempty("ols", xs.shape[0])

    return LossModel("ols", d, batch_loss_mean, batch_score, batch_hessian_mean, width=d)


class _ChoiceRows(NamedTuple):
    """Choice features with what every mnl callable shares at one theta."""

    xs: np.ndarray
    theta: bytes  # float64 bytes of the theta that the rest belongs to
    labels: tuple  # the label vectors whose means are held, by identity
    means: np.ndarray  # per label vector, its loss mean, then its mean score
    hessian: np.ndarray  # the mean Hessian, its blocks' partial sums added in block order


def _features(xs) -> np.ndarray:
    """The feature matrix of ``xs``, raw or a ``_ChoiceRows``."""
    return xs.xs if isinstance(xs, _ChoiceRows) else xs


def _held(xs, ys: np.ndarray, theta, K: int, d: int, workers: int) -> np.ndarray:
    """The loss mean, then the mean score, of labels ``ys`` at ``theta``.

    They are the values ``xs`` holds, if it is a ``_ChoiceRows`` built at
    this theta for this very ``ys``; else those of one ``_choice_rows``
    walk for ``ys`` alone.
    """
    rows = _choice_rows(xs, theta, K, d, workers, (ys,))
    return next(means for labels, means in zip(rows.labels, rows.means) if labels is ys)


def _block_probabilities(X: np.ndarray, theta: np.ndarray, out) -> np.ndarray:
    """Write a block's utilities at ``theta`` to ``out[0]`` and its choice probabilities
    to ``out[1]``; return its log-sum-exps.

    ``out`` is a pair of C-contiguous (rows, K) arrays, or one array twice
    when the utilities are not needed after.  The utilities are one
    matrix-vector product over the block's option rows,
    ``X.reshape(-1, d) @ theta``; the loss terms read the chosen options'
    utilities from ``out[0]``.
    """
    u, p = out
    K, d = X.shape[1:]
    options, utilities = X.reshape(-1, d), u.reshape(-1)
    # In parts of _BLOCK_ROWS option rows: OpenBLAS's matrix-vector product
    # touches scratch memory in proportion to its rows, and a row's utility
    # has the same bits in any part (TestNumpySummationOrder).
    for lo in range(0, options.shape[0], _BLOCK_ROWS):
        part = slice(lo, lo + _BLOCK_ROWS)
        np.matmul(options[part], theta, out=utilities[part])
    # The max and the sum over options run as K - 1 passes over columns:
    # numpy reduces a short trailing axis slowly.  A max is exact in any
    # order, and below _PAIRWISE_FROM options numpy's sum adds them in
    # sequence, as the passes do; from there on it sums them pairwise,
    # which the passes would not reproduce, so the reduction stays.
    top = np.maximum(0.0, u[:, 0])
    for k in range(1, K):
        np.maximum(top, u[:, k], out=top)
    np.subtract(u, top[:, None], out=p)
    np.exp(p, out=p)
    if K < _PAIRWISE_FROM:
        denom = p[:, 0].copy()
        for k in range(1, K):
            denom += p[:, k]
    else:
        denom = p.sum(axis=1)
    # exp(-top) + sum and top + log(denom), in place: addition commutes
    denom += np.exp(-top)
    p /= denom[:, None]
    lse = np.log(denom, out=denom)
    lse += top
    return lse


def _column_sum(rows: np.ndarray) -> np.ndarray:
    """The column sums of an (n, d) block, with the bits of numpy's ``sum(axis=0)``.

    For d >= 2 ``einsum`` adds the rows one after another, as numpy's sum
    does, several times faster; for one column the two group the rows
    differently (numpy's pairwise), so numpy's sum is taken.
    """
    return np.einsum("nd->d", rows) if rows.shape[1] > 1 else rows.sum(axis=0)


def _choice_rows(xs, theta, K: int, d: int, workers: int, labels: tuple = ()) -> _ChoiceRows:
    """``xs``, raw or a ``_ChoiceRows``, with its mean Hessian at ``theta`` and, for each
    label vector in ``labels``, its loss mean and mean score.

    A ``_ChoiceRows`` built at this very theta for these very label
    arrays is returned as it is; any other is recomputed from its
    features.  One walk over the blocks, on up to ``workers`` threads,
    computes each block's utilities and probabilities once, into its
    worker's scratch, and sums from them every label vector's loss terms
    and the Hessian; the blocks' sums are added in block order
    (``_block_mean``).  A label vector's score sum is the column sum of
    the rows g_i = X_i' p_i, which the Hessian forms, less the column
    sum of the chosen options' rows, so no score row is built.  No
    (n, K) matrix and no per-row column is kept.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if (
        isinstance(xs, _ChoiceRows)
        and xs.theta == theta.tobytes()
        and all(any(ys is held for held in xs.labels) for ys in labels)
    ):
        return xs
    xs = _features(xs)
    n = xs.shape[0]

    def partial(span, scratch):
        X = xs[span].reshape(-1, K, d)
        rows = X.shape[0]
        options = X.reshape(-1, d)
        # The scratch holds the products X_i' diag(p_i) feature by feature, as
        # (d, rows * K): numpy is slow on rows of d values.  The utilities
        # share its last rows * K values until the loss terms have read them,
        # and the probabilities follow it.
        XpT = scratch[: rows * K * d].reshape(d, rows * K)
        u = scratch[rows * K * (d - 1) : rows * K * d].reshape(rows, K)
        p = scratch[rows * K * d : rows * K * (d + 1)].reshape(rows, K)
        lse = _block_probabilities(X, theta, (u, p))
        means = np.empty((len(labels), 1 + d))
        chosen = []
        for j, ys in enumerate(labels):
            # the loss terms lse_i - u_{i, y_i}, whose chosen utilities sit at
            # the flat indices row * K + label - 1 (``_chosen``)
            chose, flat = _chosen(ys[span], K)
            picked = np.zeros(rows)
            picked[chose] = u.reshape(-1)[flat]
            means[j, 0] = np.sum(lse - picked)
            chosen.append(flat)
        # sum_i X_i' diag(p_i) X_i and sum_i g_i g_i', with g_i = X_i' p_i
        # added up over the options in K - 1 passes (held as g', (d, rows))
        np.multiply(options.T, p.reshape(-1), out=XpT)
        per_option = XpT.reshape(d, rows, K)
        gT = per_option[:, :, 0].copy()
        for k in range(1, K):
            gT += per_option[:, :, k]
        hessian = np.stack((options.T @ XpT.T, gT @ gT.T))
        # a score sum: the column sums of the g_i less those of the chosen
        # options' rows
        total = gT.sum(axis=1)
        for j, flat in enumerate(chosen):
            means[j, 1:] = total - _column_sum(np.take(options, flat, axis=0))
        return np.concatenate((hessian.reshape(-1), means.reshape(-1)))

    rows = min(n, _BLOCK_ROWS)
    sums = _block_mean("mnl", partial, n, workers, [(rows * K * (d + 1),)])
    full, outer = sums[: 2 * d * d].reshape(2, d, d)
    means = sums[2 * d * d :].reshape(len(labels), 1 + d)
    return _ChoiceRows(xs, theta.tobytes(), tuple(labels), means, full - outer)


def _chosen(ys: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """A block's rows that chose an option, and each choice's flat index row * K + label - 1.

    DomainError unless every label is an integer in [0, K].
    """
    lab = _label_indices(ys, K, "mnl", base=0)
    chose = np.flatnonzero(lab)
    return chose, chose * K + (lab[chose] - 1)


@dataclass(frozen=True)
class _ChoiceLoss(LossModel):
    """The model ``mnl_loss`` builds: its ``rows`` carry the means and the Hessian of a point."""

    def rows(self, xs: np.ndarray, theta: np.ndarray, labels: tuple = ()) -> _ChoiceRows:
        return _choice_rows(xs, theta, self.width // self.dim, self.dim, self.workers, labels)

    def mean_score(self, xs, ys: np.ndarray, theta: np.ndarray) -> np.ndarray:
        return _held(xs, ys, theta, self.width // self.dim, self.dim, self.workers)[1:].copy()


def mnl_loss(n_options: int, dim_per_option: int, workers: int = 1) -> LossModel:
    """Multinomial choice likelihood with an outside option.

    A sample's feature vector stacks the K option vectors (row-major:
    option 1's features, then option 2's, ...), and the outcome is the
    chosen index in 0..K, 0 meaning the outside option.  The loss is the
    negative log-likelihood; its minimizer recovers the utility weights.

    The callables work through the rows, and check the labels, in blocks
    of ``_BLOCK_ROWS``, on up to ``workers`` threads; every result is the
    same bits for any ``workers``.  They take raw features or the model's
    ``rows(xs, theta, labels)``, which holds the mean Hessian at theta
    and each label vector's loss mean and mean score: on it, the objective
    and ``mean_score`` of a held label vector, and the Hessian, are the
    values held.  Anything else runs the same walk (``_choice_rows``) for
    that label vector alone, so nothing of size n is built but the score
    rows that ``batch_score`` returns.

    A block's utilities are one matrix-vector product over its option
    rows.  A label vector's mean score is the column sum of the rows
    g_i = X_i' p_i, which the Hessian forms, less that of the chosen
    options' rows, added over the blocks; ``batch_score`` builds each row
    X_i' (p_i - e_{y_i}) itself, so the column mean of its rows agrees
    with ``mean_score`` to rounding, not in every bit.
    """
    K = check_int(n_options, "mnl_loss: n_options", 1)
    d = check_int(dim_per_option, "mnl_loss: dim_per_option", 1)
    workers = check_int(workers, "mnl_loss: workers", 1)

    def batch_loss_mean(xs, ys, theta):
        return float(_held(xs, ys, theta, K, d, workers)[0])

    def batch_score(xs, ys, theta):
        theta = np.asarray(theta, dtype=np.float64)
        feats = _features(xs)
        n = feats.shape[0]
        out = np.empty((n, d))

        def fill(span, scratch):
            X = feats[span].reshape(-1, K, d)
            resid = scratch[: X.shape[0]]
            _block_probabilities(X, theta, (resid, resid))
            # the rows X_i' (p_i - e_{y_i}), the chosen options' indicators
            # taken from the probabilities in place
            resid.reshape(-1)[_chosen(ys[span], K)[1]] -= 1.0
            np.einsum("nkd,nk->nd", X, resid, out=out[span])

        _threaded_blocks(fill, _spans(n), workers, [(min(n, _BLOCK_ROWS), K)])
        return out

    def batch_hessian_mean(xs, ys, theta):
        return _choice_rows(xs, theta, K, d, workers).hessian

    return _ChoiceLoss(
        "mnl", d, batch_loss_mean, batch_score, batch_hessian_mean, width=K * d, workers=workers
    )


def builtin_loss(kind: str, **kwargs) -> LossModel:
    """Look up a built-in loss by name: mean, categorical, ols, or mnl.

    ``dim`` sizes categorical, ols and mnl; mnl also takes ``n_options``
    and ``workers``, its kernels' thread count (default 1).
    """
    if kind == "mean":
        return mean_loss()
    if kind == "categorical":
        return categorical_loss(kwargs.get("dim"))
    if kind == "ols":
        return linear_regression_loss(kwargs.get("dim"))
    if kind == "mnl":
        return mnl_loss(kwargs.get("n_options"), kwargs.get("dim"), kwargs.get("workers", 1))
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
    """The rectified objective, mean score and mean Hessian at ``theta``.

    ``objective`` gives the value and the rounding slack of the three
    means it sums: ``ROUNDING_SLACK`` times the sum of their magnitudes.
    """

    theta: np.ndarray
    objective: Callable[[], tuple[float, float]]
    score: Callable[[], np.ndarray]
    hessian: Callable[[], np.ndarray]


def _rectified_pieces(loss: LossModel, labeled_ppi, unlabeled, f) -> Callable[[np.ndarray], _Point]:
    """Evaluator of the rectified risk, one point at a time.

    When a point is made, ``loss.rows`` runs once on the labeled
    features, with their labels and predictions, and once on the pool's,
    with its predictions; all three pieces share those results.
    """
    xl, yl = labeled_ppi.xs, labeled_ppi.ys
    fl = f.on(labeled_ppi)
    xu = unlabeled.xs
    fu = f.on(unlabeled)

    def at(theta: np.ndarray) -> _Point:
        rl, ru = loss.rows(xl, theta, (yl, fl)), loss.rows(xu, theta, (fu,))

        def means(mean_over):
            return mean_over(rl, yl, theta), mean_over(rl, fl, theta), mean_over(ru, fu, theta)

        def rectified(mean_over):
            def piece():
                on_y, on_fl, on_fu = means(mean_over)
                return on_y - on_fl + on_fu

            return piece

        def objective():
            on_y, on_fl, on_fu = means(loss.batch_loss_mean)
            slack = ROUNDING_SLACK * (abs(on_y) + abs(on_fl) + abs(on_fu))
            return on_y - on_fl + on_fu, slack

        return _Point(
            theta,
            objective,
            rectified(loss.mean_score),
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
    descent.  A step is halved only while the objective rises by more than
    the base point's rounding slack: near the optimum a full step changes
    the objective by less than its rounding, and rejecting it on that
    noise would stall the solver.  The objective is evaluated once per
    point: an accepted step's value and slack are the next iteration's
    baseline.  Convergence means the rectified score's max-norm drops
    below 1e-10; running out of iterations raises ConvergenceError with
    the last iterate attached.
    """
    theta = np.zeros(loss.dim)
    at = _rectified_pieces(loss, labeled_ppi, unlabeled, f)
    point = at(theta)
    g = point.score()
    base, slack = point.objective()
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
        value, value_slack = point.objective()
        while value > base + slack and halvings < 60:
            step *= 0.5
            halvings += 1
            point = at(theta + step * direction)
            value, value_slack = point.objective()
        if halvings >= 60:
            raise ConvergenceError(
                "step halving stalled before the score converged",
                last_iterate=theta,
                score_norm=norm,
            )
        theta, base, slack = point.theta, value, value_slack
        g = point.score()

    raise ConvergenceError(
        f"no convergence in {MAX_ITERATIONS} iterations "
        f"(score max-norm {float(np.max(np.abs(g))):.3e}; "
        f"the last step took {halvings} halvings)",
        last_iterate=theta,
        score_norm=float(np.max(np.abs(g))),
    )


# ---------------------------------------------------------------------------
# Covariance
# ---------------------------------------------------------------------------


def _score_covariance(scores, n: int, workers: int) -> np.ndarray:
    """Sample covariance (divisor n - 1) of n score rows, taken in one walk over their blocks.

    ``scores(span)`` returns a block's rows as a new array, which is
    centred in place.  Each block gives its row count, column sum and the
    cross-product of its rows centred on their own mean; these are merged
    in block order by adding n_k (mu_k - mu)(mu_k - mu)' per block (Chan,
    Golub & LeVeque 1983), so no (n, d) matrix is built.  The blocks run
    on up to ``workers`` threads; the result has the same bits for any
    count, and below one block the bits of the dense covariance.
    """

    def moments(span):
        rows = scores(span)
        total = rows.sum(axis=0)
        rows -= total / rows.shape[0]
        return rows.shape[0], total, rows.T @ rows

    parts = _threaded_blocks(moments, _spans(n), workers)
    mean = _ordered_sum(total for _, total, _ in parts) / n

    def merged(count, total, cross):
        shift = total / count - mean
        return cross + count * np.outer(shift, shift)

    cov = _ordered_sum(merged(*part) for part in parts) / (n - 1)
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
    (divisor m - 1); each is taken in one walk over its rows' blocks
    (``_score_covariance``).  H is the mean Hessian on the rectification
    subset with true labels.  The product H^-1 (...) H^-1 is formed by
    linear solves, never an explicit inverse.
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
    xl, yl, fl = labeled_ppi.xs, labeled_ppi.ys, f.on(labeled_ppi)
    xu, fu = unlabeled.xs, f.on(unlabeled)

    def residuals(span):
        on_y = loss.batch_score(xl[span], yl[span], theta_hat)
        on_y -= loss.batch_score(xl[span], fl[span], theta_hat)
        return on_y

    v_resid = _score_covariance(residuals, labeled_ppi.n, loss.workers)
    v_pred = _score_covariance(
        lambda span: loss.batch_score(xu[span], fu[span], theta_hat), unlabeled.m, loss.workers
    )
    h_hat = loss.batch_hessian_mean(xl, yl, theta_hat)
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
