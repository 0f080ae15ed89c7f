"""Tests for rectified M-estimation: losses, solver, sandwich, CSV ingestion."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftppi.core import (
    ConvergenceError,
    CsvFormatError,
    DomainError,
    InsufficientDataError,
    LabeledDataset,
    ParameterError,
    Predictor,
    SingularHessianError,
    UnlabeledDataset,
)
from ftppi.m_estim import (
    _BLOCK_ROWS,
    LossModel,
    _rectified_pieces,
    builtin_loss,
    categorical_loss,
    linear_regression_loss,
    m_estimate_ci,
    mean_loss,
    mnl_loss,
    read_choice_labeled_csv,
    read_choice_unlabeled_csv,
    sandwich_covariance,
    scalarize,
    solve_ppi_m_estimator,
)
from ftppi.ppi_mean import ppi_mean_estimate, ppi_mean_variance_hat


def fd_gradient(fn, theta, h=1e-6):
    d = theta.shape[0]
    out = np.empty(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[j] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return out


def fd_jacobian(fn, theta, h=1e-6):
    d = theta.shape[0]
    cols = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        cols.append((fn(theta + e) - fn(theta - e)) / (2 * h))
    return np.stack(cols, axis=1)


def random_point(loss_name, rng):
    """Draw a valid (model, x, y, theta) tuple for each built-in loss."""
    if loss_name == "mean":
        return (
            mean_loss(),
            rng.standard_normal(1),
            float(rng.standard_normal()),
            rng.standard_normal(1),
        )
    if loss_name == "categorical":
        d = 4
        return (
            categorical_loss(d),
            rng.standard_normal(1),
            float(rng.integers(1, d + 1)),
            rng.standard_normal(d) * 0.3 + 0.25,
        )
    if loss_name == "ols":
        d = 3
        return (
            linear_regression_loss(d),
            rng.standard_normal(d),
            float(rng.standard_normal()),
            rng.standard_normal(d),
        )
    if loss_name == "mnl":
        K, d = 3, 2
        return (
            mnl_loss(K, d),
            rng.standard_normal(K * d),
            float(rng.integers(0, K + 1)),
            rng.standard_normal(d) * 0.5,
        )
    raise AssertionError(loss_name)


class TestLossDerivatives:
    @pytest.mark.parametrize("name", ["mean", "categorical", "ols", "mnl"])
    def test_score_matches_loss_gradient(self, name):
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        for _ in range(25):
            model, x, y, theta = random_point(name, rng)
            grad = fd_gradient(lambda t: model.loss(x, y, t), theta)
            assert model.score(x, y, theta) == pytest.approx(grad, rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("name", ["mean", "categorical", "ols", "mnl"])
    def test_hessian_matches_score_jacobian(self, name):
        rng = np.random.default_rng((abs(hash(name)) + 1) % 2**32)
        for _ in range(25):
            model, x, y, theta = random_point(name, rng)
            jac = fd_jacobian(lambda t: model.score(x, y, t), theta)
            assert model.hessian(x, y, theta) == pytest.approx(jac, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("name", ["mean", "categorical", "ols", "mnl"])
    def test_batch_agrees_with_per_sample(self, name):
        rng = np.random.default_rng((abs(hash(name)) + 2) % 2**32)
        model, _, _, theta = random_point(name, rng)
        xs, ys = [], []
        for _ in range(8):
            _, x, y, _ = random_point(name, rng)
            xs.append(x)
            ys.append(y)
        xs = np.stack(xs)
        ys = np.array(ys)
        losses = [model.loss(x, y, theta) for x, y in zip(xs, ys)]
        scores = np.stack([model.score(x, y, theta) for x, y in zip(xs, ys)])
        hessians = np.stack([model.hessian(x, y, theta) for x, y in zip(xs, ys)])
        assert model.batch_loss_mean(xs, ys, theta) == pytest.approx(
            float(np.mean(losses)), rel=1e-12
        )
        assert model.batch_score(xs, ys, theta) == pytest.approx(
            scores, rel=1e-12, abs=1e-12
        )
        assert model.batch_hessian_mean(xs, ys, theta) == pytest.approx(
            hessians.mean(axis=0), rel=1e-12, abs=1e-12
        )

    def test_categorical_rejects_bad_labels(self):
        model = categorical_loss(3)
        theta = np.full(3, 1 / 3)
        with pytest.raises(DomainError):
            model.loss(np.zeros(1), 0.0, theta)
        with pytest.raises(DomainError):
            model.loss(np.zeros(1), 1.5, theta)
        with pytest.raises(DomainError):
            model.batch_loss_mean(np.zeros((2, 1)), np.array([1.0, 4.0]), theta)

    def test_mnl_outside_option_has_zero_utility(self):
        model = mnl_loss(2, 1)
        theta = np.array([0.0])
        # zero weights make both options and the outside choice equally likely
        x = np.array([1.0, -1.0])
        assert model.loss(x, 0.0, theta) == pytest.approx(np.log(3.0), rel=1e-12)

    def test_mnl_rejects_wrong_feature_length(self):
        model = mnl_loss(2, 2)
        with pytest.raises(DomainError):
            model.loss(np.zeros(3), 0.0, np.zeros(2))

    def test_ols_rejects_wrong_feature_length(self):
        with pytest.raises(DomainError):
            linear_regression_loss(3).score(np.zeros(2), 0.0, np.zeros(3))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            categorical_loss(1)
        with pytest.raises(ParameterError):
            linear_regression_loss(0)
        with pytest.raises(ParameterError):
            mnl_loss(0, 1)

    def test_builtin_loss_lookup(self):
        assert builtin_loss("mean").name == "mean"
        assert builtin_loss("categorical", dim=5).dim == 5
        assert builtin_loss("ols", dim=2).name == "ols"
        assert builtin_loss("mnl", n_options=3, dim=2).dim == 2
        with pytest.raises(ParameterError):
            builtin_loss("categorical")
        with pytest.raises(ParameterError):
            builtin_loss("ols")
        with pytest.raises(ParameterError):
            builtin_loss("mnl", n_options=3)
        with pytest.raises(ParameterError):
            builtin_loss("huber")


def mean_instance(rng, n=40, m=120):
    xs = rng.standard_normal((n, 1))
    ys = 2.0 + xs[:, 0] + 0.5 * rng.standard_normal(n)
    xu = rng.standard_normal((m, 1))
    f = Predictor(lambda x: 0.3 + 0.9 * x[:, 0], s=1, label="approx")
    return LabeledDataset(xs, ys), UnlabeledDataset(xu), f


class TestMeanLossEquivalence:
    def test_solver_matches_rectified_mean(self):
        rng = np.random.default_rng(512)
        for _ in range(50):
            labeled, unlabeled, f = mean_instance(rng)
            theta = solve_ppi_m_estimator(mean_loss(), labeled, unlabeled, f)
            direct = ppi_mean_estimate(labeled, unlabeled, f)
            assert abs(float(theta[0]) - direct) < 1e-9

    def test_sandwich_matches_mean_variance(self):
        rng = np.random.default_rng(513)
        for _ in range(50):
            labeled, unlabeled, f = mean_instance(rng)
            theta = solve_ppi_m_estimator(mean_loss(), labeled, unlabeled, f)
            cov = sandwich_covariance(mean_loss(), labeled, unlabeled, f, theta)
            parts = ppi_mean_variance_hat(labeled, unlabeled, f)
            assert abs(float(cov.sigma_hat[0, 0]) - parts.total) < 1e-9


def hard_label_predictor(d):
    """Deterministic class predictions from the first feature's sign pattern."""

    def fn(xs):
        return (np.abs(np.floor(xs[:, 0] * 3)).astype(int) % d + 1).astype(float)

    return Predictor(fn, s=1, label="hard")


class TestCategoricalEstimator:
    def test_closed_form_frequency_vector(self):
        rng = np.random.default_rng(21)
        d, n, m = 3, 60, 200
        xs = rng.standard_normal((n, 1))
        ys = rng.integers(1, d + 1, size=n).astype(float)
        xu = rng.standard_normal((m, 1))
        f = hard_label_predictor(d)
        labeled = LabeledDataset(xs, ys)
        unlabeled = UnlabeledDataset(xu)
        theta = solve_ppi_m_estimator(categorical_loss(d), labeled, unlabeled, f)

        def onehot(vals):
            out = np.zeros((len(vals), d))
            out[np.arange(len(vals)), np.asarray(vals, int) - 1] = 1.0
            return out

        closed = (
            onehot(ys).mean(axis=0)
            - onehot(f.on(labeled)).mean(axis=0)
            + onehot(f.on(unlabeled)).mean(axis=0)
        )
        assert theta == pytest.approx(closed, abs=1e-9)
        assert float(np.sum(theta)) == pytest.approx(1.0, abs=1e-9)


class TestOlsEstimator:
    def test_closed_form(self):
        rng = np.random.default_rng(31)
        d, n, m = 2, 80, 500
        xl = rng.standard_normal((n, d))
        yl = xl @ np.array([1.5, -0.7]) + 0.3 * rng.standard_normal(n)
        xu = rng.standard_normal((m, d))
        f = Predictor(lambda x: x @ np.array([1.4, -0.6]), s=1)
        labeled = LabeledDataset(xl, yl)
        unlabeled = UnlabeledDataset(xu)
        theta = solve_ppi_m_estimator(linear_regression_loss(d), labeled, unlabeled, f)
        # labeled Gram terms cancel, so the closed form solves against the pool Gram
        rhs = xl.T @ (yl - f.on(labeled)) / n + xu.T @ f.on(unlabeled) / m
        closed = np.linalg.solve(xu.T @ xu / m, rhs)
        assert theta == pytest.approx(closed, abs=1e-8)

    def test_singular_hessian_raises(self):
        rng = np.random.default_rng(32)
        n, m = 30, 50
        col = rng.standard_normal((n, 1))
        xl = np.hstack([col, col])  # perfectly collinear
        yl = col[:, 0] + 0.1 * rng.standard_normal(n)
        xu_col = rng.standard_normal((m, 1))
        xu = np.hstack([xu_col, xu_col])
        f = Predictor(lambda x: x[:, 0], s=1)
        labeled = LabeledDataset(xl, yl)
        unlabeled = UnlabeledDataset(xu)
        theta = np.array([0.5, 0.5])
        with pytest.raises(
            SingularHessianError, match=r"^mean Hessian is numerically singular \(condition ~"
        ) as exc:
            sandwich_covariance(linear_regression_loss(2), labeled, unlabeled, f, theta)
        assert exc.value.condition > 1e12 or not np.isfinite(exc.value.condition)

    def test_sandwich_tracks_sampling_covariance(self):
        # quick two-coefficient calibration check; the acceptance suite runs
        # the larger version
        rng = np.random.default_rng(33)
        d, n, m, reps = 2, 300, 3000, 250
        truth = np.array([1.0, -0.5])
        f = Predictor(lambda x: x @ np.array([0.9, -0.55]), s=1)
        loss = linear_regression_loss(d)
        thetas = np.empty((reps, d))
        sigmas = np.zeros((d, d))
        for r in range(reps):
            xl = rng.standard_normal((n, d))
            yl = xl @ truth + 0.4 * rng.standard_normal(n)
            xu = rng.standard_normal((m, d))
            labeled = LabeledDataset(xl, yl)
            unlabeled = UnlabeledDataset(xu)
            theta = solve_ppi_m_estimator(loss, labeled, unlabeled, f)
            thetas[r] = theta
            sigmas += sandwich_covariance(loss, labeled, unlabeled, f, theta).sigma_hat
        sigmas /= reps
        emp = np.cov(thetas.T, ddof=1)
        for i in range(d):
            assert emp[i, i] == pytest.approx(sigmas[i, i], rel=0.3)


class TestMnlEstimator:
    def test_binary_logit_recovery(self):
        rng = np.random.default_rng(41)
        theta_true = 0.8
        n, m = 1500, 15000
        xl = rng.standard_normal((n, 1))
        p = 1.0 / (1.0 + np.exp(-theta_true * xl[:, 0]))
        yl = (rng.uniform(size=n) < p).astype(float)
        xu = rng.standard_normal((m, 1))
        # deterministic hard-label surrogate: pick the option when its
        # utility estimate is positive
        f = Predictor(lambda x: (x[:, 0] > 0.1).astype(float), s=1)
        labeled = LabeledDataset(xl, yl)
        unlabeled = UnlabeledDataset(xu)
        loss = mnl_loss(1, 1)
        theta = solve_ppi_m_estimator(loss, labeled, unlabeled, f)
        cov = sandwich_covariance(loss, labeled, unlabeled, f, theta)
        se = float(np.sqrt(cov.sigma_hat[0, 0]))
        assert abs(float(theta[0]) - theta_true) < 4 * se

    def test_score_zero_at_solution(self):
        rng = np.random.default_rng(42)
        K, d, n, m = 2, 2, 200, 400
        xl = rng.standard_normal((n, K * d))
        yl = rng.integers(0, K + 1, size=n).astype(float)
        xu = rng.standard_normal((m, K * d))
        f = Predictor(lambda x: (x[:, 0] > 0).astype(float) * 1.0, s=1)
        labeled = LabeledDataset(xl, yl)
        unlabeled = UnlabeledDataset(xu)
        loss = mnl_loss(K, d)
        theta = solve_ppi_m_estimator(loss, labeled, unlabeled, f)
        resid = (
            loss.batch_score(xl, yl, theta).mean(axis=0)
            - loss.batch_score(xl, f.on(labeled), theta).mean(axis=0)
            + loss.batch_score(xu, f.on(unlabeled), theta).mean(axis=0)
        )
        assert float(np.max(np.abs(resid))) < 1e-10


def _oracle_mnl(K, d):
    """The multinomial-choice kernels before row blocks and shared probabilities.

    Full-size einsums over an (n, K) float one-hot label matrix; the
    reference the blocked kernels are checked against.
    """

    def one_hot(ys):
        labs = np.rint(ys).astype(np.int64)
        out = np.zeros((ys.shape[0], K))
        keep = labs > 0
        out[np.arange(ys.shape[0])[keep], labs[keep] - 1] = 1.0
        return out

    def probs(xs, theta):
        X = xs.reshape(-1, K, d)
        u = np.einsum("nkd,d->nk", X, theta)
        top = np.maximum(0.0, u.max(axis=1))
        expu = np.exp(u - top[:, None])
        denom = np.exp(-top) + expu.sum(axis=1)
        return X, expu / denom[:, None], top + np.log(denom)

    def loss_mean(xs, ys, theta):
        X, _, lse = probs(xs, theta)
        picked = np.einsum("nkd,d,nk->n", X, theta, one_hot(ys))
        return float(np.mean(lse - picked))

    def score(xs, ys, theta):
        X, p, _ = probs(xs, theta)
        return np.einsum("nkd,nk->nd", X, p - one_hot(ys))

    def hessian_mean(xs, ys, theta):
        X, p, _ = probs(xs, theta)
        full = np.einsum("nk,nkd,nke->de", p, X, X) / X.shape[0]
        g = np.einsum("nkd,nk->nd", X, p)
        return full - g.T @ g / X.shape[0]

    return loss_mean, score, hessian_mean


def _frozen_copy(xs):
    out = np.array(xs)
    out.setflags(write=False)
    return out


def _choice_labels(rng, n, K, outside_only=False):
    if outside_only:
        return np.zeros(n)
    return rng.integers(0, K + 1, size=n).astype(float)


@st.composite
def choice_batches(draw):
    K = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    n = draw(
        st.one_of(
            st.sampled_from(
                [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 17]
            ),
            st.integers(1, 50),
        )
    )
    theta = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal((n, K * d)) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    outside_only = draw(st.booleans())
    ys = _choice_labels(rng, n, K, outside_only)
    fs = _choice_labels(rng, n, K)
    if draw(st.booleans()):
        xs = _frozen_copy(xs)
    return K, d, xs, ys, fs, theta


class TestChoiceKernels:
    """mnl_loss's blocked kernels against the full-size einsum oracle."""

    @settings(max_examples=60, deadline=None)
    @given(choice_batches())
    def test_agrees_with_einsum_oracle(self, batch):
        K, d, xs, ys, fs, theta = batch
        model = mnl_loss(K, d)
        loss_mean, score, hessian_mean = _oracle_mnl(K, d)
        # both label vectors and all three callables
        for labels in (ys, fs):
            assert model.batch_loss_mean(xs, labels, theta) == pytest.approx(
                loss_mean(xs, labels, theta), rel=1e-12, abs=0.0
            )
            assert np.max(
                np.abs(model.batch_score(xs, labels, theta) - score(xs, labels, theta))
            ) <= 1e-12
            want = hessian_mean(xs, labels, theta)
            got = model.batch_hessian_mean(xs, labels, theta)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_labels_are_checked_with_todays_message(self):
        model = mnl_loss(2, 1)
        xs = np.zeros((3, 2))
        for bad in ([0.0, 1.0, 3.0], [0.0, -1.0, 1.0], [0.0, 0.5, 1.0]):
            with pytest.raises(DomainError, match=r"^mnl: labels must be integers in \[0, 2\]$"):
                model.batch_loss_mean(xs, np.array(bad), np.zeros(1))
            with pytest.raises(DomainError, match=r"^mnl: labels must be integers in \[0, 2\]$"):
                model.batch_score(xs, np.array(bad), np.zeros(1))


def _rowwise_choice_probs(xs, theta, K, d):
    """The choice probabilities as computed before the column passes.

    Per block: a max over the trailing option axis and a fresh
    temporary for the exponentials.
    """
    p = np.empty((xs.shape[0], K))
    lse = np.empty(xs.shape[0])
    for lo in range(0, xs.shape[0], _BLOCK_ROWS):
        span = slice(lo, lo + _BLOCK_ROWS)
        u = np.einsum("nkd,d->nk", xs[span].reshape(-1, K, d), theta)
        top = np.maximum(0.0, u.max(axis=1))
        expu = np.exp(u - top[:, None])
        denom = np.exp(-top) + expu.sum(axis=1)
        lse[span] = top + np.log(denom)
        np.divide(expu, denom[:, None], out=p[span])
    return p, lse


def _rowwise_mnl(xs, ys, theta, K, d):
    """Loss mean, score rows and Hessian mean with 2-d (row, option) gathers."""
    p, lse = _rowwise_choice_probs(xs, theta, K, d)
    labs = np.rint(ys).astype(np.int64)
    n = xs.shape[0]
    picked = np.zeros(n)
    score = np.empty((n, d))
    full = np.zeros((d, d))
    outer = np.zeros((d, d))
    for lo in range(0, n, _BLOCK_ROWS):
        span = slice(lo, lo + _BLOCK_ROWS)
        X = xs[span].reshape(-1, K, d)
        lab = labs[span]
        chose = np.flatnonzero(lab)
        picked[lo + chose] = X[chose, lab[chose] - 1] @ theta
        resid = p[span].copy()
        resid[chose, lab[chose] - 1] -= 1.0
        score[span] = np.einsum("nkd,nk->nd", X, resid)
        pb = p[span]
        full += (X * pb[:, :, None]).reshape(-1, d).T @ X.reshape(-1, d)
        g = np.einsum("nkd,nk->nd", X, pb)
        outer += g.T @ g
    return (p, lse), float(np.mean(lse - picked)), score, full / n - outer / n


class TestChoiceKernelsBitForBit:
    """The column-pass choice kernels give the bits of the row-wise ones."""

    SIZES = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 20_000)

    @staticmethod
    def _batch(rng, n, K, d):
        """Features whose utilities reach +-700, with some all-zero rows, and labels."""
        theta = rng.standard_normal(d)
        xs = rng.standard_normal((n, K * d))
        u = np.abs(np.einsum("nkd,d->nk", xs.reshape(n, K, d), theta)).max(axis=1)
        xs *= (rng.uniform(0.0, 700.0, n) / np.maximum(u, 1e-300))[:, None]
        xs[rng.random(n) < 0.01] = 0.0
        return xs, rng.integers(0, K + 1, n).astype(float), theta

    @pytest.mark.parametrize("K", range(1, 13))
    def test_matches_rowwise_kernels(self, K):
        rng = np.random.default_rng(K)
        for d in range(1, 7):
            model = mnl_loss(K, d)
            for n in self.SIZES:
                xs, ys, theta = self._batch(rng, n, K, d)
                rows = model.rows(xs, theta)
                probs, loss_mean, score, hessian_mean = _rowwise_mnl(xs, ys, theta, K, d)
                assert np.array_equal(rows.p, probs[0]) and np.array_equal(rows.lse, probs[1])
                assert np.array_equal(model.batch_loss_mean(rows, ys, theta), loss_mean)
                assert np.array_equal(model.batch_score(rows, ys, theta), score)
                assert np.array_equal(model.batch_hessian_mean(rows, ys, theta), hessian_mean)
            assert np.isfinite(rows.lse).all() and rows.lse.max() > 600.0


def _reference_mean_callables():
    """The mean loss's callables as written on their own, before the shared squared-loss builder."""

    def batch_loss_mean(xs, ys, theta):
        return float(np.mean(0.5 * (ys - theta[0]) ** 2))

    def batch_score(xs, ys, theta):
        return (theta[0] - ys)[:, None]

    def batch_hessian_mean(xs, ys, theta):
        return np.array([[1.0]])

    return batch_loss_mean, batch_score, batch_hessian_mean


def _reference_categorical_callables(d):
    """The categorical loss's callables as written on their own, before the shared builder."""
    eye = np.eye(d)

    def one_hot(ys):
        labs = np.rint(ys).astype(np.int64)
        out = np.zeros((ys.shape[0], d))
        out[np.arange(ys.shape[0]), labs - 1] = 1.0
        return out

    def batch_loss_mean(xs, ys, theta):
        diff = one_hot(ys) - theta[None, :]
        return float(np.mean(0.5 * np.sum(diff * diff, axis=1)))

    def batch_score(xs, ys, theta):
        return theta[None, :] - one_hot(ys)

    def batch_hessian_mean(xs, ys, theta):
        return eye.copy()

    return batch_loss_mean, batch_score, batch_hessian_mean


class TestSquaredLossesBitForBit:
    """The mean and categorical losses give the bits of their stand-alone callables."""

    SIZES = (1, 2, 7, 1000)

    @staticmethod
    def _assert_same(model, reference, xs, ys, theta):
        for got, want in zip(
            (model.batch_loss_mean, model.batch_score, model.batch_hessian_mean), reference
        ):
            a, b = got(xs, ys, theta), want(xs, ys, theta)
            assert type(a) is type(b) and np.array_equal(a, b)
            if isinstance(a, np.ndarray):
                assert a.shape == b.shape and a.dtype == b.dtype

    def test_mean(self):
        rng = np.random.default_rng(97)
        model, reference = mean_loss(), _reference_mean_callables()
        for n in self.SIZES:
            for scale in (1e-3, 1.0, 1e150):
                xs = rng.standard_normal((n, 2))
                theta = rng.standard_normal(1) * scale
                self._assert_same(model, reference, xs, rng.standard_normal(n) * scale, theta)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_categorical(self, d):
        rng = np.random.default_rng(98 + d)
        model, reference = categorical_loss(d), _reference_categorical_callables(d)
        for n in self.SIZES:
            xs = rng.standard_normal((n, 1))
            ys = rng.integers(1, d + 1, n).astype(float)
            self._assert_same(model, reference, xs, ys, rng.standard_normal(d))


def _assert_same_on_rows(model, xs, labels, theta, rows):
    """All three callables give the same bits on ``rows`` as on raw ``xs``."""
    for ys in labels:
        assert model.batch_loss_mean(rows, ys, theta) == model.batch_loss_mean(xs, ys, theta)
        assert np.array_equal(
            model.batch_score(rows, ys, theta), model.batch_score(xs, ys, theta)
        )
        assert np.array_equal(
            model.batch_hessian_mean(rows, ys, theta), model.batch_hessian_mean(xs, ys, theta)
        )


class TestRows:
    """The callables on ``loss.rows(xs, theta)`` against the same callables on raw ``xs``."""

    @pytest.mark.parametrize("name", ["mean", "categorical", "ols"])
    def test_features_pass_through(self, name):
        rng = np.random.default_rng(97)
        model, _, _, theta = random_point(name, rng)
        draws = [random_point(name, rng) for _ in range(40)]
        xs = np.stack([x for _, x, _, _ in draws])
        ys = np.array([y for _, _, y, _ in draws])
        assert model.rows(xs, theta) is xs
        _assert_same_on_rows(model, xs, (ys,), theta, model.rows(xs, theta))

    @settings(max_examples=40, deadline=None)
    @given(choice_batches(), st.floats(0.125, 1.0))
    def test_mnl_rows_match_raw_features_bit_for_bit(self, batch, shift):
        K, d, xs, ys, fs, theta = batch
        model = mnl_loss(K, d)
        rows = model.rows(xs, theta)
        assert model.rows(rows, theta) is rows
        _assert_same_on_rows(model, xs, (ys, fs), theta, rows)
        # rows built at another theta are recomputed, never reused
        _assert_same_on_rows(model, xs, (ys, fs), theta, model.rows(xs, theta + shift))

    def test_refrozen_features_are_not_served_stale(self):
        ds = UnlabeledDataset([[0.5, 1.0], [1.0, -1.0]])
        m = mnl_loss(2, 1)
        ys, theta = np.array([1.0, 2.0]), np.array([0.3])
        assert m.batch_loss_mean(ds.xs, ys, theta) == pytest.approx(1.2672, abs=1e-4)
        ds.xs.setflags(write=True)
        ds.xs[:] *= 3
        ds.xs.setflags(write=False)
        fresh = mnl_loss(2, 1).batch_loss_mean(ds.xs, ys, theta)
        assert fresh == pytest.approx(1.7086, abs=1e-4)
        assert m.batch_loss_mean(ds.xs, ys, theta) == fresh


def _reference_solve(loss, labeled, unlabeled, f):
    """The damped Newton loop before it carried the accepted objective.

    It evaluates the objective again at every accepted point; the solver
    must reach the same iterate bit for bit.
    """
    theta = np.zeros(loss.dim)
    at = _rectified_pieces(loss, labeled, unlabeled, f)
    g = at(theta).score()
    for _ in range(200):
        if float(np.max(np.abs(g))) < 1e-10:
            return theta
        H = at(theta).hessian()
        cond = np.linalg.cond(H)
        if not np.isfinite(cond) or cond > 1e12:
            direction = -g
        else:
            direction = np.linalg.solve(H, -g)
        base = at(theta).objective()
        step = 1.0
        while at(theta + step * direction).objective() > base:
            step *= 0.5
        theta = theta + step * direction
        g = at(theta).score()
    raise AssertionError("reference solver did not converge")


def _choice_instance(rng, K=3, d=2, n=400, m=3000):
    xl = rng.standard_normal((n, K * d))
    yl = rng.integers(0, K + 1, size=n).astype(float)
    xu = rng.standard_normal((m, K * d))
    f = Predictor(lambda x: 2.0 * (x[:, 0] > 0), s=1)
    return LabeledDataset(xl, yl), UnlabeledDataset(xu), f


def _solver_instance(name, rng):
    """(loss, labeled, unlabeled, f) for a small solve with each built-in loss."""
    if name == "mnl":
        return (mnl_loss(3, 2), *_choice_instance(rng))
    if name == "ols":
        xl, xu = rng.standard_normal((300, 2)), rng.standard_normal((2000, 2))
        labeled = LabeledDataset(xl, xl @ np.array([1.0, -0.5]) + rng.standard_normal(300))
        f = Predictor(lambda x: x @ np.array([0.9, -0.4]), s=1)
        return linear_regression_loss(2), labeled, UnlabeledDataset(xu), f
    if name == "categorical":
        labeled, unlabeled, _ = mean_instance(rng, n=200, m=1000)
        labeled = LabeledDataset(labeled.xs, rng.integers(1, 4, size=200).astype(float))
        f = Predictor(lambda x: 1.0 + (x[:, 0] > 0) + (x[:, 0] > 1), s=1)
        return categorical_loss(3), labeled, unlabeled, f
    return (mean_loss(), *mean_instance(rng))


LOSS_NAMES = ["mean", "categorical", "ols", "mnl"]


class TestSolverEvaluations:
    def test_objective_evaluated_once_per_point(self):
        """Calls made through ``dataclasses.replace``d callables, for every built-in loss.

        Three calls per point and piece (y and f(x) on the labeled rows, f
        on the pool): objective evaluations are loss calls / 3, and Newton
        iterations are Hessian calls / 3.
        """
        for name in LOSS_NAMES:
            loss, labeled, unlabeled, f = _solver_instance(name, np.random.default_rng(95))
            calls = {"batch_loss_mean": [], "batch_score": [], "batch_hessian_mean": []}

            def counted(field, fn):
                def wrapper(*args):
                    calls[field].append(args[2].tobytes())
                    return fn(*args)

                return wrapper

            traced = dataclasses.replace(
                loss, **{field: counted(field, getattr(loss, field)) for field in calls}
            )
            theta = solve_ppi_m_estimator(traced, labeled, unlabeled, f)
            per_point = {field: Counter(points) for field, points in calls.items()}
            for field, counts in per_point.items():
                assert set(counts.values()) == {3}, (name, field)
            objective, score, hessian = (set(per_point[field]) for field in calls)
            # the score is taken at the start and after every accepted step,
            # the Hessian at each of those points but the converged last one
            assert len(hessian) == len(score) - 1 >= 1, name
            assert hessian < score <= objective, name
            assert np.array_equal(theta, solve_ppi_m_estimator(loss, labeled, unlabeled, f))

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_matches_the_reference_loop_bit_for_bit(self, name):
        loss, labeled, unlabeled, f = _solver_instance(name, np.random.default_rng(96))
        want = _reference_solve(loss, labeled, unlabeled, f)
        assert np.array_equal(solve_ppi_m_estimator(loss, labeled, unlabeled, f), want)


class TestSolverEdges:
    def test_convergence_error_carries_state(self):
        # a constant unit score can never reach the tolerance
        def batch_loss_mean(xs, ys, theta):
            return float(theta[0])

        def batch_score(xs, ys, theta):
            return np.ones((xs.shape[0], 1))

        def batch_hessian_mean(xs, ys, theta):
            return np.zeros((1, 1))

        broken = LossModel("broken", 1, batch_loss_mean, batch_score, batch_hessian_mean)
        rng = np.random.default_rng(51)
        labeled, unlabeled, f = mean_instance(rng)
        with pytest.raises(ConvergenceError) as exc:
            solve_ppi_m_estimator(broken, labeled, unlabeled, f)
        assert exc.value.last_iterate is not None
        assert exc.value.score_norm == pytest.approx(1.0)

    def test_step_halving_stall_raises(self):
        # an enormous uphill score makes even the 60th halved step overshoot,
        # so the solver must give up rather than loop; the loss is shifted so
        # that theta = 0, where the solver starts, is not its minimum
        def batch_loss_mean(xs, ys, theta):
            return float(min(theta[0] + 1.0, 1e150) ** 2)

        def batch_score(xs, ys, theta):
            return np.full((xs.shape[0], 1), -1e280)

        def batch_hessian_mean(xs, ys, theta):
            return np.zeros((1, 1))

        perverse = LossModel("perverse", 1, batch_loss_mean, batch_score, batch_hessian_mean)
        rng = np.random.default_rng(52)
        labeled, unlabeled, f = mean_instance(rng)
        with pytest.raises(ConvergenceError, match="halving"):
            solve_ppi_m_estimator(perverse, labeled, unlabeled, f)


class TestSandwichPieces:
    def test_insufficient_data(self):
        rng = np.random.default_rng(60)
        loss = linear_regression_loss(2)
        f = Predictor(lambda x: x[:, 0], s=1)
        xl = rng.standard_normal((2, 2))
        labeled = LabeledDataset(xl, np.array([1.0, 2.0]))
        unlabeled = UnlabeledDataset(rng.standard_normal((50, 2)))
        with pytest.raises(InsufficientDataError):
            sandwich_covariance(loss, labeled, unlabeled, f, np.zeros(2))
        labeled_ok = LabeledDataset(rng.standard_normal((30, 2)), rng.standard_normal(30))
        tiny_pool = UnlabeledDataset(rng.standard_normal((2, 2)))
        with pytest.raises(InsufficientDataError):
            sandwich_covariance(loss, labeled_ok, tiny_pool, f, np.zeros(2))

    def test_pieces_have_expected_divisors(self):
        rng = np.random.default_rng(61)
        labeled, unlabeled, f = mean_instance(rng)
        theta = solve_ppi_m_estimator(mean_loss(), labeled, unlabeled, f)
        cov = sandwich_covariance(mean_loss(), labeled, unlabeled, f, theta)
        resid = f.on(labeled) - labeled.ys  # score difference for the mean loss
        assert cov.v_resid[0, 0] == pytest.approx(float(np.var(resid, ddof=1)), rel=1e-12)
        preds = f.on(unlabeled)
        assert cov.v_pred[0, 0] == pytest.approx(float(np.var(preds, ddof=1)), rel=1e-12)
        assert cov.n_ppi == labeled.n and cov.m == unlabeled.m
        assert cov.h_hat[0, 0] == pytest.approx(1.0)


class TestScalarize:
    def test_det_mode(self):
        v = np.diag([4.0, 9.0])
        assert scalarize(v, None, "det") == pytest.approx(6.0)
        assert scalarize(np.array([[4.0]]), None, "det") == pytest.approx(4.0)

    def test_trace_mode(self):
        v = np.diag([4.0, 9.0])
        assert scalarize(v, np.eye(2), "trace") == pytest.approx(13.0)
        assert scalarize(v, 2.0 * np.eye(2), "trace") == pytest.approx(13.0 / 4.0)

    def test_clips_tiny_negative_determinant(self):
        v = np.array([[1.0, 1.0], [1.0, 1.0 - 1e-14]])
        assert scalarize(v, None, "det") >= 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            scalarize(np.zeros((2, 3)), None, "det")
        with pytest.raises(ParameterError):
            scalarize(np.array([[1.0, 2.0], [0.0, 1.0]]), None, "det")
        with pytest.raises(ParameterError):
            scalarize(np.eye(2), np.eye(3), "trace")
        with pytest.raises(ParameterError):
            scalarize(np.eye(2), np.eye(2), "volume")
        with pytest.raises(
            SingularHessianError, match=r"^scalarize: H is numerically singular \(condition ~"
        ) as exc:
            scalarize(np.eye(2), np.zeros((2, 2)), "trace")
        assert not exc.value.condition < 1e12


class TestMEstimateCi:
    def test_interval_shape_and_summaries(self):
        rng = np.random.default_rng(70)
        labeled, unlabeled, f = mean_instance(rng, n=60, m=300)
        theta = solve_ppi_m_estimator(mean_loss(), labeled, unlabeled, f)
        cov = sandwich_covariance(mean_loss(), labeled, unlabeled, f, theta)
        rep = m_estimate_ci(cov, theta, 0.05)
        assert (rep.ci_low <= rep.theta_hat).all()
        assert (rep.theta_hat <= rep.ci_high).all()
        half = rep.ci_high - rep.theta_hat
        assert half[0] == pytest.approx(
            1.959963984540054 * np.sqrt(cov.sigma_hat[0, 0]), rel=1e-9
        )
        assert rep.nu_det == pytest.approx(float(cov.v_resid[0, 0]))
        assert rep.nu_trace == pytest.approx(float(cov.v_resid[0, 0]))

    def test_delta_and_shape_validation(self):
        rng = np.random.default_rng(71)
        labeled, unlabeled, f = mean_instance(rng)
        theta = solve_ppi_m_estimator(mean_loss(), labeled, unlabeled, f)
        cov = sandwich_covariance(mean_loss(), labeled, unlabeled, f, theta)
        with pytest.raises(ParameterError):
            m_estimate_ci(cov, theta, 0.0)
        with pytest.raises(ParameterError):
            m_estimate_ci(cov, np.zeros(3), 0.05)


class TestChoiceCsv:
    def write(self, tmp_path, name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_labeled_roundtrip(self, tmp_path):
        path = self.write(
            tmp_path,
            "choices.csv",
            "choice,x_1_1,x_1_2,x_2_1,x_2_2\n1,0.5,1.0,-0.5,2.0\n0,1.5,0.0,0.25,-1.0\n",
        )
        data, K, d = read_choice_labeled_csv(path)
        assert (K, d) == (2, 2)
        assert data.n == 2
        assert data.ys == pytest.approx([1.0, 0.0])
        assert data.xs[1] == pytest.approx([1.5, 0.0, 0.25, -1.0])

    def test_unlabeled_roundtrip(self, tmp_path):
        path = self.write(
            tmp_path, "pool.csv", "x_1_1,x_2_1\n0.5,1.0\n-0.5,0.0\n1.0,1.0\n"
        )
        data, K, d = read_choice_unlabeled_csv(path)
        assert (K, d) == (2, 1)
        assert data.m == 3

    def test_bad_choice_value_addressed(self, tmp_path):
        path = self.write(
            tmp_path, "bad.csv", "choice,x_1_1\n1,0.5\n3,1.0\n"
        )
        with pytest.raises(CsvFormatError, match="row 3"):
            read_choice_labeled_csv(path)

    def test_fractional_choice_rejected(self, tmp_path):
        path = self.write(tmp_path, "frac.csv", "choice,x_1_1\n0.5,0.5\n")
        with pytest.raises(CsvFormatError, match="choice"):
            read_choice_labeled_csv(path)

    def test_header_errors(self, tmp_path):
        p1 = self.write(tmp_path, "h1.csv", "pick,x_1_1\n1,0.5\n")
        with pytest.raises(CsvFormatError, match="choice"):
            read_choice_labeled_csv(p1)
        p2 = self.write(tmp_path, "h2.csv", "choice,x_1_1,x_1_3\n1,0.5,0.5\n")
        with pytest.raises(CsvFormatError, match="row-major"):
            read_choice_labeled_csv(p2)
        p3 = self.write(tmp_path, "h3.csv", "choice,feat\n1,0.5\n")
        with pytest.raises(CsvFormatError, match="x_<k>_<j>"):
            read_choice_labeled_csv(p3)

    def test_empty_rows_rejected(self, tmp_path):
        p = self.write(tmp_path, "empty.csv", "choice,x_1_1\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            read_choice_labeled_csv(p)
