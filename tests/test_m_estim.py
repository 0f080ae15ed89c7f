"""Tests for rectified M-estimation: losses, solver, sandwich, CSV ingestion."""

import contextlib
import dataclasses
import functools
import sys
import warnings
import threading
import tracemalloc
from collections import Counter
from unittest import mock

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
from ftppi import m_estim
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


def within_30_s(fn):
    """``[fn()]``, run on a thread that must finish within 30 s, switching
    threads as often as the interpreter allows."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    return result


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


class TestEmptyBatch:
    """A mean over zero rows is refused with InsufficientDataError naming the loss,
    with no warning, by every built-in loss's means."""

    @pytest.mark.parametrize("name", ["mean", "categorical", "ols", "mnl"])
    def test_means_over_zero_rows_are_refused(self, name):
        model, x, _, theta = random_point(name, np.random.default_rng(3))
        xs, ys = np.empty((0, np.size(x))), np.empty(0)
        means = [model.batch_loss_mean, model.mean_score, model.batch_hessian_mean]
        if name == "mnl":
            means.append(lambda xs, ys, theta: model.rows(xs, theta, (ys,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mean in means:
                with pytest.raises(InsufficientDataError, match=rf"^{model.name}: no rows"):
                    mean(xs, ys, theta)
            assert model.batch_score(xs, ys, theta).shape == (0, model.dim)


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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_first_bad_block_is_reported_and_no_thread_is_left(self, monkeypatch, workers):
        """Bad labels in blocks 1 and 3 of 5: block 1's error is the one raised,
        as the serial loop raises it, and every thread is joined."""
        model, theta = mnl_loss(2, 1, workers), np.array([0.3])
        xs = np.random.default_rng(8).standard_normal((4 * _BLOCK_ROWS + 5, 2))
        ys = np.ones(xs.shape[0])
        ys[_BLOCK_ROWS + 7], ys[3 * _BLOCK_ROWS + 1] = 7.0, -1.0
        raised, label_indices = {}, m_estim._label_indices

        def spy(labels, d, what, base):
            try:
                return label_indices(labels, d, what, base)
            except DomainError as exc:
                raised[7.0 if (labels == 7.0).any() else -1.0] = exc
                raise

        monkeypatch.setattr(m_estim, "_label_indices", spy)
        before = threading.active_count()
        for feats in (xs, model.rows(xs, theta)):
            assert threading.active_count() == before
            for kernel in (model.batch_loss_mean, model.batch_score):
                raised.clear()
                with pytest.raises(DomainError) as info:
                    kernel(feats, ys, theta)
                assert info.value is raised[7.0]
                assert threading.active_count() == before
            model.batch_hessian_mean(feats, ys, theta)  # reads no labels
            assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_the_mean_score_reports_the_first_bad_block(self, monkeypatch, workers):
        """The block-by-block mean score raises block 1's error of
        bad labels in blocks 1 and 3 of 5, and leaves no thread behind."""
        model, theta = mnl_loss(2, 2, workers), np.array([0.3, -0.2])
        xs = np.random.default_rng(9).standard_normal((4 * _BLOCK_ROWS + 5, 4))
        ys = np.ones(xs.shape[0])
        ys[_BLOCK_ROWS + 7], ys[3 * _BLOCK_ROWS + 1] = 7.0, -1.0
        raised, label_indices = [], m_estim._label_indices

        def spy(labels, d, what, base):
            try:
                return label_indices(labels, d, what, base)
            except DomainError as exc:
                raised.append((7.0 in labels, exc))
                raise

        monkeypatch.setattr(m_estim, "_label_indices", spy)
        before = threading.active_count()
        def first_error(feats):
            with pytest.raises(DomainError) as info:
                model.mean_score(feats, ys, theta)
            return info.value

        for feats in (xs, model.rows(xs, theta)):
            raised.clear()
            assert within_30_s(lambda: first_error(feats)) == [dict(raised)[True]]
            assert threading.active_count() == before

    @pytest.mark.parametrize("bad", [3.0, -1.0, 0.5])
    def test_a_bad_label_in_the_last_block_is_caught(self, bad):
        """Labels are checked block by block, on raw features and on rows alike."""
        model, theta = mnl_loss(2, 1), np.array([0.3])
        xs = np.random.default_rng(7).standard_normal((2 * _BLOCK_ROWS + 5, 2))
        ys = np.ones(xs.shape[0])
        ys[-1] = bad
        for feats in (xs, model.rows(xs, theta)):
            for kernel in (model.batch_loss_mean, model.batch_score):
                with pytest.raises(
                    DomainError, match=r"^mnl: labels must be integers in \[0, 2\]$"
                ):
                    kernel(feats, ys, theta)


def _blockwise_mean(rows):
    """The mean of ``rows`` by ``m_estim``'s rule: each block's sum, added in block order."""
    return _ordered_mean(
        [rows[lo : lo + _BLOCK_ROWS].sum(axis=0) for lo in range(0, rows.shape[0], _BLOCK_ROWS)],
        rows.shape[0],
    )


def _ordered_mean(sums, n):
    """The mean of n rows from their blocks' sums ``sums``, added in block order."""
    total = 0.0
    for part in sums:
        total = total + part
    return total / n


def _einsum_utilities(X, theta):
    return np.einsum("nkd,d->nk", X, theta)


def _gemv_utilities(X, theta):
    return (X.reshape(-1, X.shape[2]) @ theta).reshape(X.shape[:2])


def _rowwise_choice_probs(X, theta, utilities):
    """A block's utilities, choice probabilities and log-sum-exps, as computed
    before the column passes: a max over the trailing option axis and a
    fresh temporary for the exponentials."""
    u = utilities(X, theta)
    top = np.maximum(0.0, u.max(axis=1))
    expu = np.exp(u - top[:, None])
    denom = np.exp(-top) + expu.sum(axis=1)
    return u, expu / denom[:, None], top + np.log(denom)


def _einsum_mnl(xs, ys, theta, K, d):
    """Log-sum-exps, loss terms, score rows and Hessian mean by the einsum
    arithmetic the choice kernels had before their utilities were one
    matrix-vector product: einsum utilities, each chosen option's utility
    again as its row times theta, and g_i = X_i' p_i and the score rows as
    einsums, with 2-d (row, option) gathers."""
    labs = np.rint(ys).astype(np.int64)
    n = xs.shape[0]
    lse, picked, score = np.empty(n), np.zeros(n), np.empty((n, d))
    full, outer = np.zeros((d, d)), np.zeros((d, d))
    for lo in range(0, n, _BLOCK_ROWS):
        span = slice(lo, lo + _BLOCK_ROWS)
        X = xs[span].reshape(-1, K, d)
        _, p, lse[span] = _rowwise_choice_probs(X, theta, _einsum_utilities)
        lab = labs[span]
        chose = np.flatnonzero(lab)
        picked[lo + chose] = X[chose, lab[chose] - 1] @ theta
        resid = p.copy()
        resid[chose, lab[chose] - 1] -= 1.0
        score[span] = np.einsum("nkd,nk->nd", X, resid)
        full += (X * p[:, :, None]).reshape(-1, d).T @ X.reshape(-1, d)
        g = np.einsum("nkd,nk->nd", X, p)
        outer += g.T @ g
    return lse, lse - picked, score, full / n - outer / n


def _rowwise_mnl(xs, ys, theta, K, d):
    """Log-sum-exps, loss terms, ``batch_score``'s rows, each block's score
    sum and the Hessian mean, with 2-d (row, option) gathers.

    A block's utilities are one matrix-vector product, and the chosen
    options' utilities are read from them.  g_i = X_i' p_i adds the rows
    of X_i diag(p_i) one option after another, and a block's score sum is
    the column sum of its g_i less that of its chosen options' rows.  The
    matrix products take their operands laid out as the kernel lays them
    out, feature by feature, because a product's bits depend on that.
    """
    labs = np.rint(ys).astype(np.int64)
    n = xs.shape[0]
    lse, picked, score, sums = np.empty(n), np.zeros(n), np.empty((n, d)), []
    full, outer = np.zeros((d, d)), np.zeros((d, d))
    for lo in range(0, n, _BLOCK_ROWS):
        span = slice(lo, lo + _BLOCK_ROWS)
        X = xs[span].reshape(-1, K, d)
        u, p, lse[span] = _rowwise_choice_probs(X, theta, _gemv_utilities)
        lab = labs[span]
        chose = np.flatnonzero(lab)
        picked[lo + chose] = u[chose, lab[chose] - 1]
        resid = p.copy()
        resid[chose, lab[chose] - 1] -= 1.0
        score[span] = np.einsum("nkd,nk->nd", X, resid)
        Xp = X * p[:, :, None]
        gT = np.ascontiguousarray(functools.reduce(np.add, Xp.transpose(1, 0, 2)).T)
        sums.append(gT.sum(axis=1) - X[chose, lab[chose] - 1].sum(axis=0))
        full += X.reshape(-1, d).T @ np.ascontiguousarray(Xp.reshape(-1, d).T).T
        outer += gT @ gT.T
    return lse, lse - picked, score, sums, full / n - outer / n


def _rowwise_means(xs, ys, theta, K, d):
    """The loss mean, mean score and mean Hessian from ``_rowwise_mnl``, by the block rule."""
    _, terms, _, sums, hessian = _rowwise_mnl(xs, ys, theta, K, d)
    return float(_blockwise_mean(terms)), _ordered_mean(sums, xs.shape[0]), hessian


def _choice_batch(rng, n, K, d):
    """Features whose utilities reach +-700, with some all-zero rows, and labels."""
    theta = rng.standard_normal(d)
    xs = rng.standard_normal((n, K * d))
    u = np.abs(np.einsum("nkd,d->nk", xs.reshape(n, K, d), theta)).max(axis=1)
    xs *= (rng.uniform(0.0, 700.0, n) / np.maximum(u, 1e-300))[:, None]
    xs[rng.random(n) < 0.01] = 0.0
    return xs, rng.integers(0, K + 1, n).astype(float), theta


#: Row counts around the blocks' edges, and one of three blocks.
_CHOICE_SIZES = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 20_000)


class TestChoiceKernelsBitForBit:
    """The column-pass choice kernels give the bits of the row-wise ones,
    on the model's rows, whose means and Hessian are held, and on raw
    features, whose probabilities each block computes for itself."""

    @pytest.mark.parametrize("K", range(1, 13))
    def test_matches_rowwise_kernels(self, K):
        self._check(K, workers=1)

    @pytest.mark.parametrize("K", range(1, 13))
    @pytest.mark.parametrize("workers", [2, 3])
    def test_threads_match_rowwise_kernels(self, workers, K):
        self._check(K, workers)

    def _check(self, K, workers):
        rng = np.random.default_rng(K)
        for d in range(1, 7):
            model = mnl_loss(K, d, workers)
            for n in _CHOICE_SIZES:
                xs, ys, theta = _choice_batch(rng, n, K, d)
                rows = model.rows(xs, theta, (ys,))
                lse, terms, score, sums, hessian_mean = _rowwise_mnl(xs, ys, theta, K, d)
                loss_mean, mean_score = float(_blockwise_mean(terms)), _ordered_mean(sums, n)
                assert np.array_equal(rows.means, [[loss_mean, *mean_score]])
                assert np.array_equal(rows.hessian, hessian_mean)
                for feats in (rows, xs):
                    assert np.array_equal(model.batch_loss_mean(feats, ys, theta), loss_mean)
                    assert np.array_equal(model.batch_score(feats, ys, theta), score)
                    assert np.array_equal(model.mean_score(feats, ys, theta), mean_score)
                    assert np.array_equal(
                        model.batch_hessian_mean(feats, ys, theta), hessian_mean
                    )
            assert np.isfinite(lse).all() and lse.max() > 600.0


class TestChoiceKernelsNearEinsum:
    """The choice kernels against the einsum arithmetic they replaced
    (``_einsum_mnl``), relative to the size of the terms each result adds:
    the loss mean within 1e-13 of the mean of each row's largest |utility|,
    the mean score within 1e-13 of the options' summed |x|, the Hessian
    within 1e-13 of the largest entry of the mean of sum_k |x_k| |x_k|'.
    The two compute the utilities in different orders, so they differ in
    their last bits, and each probability carries that relative rounding
    of the utilities, which grows with their size.  A score row that
    cancels (a chosen option of probability near 1) keeps it, so a score
    row is within 1e-14 of its options' summed |x| times 1 plus its
    largest |utility|."""

    @pytest.mark.parametrize("K", range(1, 13))
    def test_matches_the_einsum_arithmetic(self, K):
        rng = np.random.default_rng(100 + K)
        for d in range(1, 7):
            model = mnl_loss(K, d)
            for n in _CHOICE_SIZES:
                xs, ys, theta = _choice_batch(rng, n, K, d)
                _, terms, score, hessian = _einsum_mnl(xs, ys, theta, K, d)
                X = np.abs(xs.reshape(n, K, d))
                utility = np.abs(_einsum_utilities(xs.reshape(n, K, d), theta)).max(axis=1)
                size = X.sum(axis=1)
                loss_mean = model.batch_loss_mean(xs, ys, theta)
                assert abs(loss_mean - _blockwise_mean(terms)) <= 1e-13 * np.mean(utility)
                got = model.mean_score(xs, ys, theta) - _blockwise_mean(score)
                assert np.all(np.abs(got) <= 1e-13 * size.mean(axis=0))
                bound = 1e-14 * size * (1.0 + utility[:, None])
                assert np.all(np.abs(model.batch_score(xs, ys, theta) - score) <= bound)
                got = model.batch_hessian_mean(xs, ys, theta) - hessian
                assert np.max(np.abs(got)) <= 1e-13 * np.einsum("nkd,nke->de", X, X).max() / n


class TestNumpySummationOrder:
    """The orders of numpy's sums and products that the choice kernels'
    bits rest on.

    A numpy release that changes one fails here, instead of silently
    changing the kernels' bits.
    """

    @pytest.mark.parametrize("K", range(1, 13))
    def test_option_sums_are_column_passes_below_the_pairwise_bound(self, K):
        u = np.exp(3.0 * np.random.default_rng(K).standard_normal((_BLOCK_ROWS, K)))
        passes = u[:, 0].copy()
        for k in range(1, K):
            passes += u[:, k]
        assert np.array_equal(passes, u.sum(axis=1)) == (K < m_estim._PAIRWISE_FROM)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_einsum_column_sums_are_the_row_by_row_sums_from_two_columns(self, d):
        """``_column_sum`` is numpy's column sum for every d.  For d >= 2
        einsum's and numpy's add the rows one after another; for one column
        each groups them its own way (numpy's pairwise)."""
        rng = np.random.default_rng(d)
        scale = np.exp(3.0 * rng.standard_normal((_BLOCK_ROWS, 1)))
        rows = rng.standard_normal((_BLOCK_ROWS, d)) * scale
        assert np.array_equal(np.einsum("nd->d", rows), rows.sum(axis=0)) == (d >= 2)
        if d >= 2:
            sequential = rows[0].copy()
            for row in rows[1:]:
                sequential += row
            assert np.array_equal(rows.sum(axis=0), sequential)
        for n in (_BLOCK_ROWS, 1000, 3):
            assert np.array_equal(m_estim._column_sum(rows[:n]), rows[:n].sum(axis=0))

    @pytest.mark.parametrize("K", range(1, 13))
    def test_option_adds_over_the_products_are_einsums_from_two_features(self, K):
        """g_i = X_i' p_i as K - 1 adds over the rows of X_i diag(p_i) has
        the bits of ``einsum("nkd,nk->nd")`` for d >= 2; for one feature
        einsum groups the options otherwise from three of them on."""
        rng = np.random.default_rng(K)
        for d in range(1, 7):
            X = rng.standard_normal((_BLOCK_ROWS, K, d)) * np.exp(
                3.0 * rng.standard_normal((_BLOCK_ROWS, K, 1))
            )
            p = rng.random((_BLOCK_ROWS, K))
            Xp = X * p[:, :, None]
            g = Xp[:, 0].copy()
            for k in range(1, K):
                g += Xp[:, k]
            assert np.array_equal(g, np.einsum("nkd,nk->nd", X, p)) == (d >= 2 or K < 3), d

    @pytest.mark.parametrize("d", range(1, 7))
    def test_utilities_do_not_depend_on_where_a_block_starts(self, d):
        """The matrix-vector product gives each row the same bits wherever
        the rows start in a larger array, whatever their count: a block's
        utilities do not depend on the block's offset or on the alignment
        of its memory."""
        rng = np.random.default_rng(d)
        options = rng.standard_normal((5 * _BLOCK_ROWS + 40, d)) * 100.0
        theta = rng.standard_normal(d)
        whole = options @ theta
        for start in (0, 1, 2, 3, 5, 8, 13, 40):
            for count in (5 * _BLOCK_ROWS, 4 * _BLOCK_ROWS + 3, 7):
                out = np.empty(count)
                np.matmul(options[start : start + count], theta, out=out)
                assert np.array_equal(out, whole[start : start + count]), (start, count)


def _reference_mean_callables():
    """The mean loss's callables as written on their own, before the shared squared-loss
    builder, with the mean taken by the block rule."""

    def batch_loss_mean(xs, ys, theta):
        return float(_blockwise_mean(0.5 * (ys - theta[0]) ** 2))

    def batch_score(xs, ys, theta):
        return (theta[0] - ys)[:, None]

    def batch_hessian_mean(xs, ys, theta):
        return np.array([[1.0]])

    return batch_loss_mean, batch_score, batch_hessian_mean


def _reference_categorical_callables(d):
    """The categorical loss's callables as written on their own, before the shared builder,
    with the mean taken by the block rule."""
    eye = np.eye(d)

    def one_hot(ys):
        labs = np.rint(ys).astype(np.int64)
        out = np.zeros((ys.shape[0], d))
        out[np.arange(ys.shape[0]), labs - 1] = 1.0
        return out

    def batch_loss_mean(xs, ys, theta):
        diff = one_hot(ys) - theta[None, :]
        return float(_blockwise_mean(0.5 * np.sum(diff * diff, axis=1)))

    def batch_score(xs, ys, theta):
        return theta[None, :] - one_hot(ys)

    def batch_hessian_mean(xs, ys, theta):
        return eye.copy()

    return batch_loss_mean, batch_score, batch_hessian_mean


class TestSquaredLossesBitForBit:
    """The mean and categorical losses give the bits of their stand-alone callables."""

    SIZES = (1, 2, 7, 1000, 2 * _BLOCK_ROWS + 5)

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
        """And the means held for a label array are the row-wise reference's."""
        K, d, xs, ys, fs, theta = batch
        model = mnl_loss(K, d)
        rows = model.rows(xs, theta, (ys, fs))
        assert model.rows(rows, theta) is rows and model.rows(rows, theta, (fs,)) is rows
        assert model.rows(rows, theta, (ys.copy(),)) is not rows
        _assert_same_on_rows(model, xs, (ys, fs), theta, rows)
        for labels in (ys, fs):
            loss_mean, score, hessian = _rowwise_means(xs, labels, theta, K, d)
            assert model.batch_loss_mean(rows, labels, theta) == loss_mean
            assert np.array_equal(model.mean_score(rows, labels, theta), score)
            assert np.array_equal(model.batch_hessian_mean(rows, labels, theta), hessian)
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


@contextlib.contextmanager
def _probability_passes():
    """Record (features, theta bytes) of every block whose choice probabilities are computed."""
    seen, original = [], m_estim._block_probabilities

    def spy(X, theta, out):
        seen.append((X, theta.tobytes()))
        return original(X, theta, out)

    with mock.patch.object(m_estim, "_block_probabilities", spy):
        yield seen


class TestHeldMeans:
    """What ``rows(xs, theta, labels)`` holds, taken in one walk over the
    blocks, against the row-wise reference (``_rowwise_mnl``): the same
    bits, for any thread count.  The callables on raw features, on a label
    array that is not held and on rows built at another theta run the same
    walk for that label array alone, with one probability pass per block
    and callable."""

    @staticmethod
    def _check(K, d, xs, ys, fs, theta, shift):
        blocks = -(-xs.shape[0] // _BLOCK_ROWS)
        want = [_rowwise_means(xs, labels, theta, K, d) for labels in (ys, fs)]
        for workers in (1, 2, 3):
            model = mnl_loss(K, d, workers)
            with _probability_passes() as passes:
                rows = model.rows(xs, theta, (ys, fs))
            assert len(passes) == blocks  # one pass per block
            with _probability_passes() as passes:
                held = [
                    (
                        model.batch_loss_mean(rows, labels, theta),
                        model.mean_score(rows, labels, theta),
                        model.batch_hessian_mean(rows, labels, theta),
                    )
                    for labels in (ys, fs)
                ]
            assert passes == []  # all three are read from the rows
            elsewhere = model.rows(xs, theta + shift, (ys, fs))
            for labels, got, (loss_mean, score, hessian) in zip((ys, fs), held, want):
                assert type(got[0]) is float and got[0] == loss_mean
                assert np.array_equal(got[1], score) and np.array_equal(got[2], hessian)
                # a copy of the labels is not held, nor are rows at another theta
                for feats, labs in ((rows, labels.copy()), (elsewhere, labels), (xs, labels)):
                    with _probability_passes() as passes:
                        assert model.batch_loss_mean(feats, labs, theta) == loss_mean
                        assert np.array_equal(model.mean_score(feats, labs, theta), score)
                    assert len(passes) == 2 * blocks

    @settings(max_examples=30, deadline=None)
    @given(choice_batches(), st.floats(0.125, 1.0))
    def test_matches_the_callables_on_features(self, batch, shift):
        self._check(*batch, shift)

    @pytest.mark.parametrize("K", [3, 9])
    def test_matches_the_callables_on_four_blocks(self, K):
        rng, d, n = np.random.default_rng(K), 2, 3 * _BLOCK_ROWS + 17
        xs = rng.standard_normal((n, K * d))
        ys, fs = _choice_labels(rng, n, K), _choice_labels(rng, n, K)
        self._check(K, d, xs, ys, fs, rng.standard_normal(d), 0.5)


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
        base, slack = at(theta).objective()
        step = 1.0
        while at(theta + step * direction).objective()[0] > base + slack:
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
    def test_objective_evaluated_once_per_point(self, monkeypatch):
        """Calls made through ``dataclasses.replace``d callables and the
        loss's ``mean_score``, for every built-in loss.

        Three calls per point and piece (y and f(x) on the labeled rows, f
        on the pool): objective evaluations are loss calls / 3, and Newton
        iterations are Hessian calls / 3.  The choice loss's solve never
        calls ``batch_score``: its points hold their mean scores.
        """
        for name in LOSS_NAMES:
            loss, labeled, unlabeled, f = _solver_instance(name, np.random.default_rng(95))
            calls = {"batch_loss_mean": [], "mean_score": [], "batch_hessian_mean": []}
            scored = []

            def counted(record, fn):
                def wrapper(*args):
                    record.append(args[-1].tobytes())
                    return fn(*args)

                return wrapper

            fields = {field: counted(calls[field], getattr(loss, field)) for field in
                      ("batch_loss_mean", "batch_hessian_mean")}
            traced = dataclasses.replace(
                loss, batch_score=counted(scored, loss.batch_score), **fields
            )
            with monkeypatch.context() as patch:
                mean_score = type(loss).mean_score
                patch.setattr(type(loss), "mean_score", counted(calls["mean_score"], mean_score))
                theta = solve_ppi_m_estimator(traced, labeled, unlabeled, f)
            per_point = {field: Counter(points) for field, points in calls.items()}
            for field, counts in per_point.items():
                assert set(counts.values()) == {3}, (name, field)
            # one block each: the other losses' mean score is one batch_score call
            assert scored == ([] if name == "mnl" else calls["mean_score"]), name
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

    def test_a_halved_first_step_matches_the_reference_loop(self):
        """A choice fit whose first Newton step overshoots: at theta = 0 the
        twelfth option, the only one with a feature, has probability 1/13 and
        little curvature, but it is chosen half the time.  The step is
        halved once, and the solve keeps the reference loop's bits."""
        K, n, m = 12, 200, 3000
        rng = np.random.default_rng(5)

        def rows(k):
            x = np.zeros((k, K))
            x[:, -1] = 1.0 + 0.1 * rng.standard_normal(k)
            return x

        def labels(k):
            return np.where(rng.random(k) < 0.5, float(K), rng.integers(0, K, k).astype(float))

        xl, xu = rows(n), rows(m)
        yl = labels(n)
        fl = np.where(rng.random(n) < 0.8, yl, labels(n))
        labeled, pool = LabeledDataset(xl, yl), UnlabeledDataset(xu)
        f = Predictor.precomputed([(labeled, fl), (pool, labels(m))])
        loss, points = mnl_loss(K, 1), []

        def objective(xs, ys, theta):
            points.append(np.array(theta))
            return loss.batch_loss_mean(xs, ys, theta)

        traced = dataclasses.replace(loss, batch_loss_mean=objective)
        theta = solve_ppi_m_estimator(traced, labeled, pool, f)
        first, trial, halved = points[0:9:3]
        assert not first.any() and np.array_equal(halved, 0.5 * trial)
        assert np.array_equal(theta, _reference_solve(loss, labeled, pool, f))


class TestProbabilityPasses:
    """The choice probabilities are computed once per feature array and
    point in the solve, and in one walk over the pool in the sandwich."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_pass_per_array_and_point(self, workers):
        K, d, n, m = 3, 2, _BLOCK_ROWS + 100, 2 * _BLOCK_ROWS + 17
        labeled, pool, f = _choice_instance(np.random.default_rng(90), K, d, n, m)
        loss = mnl_loss(K, d, workers)
        objectives = []

        def objective(xs, ys, theta):
            objectives.append(theta.tobytes())
            return loss.batch_loss_mean(xs, ys, theta)

        traced = dataclasses.replace(loss, batch_loss_mean=objective)
        with _probability_passes() as passes:
            theta = solve_ppi_m_estimator(traced, labeled, pool, f)
        points = set(objectives)
        assert len(objectives) == 3 * len(points) >= 6
        on = lambda data: Counter(t for X, t in passes if np.may_share_memory(X, data.xs))
        assert on(labeled) == dict.fromkeys(points, 2) and on(pool) == dict.fromkeys(points, 3)
        assert len(passes) == 5 * len(points)
        with _probability_passes() as passes:
            sandwich_covariance(loss, labeled, pool, f, theta)
        # the labeled rows' Hessian and both score columns, and one pool walk
        assert on(labeled) == {theta.tobytes(): 3 * 2} and on(pool) == {theta.tobytes(): 3}
        assert len(passes) == 9


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
        assert str(exc.value).endswith("the last step took 0 halvings)")

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

    def test_a_step_within_rounding_of_the_optimum_is_taken(self):
        """A well-conditioned choice fit whose last Newton step moves the
        objective by less than its rounding.  A solver that halves the step
        whenever the objective rises at all stalls here at a score max-norm
        of 2.5e-10 and runs out of iterations."""
        K, d, theta = 3, 2, np.array([1.0, -0.5])
        rng = np.random.default_rng(31)

        def choices(x, scale):
            u = scale * x.reshape(-1, K, d) @ theta
            u = np.concatenate([np.zeros((len(x), 1)), u], axis=1)  # the outside option
            return np.argmax(u + rng.gumbel(size=u.shape), axis=1).astype(float)

        def surrogate(x, y):
            """The true choice with probability 0.6, else its own sharper choice."""
            return np.where(rng.random(len(x)) < 0.6, y, choices(x, 1.5))

        xl, xu = rng.standard_normal((60, K * d)), rng.standard_normal((300, K * d))
        yl, yu = choices(xl, 1.0), choices(xu, 1.0)
        labeled, pool = LabeledDataset(xl, yl), UnlabeledDataset(xu)
        f = Predictor.precomputed([(labeled, surrogate(xl, yl)), (pool, surrogate(xu, yu))])
        loss = mnl_loss(K, d)
        fitted = solve_ppi_m_estimator(loss, labeled, pool, f)
        score = _rectified_pieces(loss, labeled, pool, f)(fitted).score()
        assert np.max(np.abs(score)) < m_estim.SCORE_TOL


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


def _traced_peak(fn, *args):
    """Bytes traced at ``fn``'s peak beyond what was allocated when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """The solver and the sandwich on a choice pool, by the bytes numpy reports to tracemalloc.

    A point holds its means and mean Hessian: no per-row column and not
    the (n, K) choice probabilities, and no column of the pool's loss
    terms or score rows is built.  Few features per option keep the blocks
    small, so that a point's probabilities or log-sum-exps, or an (m, K)
    matrix or one pool column in the sandwich, would not fit in what a
    block's temporaries per worker are allowed.
    """

    K, D, N, M = 4, 1, 1000, 300_000
    #: A block's largest temporaries: its worker's (rows, max(K d, K + d))
    #: scratch, two (rows, K) arrays and four columns.
    BLOCK = _BLOCK_ROWS * (max(K * D, K + D) + 2 * K + 4) * 8
    #: What a point with the probabilities held, as the choice loss once kept them, would cost.
    PROBABILITIES = (N + M) * (K + 1) * 8

    @pytest.fixture(scope="class")
    def instance(self):
        rng = np.random.default_rng(94)
        K, D, N, M = self.K, self.D, self.N, self.M
        labeled = LabeledDataset(rng.standard_normal((N, K * D)), rng.integers(0, K + 1, N))
        pool = UnlabeledDataset(rng.standard_normal((M, K * D)))
        f = Predictor.precomputed(
            [(labeled, rng.integers(0, K + 1, N)), (pool, rng.integers(0, K + 1, M))]
        )
        return mnl_loss(K, D), labeled, pool, f

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solver_holds_no_pool_column(self, instance, workers):
        """A block's temporaries per worker, and nothing per row."""
        _, *data = instance
        allowed = workers * self.BLOCK
        assert self.PROBABILITIES > allowed  # so the probabilities cannot hide in the allowance
        assert (self.N + self.M) * 8 > allowed  # nor a point's log-sum-exps
        peak = _traced_peak(solve_ppi_m_estimator, mnl_loss(self.K, self.D, workers), *data)
        assert peak < allowed

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solver_builds_no_pool_score_rows(self, workers):
        """With d >= 2 too: the solver holds a block's temporaries per
        worker, its (rows, K d) scratch, two (rows, K) and two (rows, d)
        arrays and four columns, and neither a point's log-sum-exps nor the
        pool's score rows or loss terms would fit."""
        K, D, N, M = 2, 2, 1000, 300_000
        block = _BLOCK_ROWS * (K * D + 2 * K + 2 * D + 4) * 8
        rng = np.random.default_rng(93)
        labeled = LabeledDataset(rng.standard_normal((N, K * D)), rng.integers(0, K + 1, N))
        pool = UnlabeledDataset(rng.standard_normal((M, K * D)))
        f = Predictor.precomputed(
            [(labeled, rng.integers(0, K + 1, N)), (pool, rng.integers(0, K + 1, M))]
        )
        allowed = workers * block
        assert M * 8 > allowed  # so none can hide in it
        peak = _traced_peak(solve_ppi_m_estimator, mnl_loss(K, D, workers), labeled, pool, f)
        assert peak < allowed

    def test_sandwich_builds_no_pool_probabilities(self, instance):
        theta = solve_ppi_m_estimator(*instance)
        assert self.M * self.D * 8 > self.BLOCK  # so neither an (m, K) matrix nor a column fits
        peak = _traced_peak(sandwich_covariance, *instance, theta)
        assert peak < self.BLOCK


def _squared_loss_instance(name, d, m, n=1000):
    """(loss, labeled, pool, f) for the mean, categorical or ols loss on an m-row pool."""
    rng = np.random.default_rng(92)
    if name == "categorical":
        xl, xu = rng.standard_normal((n, 1)), rng.standard_normal((m, 1))
        yl, fl, fu = (rng.integers(1, d + 1, k).astype(float) for k in (n, n, m))
        loss = categorical_loss(d)
    else:
        xl, xu = rng.standard_normal((n, d)), rng.standard_normal((m, d))
        yl = xl.sum(axis=1) + rng.standard_normal(n)
        fl, fu = 0.9 * xl.sum(axis=1), 0.9 * xu.sum(axis=1)
        loss = linear_regression_loss(d) if name == "ols" else mean_loss()
    labeled, pool = LabeledDataset(xl, yl), UnlabeledDataset(xu)
    return loss, labeled, pool, Predictor.precomputed([(labeled, fl), (pool, fu)])


class TestPoolBytesPerRow:
    """The solver and the sandwich of the mean, categorical and ols losses
    on a big pool, by traced bytes: nothing grows with the pool, and all
    they build is a few blocks' temporaries, ``columns`` float64 columns of
    ``_BLOCK_ROWS`` rows.  ``parent`` is the bytes per pool row that the
    objectives' per-row terms and residuals, and the mean's one-column
    score, once cost, which must not fit.
    """

    M = 200_000

    @pytest.mark.parametrize(
        "name, d, columns, parent",
        [
            # the residual column and its square
            ("ols", 16, 2 * 16, 2 * 8),
            # the loss-terms column and the score column
            ("mean", 1, 6, 2 * 8),
            # the loss-terms column
            ("categorical", 4, 3 * 4, 8),
        ],
    )
    def test_solver_and_sandwich(self, name, d, columns, parent):
        loss, labeled, pool, f = _squared_loss_instance(name, d, self.M)
        allowed = columns * _BLOCK_ROWS * 8
        assert parent * self.M > allowed
        assert _traced_peak(solve_ppi_m_estimator, loss, labeled, pool, f) < allowed
        theta = solve_ppi_m_estimator(loss, labeled, pool, f)
        assert _traced_peak(sandwich_covariance, loss, labeled, pool, f, theta) < allowed

    def test_sandwich_on_a_big_labeled_set(self):
        """V_resid is taken in blocks of the labeled rows too: the sandwich
        on 200k labeled rows builds at most three blocks' (rows, d) score
        arrays, and no (n, d) score matrix (taken whole, the score
        matrices on the labels and on the predictions peak at two)."""
        n, d = 200_000, 16
        loss, labeled, pool, f = _squared_loss_instance("ols", d, 1000, n)
        allowed = 3 * d * _BLOCK_ROWS * 8
        assert n * d * 8 > allowed
        theta = np.full(d, 0.9)
        assert _traced_peak(sandwich_covariance, loss, labeled, pool, f, theta) < allowed


def _dense_covariance(rows):
    """Sample covariance of the whole score matrix ``rows``, centred on numpy's column mean."""
    centered = rows - rows.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (rows.shape[0] - 1)
    return 0.5 * (cov + cov.T)


class TestBlockwiseVPred:
    """The sums over the pool and the labeled rows, taken block by block,
    against numpy's dense ones for every built-in loss, with the same bits
    for any thread count: the sandwich's one-walk V_pred and V_resid
    against ``_dense_covariance`` of the whole score matrix, within 1e-12
    and 1e-13 relative, and with its bits below one block; ``mean_score``
    and ``batch_loss_mean`` against ``np.mean`` of the whole score matrix
    and loss-terms column, within 1e-12 and 1e-13 relative.  numpy adds
    the rows of an (m, d >= 2) matrix one after another: on the
    categorical pool of 3 blocks that dense mean is itself 3.5e-13 off the
    exact one, the block sums' 1.6e-13."""

    CASES = [("mean", 1), ("categorical", 3), ("ols", 1), ("ols", 5), ("mnl", 1), ("mnl", 2)]
    K = 3  # options of the choice pools

    @classmethod
    def _instance(cls, name, d, m, workers, n=200):
        if name != "mnl":
            loss, labeled, pool, f = _squared_loss_instance(name, d, m, n)
            return dataclasses.replace(loss, workers=workers), labeled, pool, f
        K = cls.K
        rng = np.random.default_rng(91)
        labeled = LabeledDataset(rng.standard_normal((n, K * d)), rng.integers(0, K + 1, n))
        pool = UnlabeledDataset(rng.standard_normal((m, K * d)))
        f = Predictor.precomputed(
            [(labeled, rng.integers(0, K + 1, n)), (pool, rng.integers(0, K + 1, m))]
        )
        return mnl_loss(K, d, workers), labeled, pool, f

    @staticmethod
    def _assert_near_dense(got, dense, rows, rel):
        """``got`` (one result per thread count) against the dense covariance of ``rows`` rows."""
        assert all(np.array_equal(got[0], v) for v in got[1:])
        assert got[0].shape == dense.shape
        assert np.max(np.abs(got[0] - dense)) <= rel * np.max(np.abs(dense))
        if rows <= _BLOCK_ROWS:  # one block: its cross-product is the dense one
            assert np.array_equal(got[0], dense)

    @classmethod
    def _loss_terms(cls, name, xs, ys, theta):
        """Each row's loss, computed for the whole array at once."""
        if name == "mnl":
            return _rowwise_mnl(xs, ys, theta, cls.K, theta.shape[0])[1]
        if name == "categorical":
            diff = m_estim._one_hot_matrix(ys, theta.shape[0]) - theta[None, :]
            return 0.5 * np.sum(diff * diff, axis=1)
        r = ys - (xs @ theta if name == "ols" else theta[0])
        return 0.5 * r * r

    @pytest.mark.parametrize("name, d", CASES)
    @pytest.mark.parametrize("m", [1000, 3 * _BLOCK_ROWS + 17])
    def test_matches_the_dense_covariance(self, name, d, m):
        theta = np.random.default_rng(m + d).standard_normal(d) * 0.3 + 0.25
        got = []
        for workers in (1, 2, 3):
            loss, labeled, pool, f = self._instance(name, d, m, workers)
            got.append(sandwich_covariance(loss, labeled, pool, f, theta).v_pred)
        dense = _dense_covariance(loss.batch_score(pool.xs, f.on(pool), theta))
        assert dense.shape == (d, d)
        self._assert_near_dense(got, dense, m, 1e-12)

    @pytest.mark.parametrize("name, d", CASES)
    @pytest.mark.parametrize("n", [1000, 3 * _BLOCK_ROWS + 17])
    def test_v_resid_matches_the_dense_covariance(self, name, d, n):
        """V_resid, the covariance of the labeled rows' score differences, walks them in blocks."""
        theta = np.random.default_rng(n + d).standard_normal(d) * 0.3 + 0.25
        got = []
        for workers in (1, 2, 3):
            loss, labeled, pool, f = self._instance(name, d, 1000, workers, n)
            got.append(sandwich_covariance(loss, labeled, pool, f, theta).v_resid)
        xs, fl = labeled.xs, f.on(labeled)
        dense = _dense_covariance(
            loss.batch_score(xs, labeled.ys, theta) - loss.batch_score(xs, fl, theta)
        )
        assert dense.shape == (d, d)
        self._assert_near_dense(got, dense, n, 1e-13)

    @pytest.mark.parametrize("name, d", CASES)
    def test_one_walk_matches_the_two_pass_sum(self, name, d):
        """V_pred takes each pool block's score rows once, and agrees within
        1e-13 relative with the block-ordered sum of cross-products centred
        on ``mean_score``, which walks the pool a second time."""
        m = 3 * _BLOCK_ROWS + 17
        theta = np.random.default_rng(m + d).standard_normal(d) * 0.3 + 0.25
        loss, labeled, pool, f = self._instance(name, d, m, 2)
        xs, fu = pool.xs, f.on(pool)
        walked = []

        def batch_score(xs, ys, theta):
            if np.may_share_memory(ys, fu):
                walked.append(ys.shape[0])
            return loss.batch_score(xs, ys, theta)

        traced = dataclasses.replace(loss, batch_score=batch_score)
        v_pred = sandwich_covariance(traced, labeled, pool, f, theta).v_pred
        assert sorted(walked) == [17] + [_BLOCK_ROWS] * 3
        mean, two_pass = loss.mean_score(xs, fu, theta), 0.0
        for lo in range(0, m, _BLOCK_ROWS):
            r = loss.batch_score(xs[lo : lo + _BLOCK_ROWS], fu[lo : lo + _BLOCK_ROWS], theta)
            r -= mean
            two_pass = two_pass + r.T @ r
        two_pass = two_pass / (m - 1)
        two_pass = 0.5 * (two_pass + two_pass.T)
        assert np.max(np.abs(v_pred - two_pass)) <= 1e-13 * np.max(np.abs(two_pass))

    @pytest.mark.parametrize("name, d", CASES)
    @pytest.mark.parametrize("m", [1000, 3 * _BLOCK_ROWS + 17])
    def test_means_match_the_dense_means(self, name, d, m):
        """On the pool's features and on its ``rows``, with its predictions as labels."""
        theta = np.random.default_rng(m + d).standard_normal(d) * 0.3 + 0.25
        got = []
        for workers in (1, 2, 3):
            loss, _, pool, f = self._instance(name, d, m, workers)
            xs, ys = pool.xs, f.on(pool)
            for feats in (xs, loss.rows(xs, theta)):
                got.append(
                    (loss.mean_score(feats, ys, theta), loss.batch_loss_mean(feats, ys, theta))
                )
        assert all(
            np.array_equal(score, got[0][0]) and loss_mean == got[0][1] for score, loss_mean in got
        )
        score, loss_mean = got[0]
        dense_score = loss.batch_score(xs, ys, theta).mean(axis=0)
        dense_loss = float(np.mean(self._loss_terms(name, xs, ys, theta)))
        assert score.shape == dense_score.shape == (d,) and type(loss_mean) is float
        assert np.max(np.abs(score - dense_score)) <= 1e-12 * np.max(np.abs(dense_score))
        assert loss_mean == pytest.approx(dense_loss, rel=1e-13, abs=0.0)


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
