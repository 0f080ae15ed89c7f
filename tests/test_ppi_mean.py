"""Tests for rectified mean estimation and the normal quantile helper."""

import math
import subprocess
import sys
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from ftppi.core import (
    InsufficientDataError,
    LabeledDataset,
    ParameterError,
    Predictor,
    UnlabeledDataset,
)
from ftppi.ppi_mean import (
    _VAR_BLOCK,
    Method,
    _var,
    ft_only_report,
    normal_quantile,
    ppi_mean_ci,
    ppi_mean_estimate,
    ppi_mean_variance_hat,
    sample_mean_estimate,
)


def linear_predictor(slope: float = 1.0, intercept: float = 0.0, s: int = 1) -> Predictor:
    return Predictor(lambda xs: intercept + slope * xs[:, 0], s=s, label="linear")


def erfc_bisection_quantile(p: float) -> float:
    """Slow reference inverse CDF: bisection on 0.5*erfc(-x/sqrt(2)) = p."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormalQuantile:
    def test_standard_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-10)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.84134474606854293) == pytest.approx(1.0, abs=1e-9)

    def test_against_scipy(self):
        ps = np.concatenate(
            [
                np.geomspace(1e-12, 0.4, 40),
                np.linspace(0.41, 0.59, 10),
                1.0 - np.geomspace(1e-12, 0.4, 40),
            ]
        )
        for p in ps:
            assert normal_quantile(float(p)) == pytest.approx(
                float(scipy.stats.norm.ppf(p)), abs=1e-9
            )

    def test_against_bisection_reference(self):
        for p in (0.001, 0.025, 0.3, 0.5, 0.77, 0.975, 0.9999):
            assert normal_quantile(p) == pytest.approx(
                erfc_bisection_quantile(p), abs=1e-9
            )

    @given(st.floats(1e-7, 0.5))
    def test_symmetry(self, p):
        # deeper tails are limited by rounding of 1 - p itself, not the
        # quantile routine: ulp(1)/pdf(x) passes 1e-8 near p = 1e-7
        assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-8)

    @given(st.floats(1e-9, 0.5), st.floats(1e-4, 0.49))
    def test_monotone(self, p, bump):
        q = min(p + bump, 1.0 - 1e-9)
        assert normal_quantile(q) > normal_quantile(p)

    def test_rejects_bad_p(self):
        for p in (0.0, 1.0, -0.5, 2.0, float("nan"), "0.5", None):
            with pytest.raises(ParameterError):
                normal_quantile(p)

    PS = [1e-300, 1e-12, 0.001, 0.025, 0.3, 0.5, 0.77, 0.975, 0.9999, 1.0 - 1e-12]

    @pytest.mark.parametrize("c_function", [True, False])
    def test_same_bits_as_statistics(self, monkeypatch, c_function):
        """With the C function, and with ``statistics`` when it is missing."""
        if not c_function:
            monkeypatch.setitem(sys.modules, "_statistics", None)
        for p in self.PS:
            assert normal_quantile(p) == NormalDist().inv_cdf(p)

    def test_loads_no_statistics_module(self):
        code = (
            "import sys; from ftppi.ppi_mean import normal_quantile; normal_quantile(0.975); "
            "print(*[m in sys.modules for m in ('statistics', 'fractions', 'decimal')])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.split() == ["False"] * 3, proc.stderr


def small_case():
    labeled = LabeledDataset(np.array([[1.0], [2.0], [4.0]]), np.array([3.0, 5.0, 6.0]))
    unlabeled = UnlabeledDataset(np.array([[0.0], [2.0], [4.0], [6.0]]))
    return labeled, unlabeled


class TestPpiMeanEstimate:
    def test_hand_computed(self):
        labeled, unlabeled = small_case()
        f = linear_predictor(slope=1.0, intercept=1.0)
        # residuals: 3-2, 5-3, 6-5 -> mean 4/3; pool preds: 1,3,5,7 -> mean 4
        est = ppi_mean_estimate(labeled, unlabeled, f)
        assert est == pytest.approx(4.0 + 4.0 / 3.0, rel=1e-12)

    def test_constant_predictor_reduces_to_sample_mean(self):
        labeled, unlabeled = small_case()
        f = Predictor(lambda xs: np.full(xs.shape[0], 2.5), s=0)
        est = ppi_mean_estimate(labeled, unlabeled, f)
        assert est == pytest.approx(float(np.mean(labeled.ys)), rel=1e-14)

    def test_shift_invariance(self):
        labeled, unlabeled = small_case()
        base = ppi_mean_estimate(labeled, unlabeled, linear_predictor(2.0, 0.0))
        shifted = ppi_mean_estimate(labeled, unlabeled, linear_predictor(2.0, 17.0))
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_unbiased_under_biased_predictor(self):
        rng = np.random.default_rng(905)
        true_mean = 1.4
        reps = 4000
        ests = np.empty(reps)
        f = linear_predictor(slope=1.0, intercept=0.9)  # deliberately biased
        for r in range(reps):
            x = rng.standard_normal((60, 1))
            y = true_mean + 0.8 * x[:, 0] + 0.4 * rng.standard_normal(60)
            xu = rng.standard_normal((400, 1))
            ests[r] = ppi_mean_estimate(
                LabeledDataset(x, y), UnlabeledDataset(xu), f
            )
        se = float(np.std(ests, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(ests)) - true_mean) < 3 * se


class TestVarianceHat:
    def test_divisors_and_total(self):
        labeled, unlabeled = small_case()
        f = linear_predictor(1.0, 1.0)
        parts = ppi_mean_variance_hat(labeled, unlabeled, f)
        resid = labeled.ys - (1.0 + labeled.xs[:, 0])
        preds = 1.0 + unlabeled.xs[:, 0]
        assert parts.sigma_resid_sq == pytest.approx(float(np.var(resid, ddof=1)))
        assert parts.sigma_f_sq == pytest.approx(float(np.var(preds, ddof=1)))
        assert parts.total == pytest.approx(
            parts.sigma_resid_sq / 3 + parts.sigma_f_sq / 4
        )

    def test_matches_monte_carlo_variance(self):
        rng = np.random.default_rng(77)
        n, m, reps = 200, 400, 3000
        f = linear_predictor(slope=2.0)
        ests = np.empty(reps)
        for r in range(reps):
            x = rng.standard_normal((n, 1))
            y = 1.0 + x[:, 0] + 0.7 * rng.standard_normal(n)
            xu = rng.standard_normal((m, 1))
            ests[r] = ppi_mean_estimate(LabeledDataset(x, y), UnlabeledDataset(xu), f)
        # residual y - 2x = 1 - x + e -> var 1 + 0.49; predictions 2x -> var 4
        analytic = (1.0 + 0.49) / n + 4.0 / m
        empirical = float(np.var(ests, ddof=1))
        assert empirical == pytest.approx(analytic, rel=0.10)

    def test_needs_two_samples_each_side(self):
        f = linear_predictor()
        one_l = LabeledDataset(np.array([[1.0]]), np.array([2.0]))
        one_u = UnlabeledDataset(np.array([[1.0]]))
        _, unlabeled = small_case()
        labeled, _ = small_case()
        with pytest.raises(InsufficientDataError):
            ppi_mean_variance_hat(one_l, unlabeled, f)
        with pytest.raises(InsufficientDataError):
            ppi_mean_variance_hat(labeled, one_u, f)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestBlockVariance:
    """``_var`` against ``np.var``, bit for bit, on values whose mean is far from 0."""

    SIZES = (2, 7, 8, 9, 127, 128, 129, _VAR_BLOCK - 1, _VAR_BLOCK, _VAR_BLOCK + 1,
             2**20 + 3, 1_200_000)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("ddof", [0, 1])
    def test_same_bits_as_numpy(self, n, ddof):
        x = 1e8 + np.random.default_rng(n).standard_normal(n)
        assert _bits(_var(x, ddof)) == _bits(np.var(x, ddof=ddof))

    @pytest.mark.parametrize("extra", [5, 9, 11, 13, 17])
    def test_split_rounds_down_to_eight_as_numpy_does(self, extra):
        # n // 2 is not a multiple of 8 here, and the deviations are heavy-tailed:
        # a split at n // 2 itself regroups a value and gives other bits
        n = 2 * _VAR_BLOCK + extra
        x = 1e8 + np.random.default_rng(n).lognormal(0.0, 3.0, n)
        assert _bits(_var(x, 1)) == _bits(np.var(x, ddof=1))

    @pytest.mark.parametrize("step", [2, 3, 7])
    def test_strided_column(self, step):
        x = (1e8 + np.random.default_rng(step).lognormal(0.0, 3.0, 300_001 * step))[::step]
        assert _bits(_var(x, 1)) == _bits(np.var(x, ddof=1))

    def test_scratch_is_one_block(self):
        x = 1e8 + np.random.default_rng(1).standard_normal(1_200_000)
        _var(x, 1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _var(x, 1)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 8 * _VAR_BLOCK + 4096 < x.nbytes / 10

    def test_pool_terms_have_numpys_bits(self):
        rng = np.random.default_rng(5)
        m = 3 * _VAR_BLOCK + 11
        labeled = LabeledDataset(rng.standard_normal((40, 1)), 1e8 + rng.standard_normal(40))
        pool = UnlabeledDataset(rng.standard_normal((m, 1)))
        f = linear_predictor(slope=3.0, intercept=1e8)
        preds = f.on(pool)
        want = np.var(preds, ddof=1)
        assert _bits(ppi_mean_variance_hat(labeled, pool, f).sigma_f_sq) == _bits(want)
        assert _bits(ft_only_report(pool, f, 0.1).variance_hat) == _bits(want / m)


class TestPpiMeanCi:
    def test_interval_shape(self):
        labeled, unlabeled = small_case()
        f = linear_predictor(1.0, 1.0)
        rep = ppi_mean_ci(labeled, unlabeled, f, delta=0.05)
        z = normal_quantile(0.975)
        half = z * math.sqrt(rep.variance_hat)
        assert rep.ci_low == pytest.approx(rep.estimate - half, rel=1e-12)
        assert rep.ci_high == pytest.approx(rep.estimate + half, rel=1e-12)
        assert rep.method is Method.FT_PPI
        assert rep.n_ppi == 3 and rep.m == 4
        assert "small sample" in rep.notes

    def test_no_note_for_big_samples(self):
        rng = np.random.default_rng(3)
        labeled = LabeledDataset(rng.standard_normal((40, 1)), rng.standard_normal(40))
        unlabeled = UnlabeledDataset(rng.standard_normal((50, 1)))
        rep = ppi_mean_ci(labeled, unlabeled, linear_predictor(), 0.05)
        assert rep.notes == ""

    @given(st.floats(0.01, 0.3), st.floats(0.01, 0.3))
    def test_smaller_delta_wider_interval(self, d1, d2):
        labeled, unlabeled = small_case()
        f = linear_predictor(1.0, 1.0)
        lo, hi = sorted([d1, d2])
        wide = ppi_mean_ci(labeled, unlabeled, f, lo)
        narrow = ppi_mean_ci(labeled, unlabeled, f, hi)
        assert wide.ci_high - wide.ci_low >= narrow.ci_high - narrow.ci_low - 1e-12

    def test_delta_validation(self):
        labeled, unlabeled = small_case()
        f = linear_predictor()
        for bad in (0.0, 1.0, -0.1, float("nan"), "x"):
            with pytest.raises(ParameterError):
                ppi_mean_ci(labeled, unlabeled, f, bad)

    def test_coverage_sanity(self):
        rng = np.random.default_rng(1234)
        n, m, reps, delta = 200, 2000, 1500, 0.1
        true_mean = -0.3
        f = linear_predictor(slope=1.0, intercept=0.2)
        hits = 0
        for r in range(reps):
            x = rng.standard_normal((n, 1))
            y = true_mean + x[:, 0] + 0.5 * rng.standard_normal(n)
            xu = rng.standard_normal((m, 1))
            rep = ppi_mean_ci(LabeledDataset(x, y), UnlabeledDataset(xu), f, delta)
            hits += rep.ci_low <= true_mean <= rep.ci_high
        coverage = hits / reps
        # 0.90 nominal; 3 binomial SEs is about 0.023 at 1500 reps
        assert 0.86 <= coverage <= 0.94


class TestBaselines:
    def test_sample_mean_report(self):
        rng = np.random.default_rng(8)
        ys = rng.standard_normal(100) + 3.0
        labeled = LabeledDataset(rng.standard_normal((100, 1)), ys)
        rep = sample_mean_estimate(labeled, 0.05)
        assert rep.estimate == pytest.approx(float(np.mean(ys)))
        assert rep.variance_hat == pytest.approx(float(np.var(ys, ddof=1)) / 100)
        assert rep.method is Method.SAMPLE_MEAN
        assert rep.m == 0
        assert rep.notes == ""

    def test_sample_mean_needs_two(self):
        with pytest.raises(InsufficientDataError):
            sample_mean_estimate(
                LabeledDataset(np.array([[1.0]]), np.array([1.0])), 0.05
            )

    def test_ft_only_sees_bias(self):
        rng = np.random.default_rng(9)
        xu = rng.standard_normal((5000, 1))
        unlabeled = UnlabeledDataset(xu)
        f = linear_predictor(slope=0.0, intercept=2.0)
        rep = ft_only_report(unlabeled, f, 0.05)
        assert rep.estimate == pytest.approx(2.0)
        assert rep.method is Method.FT_ONLY
        assert rep.n_ppi == 0
        assert "ignores prediction bias" in rep.notes

    def test_ft_only_needs_two(self):
        f = linear_predictor()
        with pytest.raises(InsufficientDataError):
            ft_only_report(UnlabeledDataset(np.array([[1.0]])), f, 0.05)
