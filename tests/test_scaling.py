import numpy as np
import pytest
from hypothesis import given, strategies as st

from ftppi import scaling
from ftppi.core import (
    CsvFormatError,
    DomainError,
    InsufficientDataError,
    ParameterError,
    UnderdeterminedFitError,
)
from ftppi.scaling import (
    A_FLOOR,
    ALPHA_MAX,
    ALPHA_MIN,
    ScalingFit,
    ScalingLaw,
    ScalingObservation,
    eval_variance,
    fit_report_dict,
    fit_scaling_law,
    read_observations_csv,
)

SIZES = [50, 100, 200, 400, 800, 1600, 3200, 5000]


def observations_from_law(law, sizes=SIZES, noise_sd=0.0, seed=0):
    """Law evaluated on a size grid, optionally with additive Gaussian
    measurement noise of absolute standard deviation ``noise_sd``."""
    rng = np.random.default_rng(seed)
    obs = []
    for s in sizes:
        v = eval_variance(law, s)
        if noise_sd:
            v = max(v + rng.normal(scale=noise_sd), 1e-12)
        obs.append(ScalingObservation(s, v))
    return obs


def brute_force_fit(observations, alpha_grid=None):
    """Independent oracle: dense scan over alpha with exact profiled (a, b).

    At fixed alpha the model is linear in (a, b); solve the constrained
    least-squares subproblem by trying the interior solution and both
    boundary solutions, keeping whichever is feasible with smallest error.
    """
    s = np.array([o.s for o in observations], dtype=float)
    v = np.array([o.variance for o in observations], dtype=float)
    if alpha_grid is None:
        alpha_grid = np.geomspace(ALPHA_MIN, ALPHA_MAX, 20001)
    best = None
    for alpha in alpha_grid:
        x = s**-alpha
        candidates = []
        # interior: plain 2x2 least squares
        A = np.array([[np.dot(x, x), x.sum()], [x.sum(), len(x)]])
        rhs = np.array([np.dot(x, v), v.sum()])
        if np.linalg.cond(A) < 1e12:
            a, b = np.linalg.solve(A, rhs)
            candidates.append((a, b))
        # b pinned at 0
        candidates.append((np.dot(x, v) / np.dot(x, x), 0.0))
        for a, b in candidates:
            a = max(a, 1e-12)
            b = max(b, 0.0)
            sse = float(np.sum((v - a * x - b) ** 2))
            if best is None or sse < best[0]:
                best = (sse, a, alpha, b)
    return best[1], best[2], best[3], best[0]


def fit_sse(law, observations):
    """(SSE of ``law``, total sum of squares) over the observations."""
    s = np.array([o.s for o in observations], dtype=float)
    v = np.array([o.variance for o in observations], dtype=float)
    sse = float(np.sum((v - law.a * s**-law.alpha - law.b) ** 2))
    return sse, float(np.sum((v - v.mean()) ** 2))


def _scalar_profile(alpha, s, v):
    """Best (a, b, sse) at one alpha, one scalar at a time."""
    x = np.exp(-alpha * np.log(s))
    n = x.shape[0]
    sx, sxx, sv, sxv = float(x.sum()), float((x * x).sum()), float(v.sum()), float((x * v).sum())
    det = n * sxx - sx * sx
    if det > 1e-14 * max(1.0, n * sxx):
        a = (n * sxv - sx * sv) / det
        b = (sv * sxx - sx * sxv) / det
    else:
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


def golden_section_fit(observations):
    """Oracle: the grid-plus-golden-section search the zoom scan replaced.

    A Python loop profiles a 120-point geometric alpha grid, then
    golden-section refines the best point's bracket until a step gains
    less than 1e-10 relative with the bracket under 1e-6, and keeps the
    best of the midpoint and the last probes.  Returns (law, degenerate).
    """
    s = np.array([o.s for o in observations], dtype=float)
    v = np.array([o.variance for o in observations], dtype=float)
    if float(np.sum((v - v.mean()) ** 2)) == 0.0:
        return ScalingLaw(A_FLOOR, ALPHA_MIN, float(v.mean())), True
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    grid = np.geomspace(ALPHA_MIN, ALPHA_MAX, 120)
    sses = [_scalar_profile(float(alpha), s, v)[2] for alpha in grid]
    best = int(np.argmin(sses))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, grid.shape[0] - 1)])
    best_sse = sses[best]
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = _scalar_profile(x1, s, v)[2], _scalar_profile(x2, s, v)[2]
    for _ in range(200):
        if hi - lo < 1e-12:
            break
        prev = best_sse
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = _scalar_profile(x1, s, v)[2]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = _scalar_profile(x2, s, v)[2]
        best_sse = min(best_sse, f1, f2)
        if prev > 0 and (prev - best_sse) / prev < 1e-10 and hi - lo < 1e-6:
            break
    alpha = 0.5 * (lo + hi)
    a, b, sse = _scalar_profile(alpha, s, v)
    for cand in (x1, x2, lo, hi):
        ca, cb, csse = _scalar_profile(cand, s, v)
        if csse < sse:
            alpha, a, b, sse = cand, ca, cb, csse
    return ScalingLaw(float(a), float(alpha), float(b)), False


def where_profile(alphas, log_s, v):
    """``scaling._profile`` with every clamp applied through ``np.where`` at
    every alpha: the oracle of the clamps applied only where needed.  Also
    returns which constraints bound at some alpha."""
    x = np.exp(-alphas[:, None] * log_s)
    n = log_s.shape[0]
    sx = x.sum(axis=1)
    sxx = (x * x).sum(axis=1)
    sv = v.sum()
    sxv = x @ v
    det = n * sxx - sx * sx
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
    bound = {"unsolvable": not solvable.all(), "negative_b": negative_b.any(), "low_a": low_a.any()}
    return (a, b, np.einsum("ij,ij->i", resid, resid)), bound


def profile_cases(count, seed):
    """Seeded (alphas, log_s, v): noisy, flat, rising and below-floor data on
    the first grid, on zoom grids and on a wide grid."""
    rng = np.random.default_rng(seed)
    first = np.geomspace(ALPHA_MIN, ALPHA_MAX, 120)
    for i in range(count):
        k = int(rng.integers(3, 12))
        s = np.sort(rng.choice(np.arange(1, 20_000), size=k, replace=False)).astype(float)
        a, alpha, b = rng.uniform(0.1, 50.0), rng.uniform(0.05, 1.9), rng.uniform(0.0, 3.0)
        v = a * s**-alpha + b
        shape = i % 5
        if shape == 0:  # noisy
            v = v + rng.normal(0.0, 0.1 * v.std() + 1e-3, k)
        elif shape == 1:  # flat, or nearly: no slope to identify
            v = np.full(k, b) + rng.choice([0.0, 1e-13]) * rng.standard_normal(k)
        elif shape == 2:  # one size repeated: det is 0 at every alpha
            s = np.full(k, s[0])
        elif shape == 3:  # rising: the amplitude hits its floor
            v = v[::-1].copy()
        else:  # a steep drop below the floor: b would go negative
            v = a * s**-alpha - rng.uniform(0.0, 1.0) * a * s[-1] ** -alpha
        grid = i % 3
        if grid == 0:
            alphas = first
        elif grid == 1:
            j = int(rng.integers(1, 119))
            alphas = np.linspace(first[j - 1], first[j + 1], 33)
        else:
            alphas = np.geomspace(1e-3, 60.0, 50)
        yield alphas, np.log(s), v


class TestProfileClamps:
    def test_same_bits_as_unconditional_where(self):
        bound_somewhere = set()
        for alphas, log_s, v in profile_cases(3000, 77):
            got = scaling._profile(alphas, log_s, v, v.sum())
            want, bound = where_profile(alphas, log_s, v)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            bound_somewhere |= {name for name, hit in bound.items() if hit}
            bound_somewhere |= {"none"} if not any(bound.values()) else set()
        assert bound_somewhere == {"none", "unsolvable", "negative_b", "low_a"}

    def test_first_grid_is_the_log_spaced_range(self):
        grid = scaling._FIRST_GRID
        assert grid.tobytes() == np.geomspace(ALPHA_MIN, ALPHA_MAX, 120).tobytes()
        assert not grid.flags.writeable


class TestScalingLaw:
    def test_eval_matches_formula(self):
        law = ScalingLaw(a=3.0, alpha=0.5, b=0.25)
        assert eval_variance(law, 16) == pytest.approx(3.0 / 4.0 + 0.25, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=0.0, alpha=0.5, b=0.1),
            dict(a=-1.0, alpha=0.5, b=0.1),
            dict(a=1.0, alpha=0.0, b=0.1),
            dict(a=1.0, alpha=-0.2, b=0.1),
            dict(a=1.0, alpha=0.5, b=-0.1),
            dict(a=np.inf, alpha=0.5, b=0.1),
            dict(a=1.0, alpha=np.nan, b=0.1),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises((ParameterError, DomainError)):
            ScalingLaw(**kwargs)

    def test_eval_requires_positive_integer_size(self):
        law = ScalingLaw(a=1.0, alpha=0.5, b=0.0)
        with pytest.raises(DomainError):
            eval_variance(law, 0)
        with pytest.raises(DomainError):
            eval_variance(law, -2)

    def test_decreasing_in_s(self):
        law = ScalingLaw(a=2.0, alpha=0.7, b=0.3)
        values = [eval_variance(law, s) for s in [1, 2, 5, 10, 100, 10000]]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] > law.b


class TestFitNoiseless:
    @pytest.mark.parametrize(
        "law",
        [
            ScalingLaw(a=10.21, alpha=0.21, b=1.98),
            ScalingLaw(a=4.0, alpha=1.0, b=0.0),
            ScalingLaw(a=11.403, alpha=0.261, b=2.447),
            ScalingLaw(a=0.5, alpha=0.05, b=0.01),
            ScalingLaw(a=2.0, alpha=1.7, b=3.0),
        ],
    )
    def test_recovers_exact_parameters(self, law):
        fit = fit_scaling_law(observations_from_law(law))
        assert fit.law.a == pytest.approx(law.a, rel=1e-6)
        assert fit.law.alpha == pytest.approx(law.alpha, rel=1e-6)
        assert fit.law.b == pytest.approx(law.b, rel=1e-6, abs=1e-6)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.degenerate

    def test_alpha_flag_set_when_at_least_one(self):
        law = ScalingLaw(a=2.0, alpha=1.3, b=0.5)
        fit = fit_scaling_law(observations_from_law(law))
        assert fit.alpha_ge_one
        law2 = ScalingLaw(a=2.0, alpha=0.8, b=0.5)
        assert not fit_scaling_law(observations_from_law(law2)).alpha_ge_one


class TestBoundaryFlag:
    SIZES = (10, 20, 40, 80, 160, 320)

    def test_alpha_pinned_at_search_edge_is_flagged(self):
        law = ScalingLaw(a=50.0, alpha=3.0, b=0.5)
        fit = fit_scaling_law(observations_from_law(law, self.SIZES))
        assert fit.law.alpha == ALPHA_MAX
        assert fit.r_squared == pytest.approx(0.985, abs=1e-3)
        assert fit.boundary
        assert fit_report_dict(fit)["boundary_flag"] is True

    def test_alpha_at_lower_edge_is_flagged(self):
        law = ScalingLaw(a=1.0, alpha=0.005, b=1.0)
        fit = fit_scaling_law(observations_from_law(law, self.SIZES))
        assert fit.law.alpha == ALPHA_MIN
        assert fit.boundary

    def test_interior_alpha_is_not_flagged(self):
        law = ScalingLaw(a=10.21, alpha=0.21, b=1.98)
        fit = fit_scaling_law(observations_from_law(law, self.SIZES))
        assert fit.law.alpha == pytest.approx(0.21, rel=1e-6)
        assert not fit.boundary
        assert fit_report_dict(fit)["boundary_flag"] is False

    def test_degenerate_fit_is_not_flagged(self):
        fit = fit_scaling_law([ScalingObservation(s, 1.0) for s in self.SIZES])
        assert fit.degenerate and not fit.boundary


class TestFitAgainstBruteForceOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_grid_scan(self, seed):
        rng = np.random.default_rng(seed)
        law = ScalingLaw(
            a=float(rng.uniform(0.5, 20.0)),
            alpha=float(rng.uniform(0.1, 1.5)),
            b=float(rng.uniform(0.0, 3.0)),
        )
        obs = observations_from_law(law, noise_sd=0.04, seed=seed + 100)
        fit = fit_scaling_law(obs)
        a_o, alpha_o, b_o, sse_o = brute_force_fit(obs)

        s = np.array([o.s for o in obs], dtype=float)
        v = np.array([o.variance for o in obs], dtype=float)
        sse_fit = float(np.sum((v - fit.law.a * s**-fit.law.alpha - fit.law.b) ** 2))
        # the fitted objective must match the oracle optimum to 1%
        # (both may sit in a flat valley, so parameters can differ more)
        assert sse_fit <= sse_o * 1.01 + 1e-15
        assert fit.law.alpha == pytest.approx(alpha_o, rel=0.05, abs=0.01)


class TestFitAgainstGoldenSectionOracle:
    """The zoom scan against the grid-plus-golden-section search it replaced."""

    @given(
        a=st.floats(min_value=0.1, max_value=20.0),
        alpha=st.floats(min_value=0.02, max_value=1.9),
        b=st.floats(min_value=0.0, max_value=5.0),
        sizes=st.lists(st.integers(1, 20_000), min_size=3, max_size=24, unique=True),
        noise_sd=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=0.3)),
        seed=st.integers(0, 2**16),
    )
    def test_sse_no_worse_than_oracle(self, a, alpha, b, sizes, noise_sd, seed):
        obs = observations_from_law(
            ScalingLaw(a, alpha, b), sorted(sizes), noise_sd=noise_sd, seed=seed
        )
        fit = fit_scaling_law(obs)
        oracle_law, oracle_degenerate = golden_section_fit(obs)
        sse, sst = fit_sse(fit.law, obs)
        oracle_sse, _ = fit_sse(oracle_law, obs)
        assert fit.degenerate == oracle_degenerate
        assert sse <= oracle_sse + 1e-12 * sst


class TestFitReturnsPlainFloats:
    @pytest.mark.parametrize(
        "obs",
        [
            observations_from_law(ScalingLaw(10.21, 0.21, 1.98)),
            observations_from_law(ScalingLaw(3.0, 0.4, 0.2), noise_sd=0.05, seed=4),
            observations_from_law(ScalingLaw(50.0, 3.0, 0.5), TestBoundaryFlag.SIZES),
            [ScalingObservation(s, v) for s, v in ((100, 6.1), (250, 5.4), (500, 5.0), (1000, 4.6))],
            [ScalingObservation(s, 2.5) for s in (10, 100, 1000)],
        ],
        ids=["noiseless", "noisy", "boundary", "readme", "degenerate"],
    )
    def test_fitted_numbers_are_python_floats(self, obs):
        fit = fit_scaling_law(obs)
        for value in (fit.law.a, fit.law.alpha, fit.law.b, fit.r_squared):
            assert type(value) is float


class TestFitNoisy:
    def test_high_r_squared_under_measurement_noise(self):
        law = ScalingLaw(a=10.21, alpha=0.21, b=1.98)
        fit = fit_scaling_law(observations_from_law(law, noise_sd=0.05, seed=3))
        assert fit.r_squared >= 0.99
        assert fit.law.alpha == pytest.approx(law.alpha, rel=0.5)

    def test_residuals_have_observation_length(self):
        law = ScalingLaw(a=3.0, alpha=0.4, b=0.2)
        obs = observations_from_law(law, noise_sd=0.05, seed=4)
        fit = fit_scaling_law(obs)
        assert fit.residuals.shape == (len(obs),)
        v = np.array([o.variance for o in obs])
        pred = np.array([eval_variance(fit.law, o.s) for o in obs])
        np.testing.assert_allclose(fit.residuals, v - pred, atol=1e-12)


class TestFitEdgeCases:
    def test_too_few_points_rejected(self):
        obs = observations_from_law(ScalingLaw(1.0, 0.5, 0.1), sizes=[10, 20])
        with pytest.raises(InsufficientDataError):
            fit_scaling_law(obs)

    def test_underdetermined_duplicate_sizes(self):
        obs = [
            ScalingObservation(10, 1.0),
            ScalingObservation(10, 1.1),
            ScalingObservation(10, 0.9),
        ]
        with pytest.raises(UnderdeterminedFitError):
            fit_scaling_law(obs)

    def test_constant_variances_flagged_degenerate(self):
        obs = [ScalingObservation(s, 2.5) for s in [10, 100, 1000]]
        fit = fit_scaling_law(obs)
        assert fit.degenerate
        assert fit.law.b == pytest.approx(2.5)
        assert fit.r_squared == 1.0

    def test_increasing_variances_still_fit(self):
        # worse with more data: the law cannot represent it, but the fit
        # must return its best effort rather than crash
        obs = [
            ScalingObservation(10, 1.0),
            ScalingObservation(100, 2.0),
            ScalingObservation(1000, 3.0),
        ]
        fit = fit_scaling_law(obs)
        assert np.isfinite(fit.r_squared)
        assert fit.law.b >= 0.0

    def test_rejects_negative_variance_observation(self):
        with pytest.raises((DomainError, ParameterError)):
            ScalingObservation(10, -1.0)

    def test_rejects_non_integer_size(self):
        with pytest.raises((DomainError, ParameterError)):
            ScalingObservation(2.5, 1.0)

    @given(
        a=st.floats(min_value=0.1, max_value=50.0),
        alpha=st.floats(min_value=0.05, max_value=1.9),
        b=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_fit_never_leaves_parameter_domain(self, a, alpha, b):
        law = ScalingLaw(a=a, alpha=alpha, b=b)
        fit = fit_scaling_law(observations_from_law(law, sizes=[10, 40, 160, 640, 2560]))
        assert fit.law.a > 0.0
        assert ALPHA_MIN <= fit.law.alpha <= ALPHA_MAX
        assert fit.law.b >= 0.0


class TestFitReportDict:
    def test_field_order_and_content(self):
        law = ScalingLaw(a=2.0, alpha=0.5, b=0.1)
        fit = fit_scaling_law(observations_from_law(law))
        report = fit_report_dict(fit)
        assert list(report.keys()) == [
            "a",
            "alpha",
            "b",
            "r_squared",
            "alpha_ge_one_flag",
            "boundary_flag",
            "degenerate_flag",
        ]
        assert report["a"] == fit.law.a
        assert report["degenerate_flag"] is False


class TestReadObservationsCsv:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("s,variance\n10,2.5\n20,1.5\n40,1.0\n")
        obs = read_observations_csv(str(p))
        assert [(o.s, o.variance) for o in obs] == [(10, 2.5), (20, 1.5), (40, 1.0)]

    def test_rejects_fractional_size(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("s,variance\n10.5,2.5\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            read_observations_csv(str(p))

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "obs.csv"
        p.write_text("size,var\n10,2.5\n")
        with pytest.raises(CsvFormatError):
            read_observations_csv(str(p))
