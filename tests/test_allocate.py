"""Tests for the labeled-budget split solver and feasibility checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftppi.allocate import (
    BRACKET_EPS,
    BRACKET_TOL,
    AllocationResult,
    FeasibilityInput,
    allocation_objective,
    check_feasibility,
    foc_residual,
    solve_optimal_allocation,
    variance_discriminant,
)
from ftppi.core import DomainError, ParameterError
from ftppi.scaling import ScalingLaw


def grid_argmin(law: ScalingLaw, n: int, points: int = 20000) -> float:
    """Dense-grid oracle for the continuous minimizer of v(s)/(n-s)."""
    s = np.linspace(1e-6 * n, n * (1 - 1e-6), points)
    obj = (law.a * s ** (-law.alpha) + law.b) / (n - s)
    return float(s[np.argmin(obj)])


law_st = st.builds(
    ScalingLaw,
    a=st.floats(0.01, 100.0),
    alpha=st.floats(0.02, 2.0),
    b=st.floats(0.0, 50.0),
)


class TestSolveOptimalAllocation:
    def test_matches_dense_grid_oracle(self):
        cases = [
            (ScalingLaw(10.21, 0.21, 1.98), 10000),
            (ScalingLaw(4.0, 1.0, 0.0), 500),
            (ScalingLaw(11.403, 0.261, 2.447), 5000),
            (ScalingLaw(0.3, 1.7, 0.05), 2000),
            (ScalingLaw(50.0, 0.05, 10.0), 100000),
        ]
        for law, n in cases:
            res = solve_optimal_allocation(law, n)
            oracle = grid_argmin(law, n)
            step = n / 20000
            assert abs(res.s_star_real - oracle) <= 2 * step, (law, n)
            # the solver's point should score at least as well as the grid's
            assert allocation_objective(law, n, res.s_star_real) <= allocation_objective(
                law, n, oracle
            ) * (1 + 1e-9)

    def test_known_law_fraction(self):
        res = solve_optimal_allocation(ScalingLaw(10.21, 0.21, 1.98), 10000)
        assert 0.098 <= res.fraction <= 0.108
        assert res.s_star_int == round(res.s_star_real) or abs(
            res.s_star_int - res.s_star_real
        ) <= 1.0

    @given(
        a=st.floats(0.01, 100.0),
        alpha=st.floats(0.02, 2.0),
        n=st.integers(10, 10**7),
    )
    def test_zero_floor_closed_form(self, a, alpha, n):
        res = solve_optimal_allocation(ScalingLaw(a, alpha, 0.0), n)
        assert res.fraction == pytest.approx(alpha / (alpha + 1.0), abs=1e-9)

    @given(law=law_st, n=st.integers(10, 10**6))
    def test_foc_sign_brackets_root(self, law, n):
        res = solve_optimal_allocation(law, n)
        s = res.s_star_real
        width = max(1e-6 * n, 1e-9)
        lo = max(s - width, 1e-12 * n)
        hi = min(s + width, n * (1 - 1e-12))
        if lo < s:
            assert foc_residual(law, n, lo) >= -1e-9 * max(1.0, law.b)
        if hi > s:
            assert foc_residual(law, n, hi) <= 1e-9 * max(1.0, law.b)

    @given(law=law_st, n=st.integers(10, 10**6), c=st.floats(0.01, 100.0))
    def test_objective_scale_invariance(self, law, n, c):
        # scaling a and b jointly rescales the objective, not its argmin
        scaled = ScalingLaw(law.a * c, law.alpha, law.b * c)
        r1 = solve_optimal_allocation(law, n)
        r2 = solve_optimal_allocation(scaled, n)
        assert r2.s_star_real == pytest.approx(r1.s_star_real, rel=1e-6, abs=1e-6 * n)

    @given(law=law_st, n=st.integers(10, 10**6))
    def test_floor_pulls_split_down(self, law, n):
        bumped = ScalingLaw(law.a, law.alpha, law.b + 1.0)
        r1 = solve_optimal_allocation(law, n)
        r2 = solve_optimal_allocation(bumped, n)
        assert r2.s_star_real <= r1.s_star_real + 1e-6 * n

    @given(law=law_st, n=st.integers(10, 10**5))
    def test_more_data_moves_split_up(self, law, n):
        r1 = solve_optimal_allocation(law, n)
        r2 = solve_optimal_allocation(law, 2 * n)
        assert r2.s_star_real >= r1.s_star_real - 1e-6 * n
        if law.b > 1e-6:
            # with a positive floor the share shrinks as n grows
            assert r2.fraction <= r1.fraction + 1e-9

    @given(law=law_st, n=st.integers(4, 10**6))
    def test_fraction_below_zero_floor_share(self, law, n):
        res = solve_optimal_allocation(law, n)
        assert 0.0 < res.fraction < law.alpha / (law.alpha + 1.0) + 1e-9

    def test_integer_choice_matches_exhaustive_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            law = ScalingLaw(
                float(rng.uniform(0.05, 20)),
                float(rng.uniform(0.05, 2.0)),
                float(rng.uniform(0.0, 5.0)),
            )
            n = int(rng.integers(10, 200))
            res = solve_optimal_allocation(law, n)
            grid = np.arange(1, n - 1)
            objs = [allocation_objective(law, n, int(s)) for s in grid]
            best = int(grid[int(np.argmin(objs))])
            assert res.s_star_int == best, (law, n)
            assert res.objective_value_int == pytest.approx(min(objs))

    def test_real_optimum_never_beats_integer_by_much(self):
        law = ScalingLaw(2.0, 0.7, 0.3)
        res = solve_optimal_allocation(law, 1000)
        assert res.objective_value <= res.objective_value_int

    def test_tiny_n_clamps_and_notes(self):
        res = solve_optimal_allocation(ScalingLaw(1.0, 1.0, 0.0), 2)
        assert res.s_star_int == 1
        assert "fewer than 2 rectification samples remain" in res.diagnostics

    def test_no_sigma_sq_defaults_feasible_with_note(self):
        res = solve_optimal_allocation(ScalingLaw(1.0, 0.5, 0.1), 100)
        assert res.feasible is True
        assert res.threshold is None
        assert "feasibility not evaluated" in res.diagnostics

    def test_infeasible_case_flagged(self):
        # floor nearly equal to label variance: surrogate cannot help
        res = solve_optimal_allocation(ScalingLaw(1.0, 1.0, 0.9), 100, sigma_sq=1.0)
        assert res.feasible is False
        assert res.threshold == pytest.approx(0.8)
        assert "noise floor too high" in res.diagnostics

    @pytest.mark.parametrize(
        "alpha, n", [(38.0, 10), (60.0, 1000), (60.0, 1_000_000), (120.0, 1_000_000)]
    )
    def test_steep_law_solves_without_overflow(self, alpha, n):
        # s**(-alpha-1) overflows at the bracket end 1e-9*n for these laws
        law = ScalingLaw(1.0, alpha, 0.1)
        res = solve_optimal_allocation(law, n)
        s, tol = res.s_star_real, BRACKET_TOL * n
        assert 1.0 < s < 2.0
        assert foc_residual(law, n, s - tol) > 0 > foc_residual(law, n, s + tol)
        assert res.s_star_int == 2

    @pytest.mark.parametrize("alpha", [1e-9, 1e-12, 2e9, 1e12])
    @pytest.mark.parametrize("n", [10, 100, 1_000_000])
    def test_root_beyond_first_bracket_at_extreme_alpha(self, alpha, n):
        # Without a floor the root is alpha * n / (alpha + 1): at these alphas
        # it lies outside (1e-9 * n, n - 1e-9 * n), and is still in (0, n).
        res = solve_optimal_allocation(ScalingLaw(1.0, alpha, 0.0), n)
        assert res.s_star_real == pytest.approx(alpha * n / (alpha + 1.0), rel=1e-8, abs=0)
        assert res.s_star_int == (1 if alpha < 1.0 else n - 2)
        assert f"integer optimum clamped to [1, {n - 2}]" in res.diagnostics

    @pytest.mark.parametrize("n", [100, 1_000_000])
    def test_floor_law_solves_at_tiny_alpha(self, n):
        law = ScalingLaw(1.0, 1e-9, 1.0)
        s = solve_optimal_allocation(law, n).s_star_real
        assert 0.0 < s < BRACKET_EPS * n
        assert foc_residual(law, n, s * (1 - 1e-7)) > 0 > foc_residual(law, n, s * (1 + 1e-7))

    @pytest.mark.parametrize("a, b", [(1e-300, 1e10), (1e-200, 1e200)])
    def test_law_whose_b_over_a_overflows_solves(self, a, b):
        # b / a overflows, and for the second law a / b underflows too
        law, n = ScalingLaw(a, 0.5, b), 100
        assert math.isinf(b / a)

        def log_residual(t: float) -> float:  # the stationarity residual's sign at s = e^t
            head = law.alpha * n - (law.alpha + 1.0) * math.exp(t)
            if head <= 0.0:
                return -math.inf
            return math.log(head) - math.log(b) + math.log(a) - (law.alpha + 1.0) * t

        lo, hi = math.log(1e-320), math.log(n)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if log_residual(mid) > 0.0 else (lo, mid)
        res = solve_optimal_allocation(law, n)
        assert res.s_star_real == pytest.approx(math.exp(0.5 * (lo + hi)), rel=1e-8, abs=0)
        assert res.s_star_int == 1
        assert f"integer optimum clamped to [1, {n - 2}]" in res.diagnostics

    def test_n_validation(self):
        law = ScalingLaw(1.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            solve_optimal_allocation(law, 1)
        with pytest.raises(ParameterError):
            solve_optimal_allocation(law, 10.0)
        with pytest.raises(ParameterError):
            solve_optimal_allocation(law, True)


class TestObjectiveAndFoc:
    def test_objective_value(self):
        law = ScalingLaw(2.0, 1.0, 0.5)
        assert allocation_objective(law, 10, 4.0) == pytest.approx((2.0 / 4.0 + 0.5) / 6.0)

    def test_objective_domain(self):
        law = ScalingLaw(1.0, 1.0, 0.0)
        for s in (0.0, -1.0, 10.0, 11.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                allocation_objective(law, 10, s)
        with pytest.raises(DomainError):
            foc_residual(law, 10, 0.0)

    def test_foc_residual_value(self):
        law = ScalingLaw(3.0, 1.0, 0.2)
        n, s = 100, 5.0
        expected = 1.0 * 3.0 * n * s**-2.0 - 2.0 * 3.0 * s**-1.0 - 0.2
        assert foc_residual(law, n, s) == pytest.approx(expected)

    @given(law=law_st, n=st.integers(10, 10**6), frac=st.floats(1e-6, 1 - 1e-6))
    def test_foc_strictly_decreasing(self, law, n, frac):
        s = frac * n
        s2 = min(s * 1.01, n * (1 - 1e-9))
        if s2 > s:
            assert foc_residual(law, n, s2) < foc_residual(law, n, s) + 1e-12


class TestFeasibility:
    def test_threshold_values_exact(self):
        law = ScalingLaw(1.0, 1.0, 0.0)
        _, t4 = check_feasibility(FeasibilityInput(law=law, n=4, sigma_sq=1.0))
        _, t100 = check_feasibility(FeasibilityInput(law=law, n=100, sigma_sq=1.0))
        assert t4 == pytest.approx(0.0, abs=1e-15)
        assert t100 == pytest.approx(0.8, abs=1e-15)

    def test_threshold_verdicts(self):
        ok, _ = check_feasibility(
            FeasibilityInput(law=ScalingLaw(1.0, 1.0, 0.5), n=100, sigma_sq=1.0)
        )
        bad, _ = check_feasibility(
            FeasibilityInput(law=ScalingLaw(1.0, 1.0, 0.9), n=100, sigma_sq=1.0)
        )
        assert ok is True
        assert bad is False

    def test_feasible_iff_positive_advantage_at_peak(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            law = ScalingLaw(
                float(rng.uniform(0.01, 20)),
                float(rng.uniform(0.05, 2.0)),
                float(rng.uniform(0.0, 3.0)),
            )
            n = int(rng.integers(4, 100000))
            sigma_sq = float(rng.uniform(0.05, 10))
            inp = FeasibilityInput(law=law, n=n, sigma_sq=sigma_sq)
            feasible, _ = check_feasibility(inp)
            # the unconstrained maximizer of the variance advantage
            peak = (law.a * law.alpha * n / sigma_sq) ** (1.0 / (law.alpha + 1.0))
            if peak >= n:
                # advantage is still rising at the right edge, where it is
                # already negative; no split can work
                assert feasible is False
            else:
                assert feasible == (variance_discriminant(inp, peak) > 0)

    def test_input_validation(self):
        law = ScalingLaw(1.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            FeasibilityInput(law=law, n=100, sigma_sq=0.0)
        with pytest.raises(ParameterError):
            FeasibilityInput(law=law, n=100, sigma_sq=float("nan"))
        with pytest.raises(ParameterError):
            FeasibilityInput(law=law, n=1, sigma_sq=1.0)
        with pytest.raises(DomainError):
            variance_discriminant(
                FeasibilityInput(law=law, n=100, sigma_sq=1.0), 100.0
            )


class TestResultShape:
    def test_dataclass_fields(self):
        res = solve_optimal_allocation(ScalingLaw(1.0, 0.5, 0.1), 1000, sigma_sq=2.0)
        assert isinstance(res, AllocationResult)
        assert isinstance(res.s_star_int, int)
        assert isinstance(res.s_star_real, float)
        assert res.threshold is not None
        assert 0 < res.s_star_int < 1000
