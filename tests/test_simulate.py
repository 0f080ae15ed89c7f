"""Tests for synthetic worlds, trainers, and the simulation experiments."""

import dataclasses
import glob
import json
import math
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from ftppi import core, simulate
from ftppi.allocate import solve_optimal_allocation
from ftppi.core import (
    ConvergenceError,
    FtppiError,
    LabeledDataset,
    ParameterError,
    RngSeed,
    SingularHessianError,
    UnlabeledDataset,
    UnsupportedSizeError,
)
from ftppi.ppi_mean import _rectified_mean, ppi_mean_estimate
from ftppi.scaling import ScalingLaw, ScalingObservation, eval_variance, fit_scaling_law
from ftppi.simulate import (
    BiasProfile,
    SimTrainer,
    SyntheticWorld,
    analytic_estimator_variance,
    base_predictor,
    bootstrap_robustness,
    brute_force_allocation,
    default_measure_grid,
    external_ft_experiment,
    generate_world_data,
    run_estimator_comparison,
    scenario_from_dict,
    shifted_law,
    world_from_dict,
)


def plain_world(**overrides):
    defaults = dict(
        true_mean=1.5,
        var_y=4.0,
        feature_dim=1,
        law=ScalingLaw(3.0, 0.5, 0.5),
        s_min=4,
    )
    defaults.update(overrides)
    return SyntheticWorld(**defaults)


REFERENCE_WORLD = SyntheticWorld(
    true_mean=3.0,
    var_y=9.06,
    feature_dim=1,
    law=ScalingLaw(10.21, 0.21, 1.98),
    s_min=10,
)


class TestBiasProfile:
    def test_kinds_and_moments(self):
        zero = BiasProfile.zero()
        const = BiasProfile.constant(0.4)
        drift = BiasProfile.drifting(0.3)
        assert zero.variance == 0.0
        assert const.variance == 0.0
        assert drift.variance == pytest.approx(0.09)

    def test_offsets(self):
        xs = np.array([[0.0], [1.0], [-2.0]])
        assert BiasProfile.zero().offsets(xs) == pytest.approx([0.0, 0.0, 0.0])
        assert BiasProfile.constant(2.0).offsets(xs) == pytest.approx([2.0, 2.0, 2.0])
        assert BiasProfile.drifting(0.5).offsets(xs) == pytest.approx([0.5, 1.0, -0.5])

    def test_validation(self):
        with pytest.raises(ParameterError):
            BiasProfile("linear", 0.1)
        with pytest.raises(ParameterError):
            BiasProfile("zero", 0.1)
        with pytest.raises(ParameterError):
            BiasProfile("constant", float("inf"))


class TestSyntheticWorld:
    def test_defaults(self):
        w = plain_world()
        assert w.effective_noise_floor == 0.5
        assert w.signal_sd == pytest.approx(math.sqrt(3.5))
        assert w.residual_pseudo_noise_var(10) == pytest.approx(
            eval_variance(w.law, 10) - 0.5
        )

    def test_noise_floor_below_law_floor(self):
        w = plain_world(noise_floor=0.2)
        assert w.effective_noise_floor == 0.2
        assert w.signal_sd == pytest.approx(math.sqrt(3.8))

    def test_noise_floor_above_law_floor_rejected(self):
        with pytest.raises(ParameterError, match="asymptote"):
            plain_world(noise_floor=0.6)

    def test_noise_floor_above_var_y_rejected(self):
        with pytest.raises(ParameterError, match="var_y"):
            plain_world(var_y=0.3, law=ScalingLaw(3.0, 0.5, 0.5), s_min=None)

    def test_law_must_fit_under_var_y_at_s_min(self):
        # v(1) = 3.5 < 4.0 passes; a bigger coefficient does not
        plain_world(s_min=1)
        with pytest.raises(ParameterError, match="s_min"):
            plain_world(law=ScalingLaw(30.0, 0.5, 0.5), s_min=1)

    def test_s_min_validation(self):
        with pytest.raises(ParameterError):
            plain_world(s_min=0)
        with pytest.raises(ParameterError):
            plain_world(s_min=2.5)

    def test_drifting_bias_counts_toward_budget(self):
        w = plain_world(bias=BiasProfile.drifting(0.3))
        assert w.residual_pseudo_noise_var(10) == pytest.approx(
            eval_variance(w.law, 10) - 0.5 - 0.09
        )


class TestGeneration:
    def test_shapes_and_determinism(self):
        w = plain_world()
        l1, u1 = generate_world_data(w, 50, 70, 99)
        l2, u2 = generate_world_data(w, 50, 70, 99)
        l3, _ = generate_world_data(w, 50, 70, 100)
        assert l1.n == 50 and u1.m == 70
        assert np.array_equal(l1.xs, l2.xs) and np.array_equal(l1.ys, l2.ys)
        assert np.array_equal(u1.xs, u2.xs)
        assert not np.array_equal(l1.ys, l3.ys)

    def test_population_moments(self):
        w = plain_world()
        labeled, _ = generate_world_data(w, 200_000, 1, 5)
        assert float(np.mean(labeled.ys)) == pytest.approx(
            w.true_mean, abs=3 * math.sqrt(w.var_y / 200_000)
        )
        assert float(np.var(labeled.ys, ddof=1)) == pytest.approx(w.var_y, rel=0.02)

    def test_validation(self):
        w = plain_world()
        with pytest.raises(ParameterError):
            generate_world_data(w, 0, 10, 1)
        with pytest.raises(ParameterError):
            generate_world_data(w, 10, 0.5, 1)


def unblocked_field(xs, key):
    """The hash field as one whole-array expression: the blocked kernel's oracle."""

    def mix(z):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    h = np.full(xs.shape[0], np.uint64(key), dtype=np.uint64)
    for j in range(xs.shape[1]):
        h = mix(h ^ np.ascontiguousarray(xs[:, j]).view(np.uint64))
    u1 = ((h >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    h2 = mix(h ^ np.uint64(0xD1B54A32D192ED03))
    u2 = (h2 >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


class TestGaussField:
    """The blocked hash field matches the unblocked expression bit for bit."""

    @pytest.mark.parametrize("rows", [0, 1, 8191, 8192, 8193, 20_000])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_matches_unblocked_oracle(self, rows, dim, layout):
        rng = np.random.default_rng(rows * 10 + dim)
        wide = rng.standard_normal((rows, 2 * dim))
        wide[::5, 0] = 0.0
        wide[::7, -1] = -0.0
        xs = {
            "C": np.ascontiguousarray(wide[:, :dim]),
            "F": np.asfortranarray(wide[:, :dim]),
            "strided": wide[:, ::2],
        }[layout]
        for key in (0, 2**64 - 1):
            got = simulate._gauss_field(xs, key)
            want = unblocked_field(xs, key)
            assert got.shape == (rows,) and got.dtype == np.float64
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("rows", [1, 8191, 8193, 20_000])
    def test_dirty_out_is_written_over(self, rows):
        xs = np.random.default_rng(rows).standard_normal((rows, 2))
        for dirt in (np.nan, np.inf, 0.0):
            out = np.full(rows, dirt)
            got = simulate._gauss_field(xs, 17, out)
            assert got is out
            assert out.tobytes() == unblocked_field(xs, 17).tobytes()


class TestTrainer:
    def test_residual_variance_matches_law(self):
        labeled, _ = generate_world_data(REFERENCE_WORLD, 100_000, 1, 7)
        trainer = SimTrainer(REFERENCE_WORLD, RngSeed(31))
        f = trainer.train_size(1030)
        resid = labeled.ys - f.on(labeled)
        target = eval_variance(REFERENCE_WORLD.law, 1030)
        se = target * math.sqrt(2.0 / 100_000)
        assert float(np.var(resid, ddof=1)) == pytest.approx(target, abs=4 * se)
        assert float(np.mean(resid)) == pytest.approx(0.0, abs=0.05)

    def test_same_seed_same_predictions(self):
        labeled, _ = generate_world_data(plain_world(), 500, 1, 3)
        f1 = SimTrainer(plain_world(), RngSeed(8)).train_size(20)
        f2 = SimTrainer(plain_world(), RngSeed(8)).train_size(20)
        f3 = SimTrainer(plain_world(), RngSeed(9)).train_size(20)
        assert np.array_equal(f1.on(labeled), f2.on(labeled))
        assert not np.array_equal(f1.on(labeled), f3.on(labeled))

    def test_checkpoints_share_one_error_field(self):
        w = plain_world()
        labeled, _ = generate_world_data(w, 2000, 1, 11)
        sizes = (8, 64, 512)
        preds = {s: SimTrainer(w, RngSeed(12)).train_size(s).on(labeled) for s in sizes}
        zeta = {s: math.sqrt(w.residual_pseudo_noise_var(s)) for s in sizes}
        g_ab = (preds[8] - preds[64]) / (zeta[8] - zeta[64])
        g_ac = (preds[8] - preds[512]) / (zeta[8] - zeta[512])
        assert g_ab == pytest.approx(g_ac, abs=1e-9)
        # sanity: the recovered field is standard-normal-ish
        assert float(np.var(g_ab, ddof=1)) == pytest.approx(1.0, rel=0.15)

    def test_distinct_seeds_decorrelate_fields(self):
        w = plain_world()
        labeled, _ = generate_world_data(w, 100_000, 1, 13)
        fa = SimTrainer(w, RngSeed(1)).train_size(16).on(labeled)
        fb = SimTrainer(w, RngSeed(2)).train_size(16).on(labeled)
        clean = w.true_mean + w.signal_sd * labeled.xs[:, 0]
        corr = float(np.corrcoef(fa - clean, fb - clean)[0, 1])
        assert abs(corr) < 0.02

    def test_prediction_is_content_addressed(self):
        w = plain_world()
        xs = np.array([[1.5], [1.5], [2.0]])
        data = LabeledDataset(xs, np.zeros(3))
        preds = SimTrainer(w, RngSeed(4)).train_size(8).on(data)
        assert preds[0] == preds[1]
        assert preds[0] != preds[2]

    def test_too_small_s_raises(self):
        trainer = SimTrainer(plain_world(s_min=10), RngSeed(5))
        with pytest.raises(UnsupportedSizeError, match="minimum"):
            trainer.train_size(9)

    def test_untrainable_world(self):
        w = plain_world(s_min=None)
        with pytest.raises(UnsupportedSizeError, match="no trainable"):
            SimTrainer(w, RngSeed(6)).train_size(100)

    def test_bias_variance_can_exhaust_the_law(self):
        # drifting bias variance 0.25 exceeds what the law leaves above the
        # floor at large s, so those sizes are unsupported
        w = plain_world(
            law=ScalingLaw(3.0, 0.5, 0.1),
            noise_floor=0.1,
            bias=BiasProfile.drifting(0.5),
        )
        trainer = SimTrainer(w, RngSeed(7))
        trainer.train_size(10)  # 3/sqrt(10) = 0.95 leaves room
        with pytest.raises(UnsupportedSizeError, match="no room"):
            trainer.train_size(10_000)

    def test_base_predictor_exists_below_s_min(self):
        labeled, _ = generate_world_data(REFERENCE_WORLD, 20_000, 1, 17)
        base = base_predictor(REFERENCE_WORLD, 17)
        resid = labeled.ys - base.on(labeled)
        target = eval_variance(REFERENCE_WORLD.law, 1)
        assert base.s == 0
        assert float(np.var(resid, ddof=1)) == pytest.approx(target, rel=0.05)


def inline_prediction(world, trainer_seed, s, xs):
    """The surrogate at training size s written out as one expression."""
    pseudo_sd = float(np.sqrt(max(world.residual_pseudo_noise_var(s), 0.0)))
    return (
        world.true_mean
        + world.signal_sd * xs[:, 0]
        + world.bias.offsets(xs)
        + pseudo_sd * simulate._gauss_field(xs, simulate._field_key(trainer_seed))
    )


PART_BIASES = [BiasProfile.zero(), BiasProfile.constant(0.3), BiasProfile.drifting(0.2)]


def count_fields(monkeypatch):
    """Record (rows, key) of every hash field the simulator computes."""
    calls = []
    original = simulate._gauss_field

    def counting(xs, key, out=None):
        calls.append((xs.shape[0], key))
        return original(xs, key, out)

    monkeypatch.setattr(simulate, "_gauss_field", counting)
    return calls


class TestSharedPartMemo:
    """Checkpoints of one trainer share the s-independent part of the surrogate."""

    @pytest.mark.parametrize("bias", PART_BIASES, ids=lambda b: b.kind)
    @pytest.mark.parametrize("dim", [1, 3])
    def test_bit_identical_to_inline_expression(self, bias, dim):
        w = plain_world(feature_dim=dim, bias=bias)
        labeled, unlabeled = generate_world_data(w, 300, 700, 21)
        seed = RngSeed(22)
        trainer = SimTrainer(w, seed)
        for s in (4, 20, 400, 20):
            f = trainer.train_size(s)
            for data in (labeled, unlabeled):
                assert np.array_equal(f.on(data), inline_prediction(w, seed, s, data.xs))

        base = base_predictor(w, 23)
        assert np.array_equal(base.on(labeled), inline_prediction(w, RngSeed(23), 1, labeled.xs))

    def test_writeable_arrays_are_not_memoized(self):
        w = plain_world(feature_dim=2, bias=BiasProfile.drifting(0.2))
        seed = RngSeed(24)
        trainer = SimTrainer(w, seed)
        f = trainer.train_size(10)
        xs = np.random.default_rng(25).standard_normal((500, 2))
        view = xs.view()
        view.setflags(write=False)  # read-only, but its memory can still change
        for arr in (xs, view):
            assert np.array_equal(f.predict(arr), inline_prediction(w, seed, 10, arr))
        xs += 1.0
        for arr in (xs, view):
            assert np.array_equal(f.predict(arr), inline_prediction(w, seed, 10, arr))

    def test_refrozen_array_gets_fresh_predictions(self):
        w = plain_world(feature_dim=2, bias=BiasProfile.drifting(0.2))
        seed = RngSeed(32)
        trainer = SimTrainer(w, seed)
        ds = UnlabeledDataset(np.random.default_rng(33).standard_normal((400, 2)))
        before = trainer.train_size(10).on(ds)
        ds.xs.setflags(write=True)
        ds.xs[:] *= 3.0
        ds.xs.setflags(write=False)
        after = trainer.train_size(10).on(ds)
        assert np.array_equal(after, inline_prediction(w, seed, 10, ds.xs))
        assert not np.array_equal(after, before)

    @pytest.mark.parametrize("bias", PART_BIASES, ids=lambda b: b.kind)
    @pytest.mark.parametrize("dim", [1, 3])
    def test_split_kernel_matches_ppi_mean_estimate(self, bias, dim):
        w = plain_world(feature_dim=dim, bias=bias)
        n = 300
        labeled, unlabeled = generate_world_data(w, n, 700, 34)
        trainer = SimTrainer(w, RngSeed(35))
        perm = np.random.default_rng(36).permutation(n)
        lab, pool = trainer.parts(labeled.xs), trainer.parts(unlabeled.xs)
        for s in (4, 37, 150, 298):
            preds = np.full(700, np.nan)  # the pool's predictions are written over it
            kernel = simulate._split_estimate(trainer, labeled.ys, lab, pool, perm, s, preds)
            ppi = labeled.subset(np.sort(perm[s:]))
            assert kernel == ppi_mean_estimate(ppi, unlabeled, trainer.train_size(s))

    def test_law_outcome_matches_checkpoint_predictions(self):
        w = plain_world(bias=BiasProfile.drifting(0.2))
        val, _ = generate_world_data(w, 300, 1, 37)
        trainer = SimTrainer(w, RngSeed(38))
        grid = [8, 24, 72, 200]
        observations = [
            ScalingObservation(s, float(np.var(val.ys - trainer.train_size(s).on(val), ddof=1)))
            for s in grid
        ]
        fit = fit_scaling_law(observations)
        fraction = solve_optimal_allocation(fit.law, 1000).fraction
        assert simulate._measure_law_outcome(val, grid, trainer, 1000) == (
            fit.law.a, fit.law.alpha, fit.law.b, fraction, fit.r_squared
        )

    def test_brute_force_computes_pool_field_once_per_replicate(self, monkeypatch):
        calls = count_fields(monkeypatch)
        n, m, replicates = 200, 5000, 3
        result = brute_force_allocation(
            plain_world(), n, m, grid_step=0.1, replicates=replicates, seed=28
        )
        assert result.fractions.shape[0] == 9
        pool_keys = [key for rows, key in calls if rows == m]
        assert len(pool_keys) == replicates
        assert len(set(pool_keys)) == replicates  # one trainer key per replicate
        # the labeled draw too is hashed once per replicate, not once per fraction
        assert sorted(rows for rows, _ in calls) == [n] * replicates + [m] * replicates

    def test_bootstrap_hashes_once_per_dataset_and_seed(self, monkeypatch):
        calls = count_fields(monkeypatch)
        bootstrap_robustness(
            plain_world(),
            n_datasets=3,
            n_training_seeds=2,
            n_fit=600,
            resamples=10,
            seed=30,
            s_grid=[8, 24, 72, 200],
        )
        assert [rows for rows, _ in calls] == [300] * 6
        assert len({key for _, key in calls}) == 6


class TestAnalyticVariance:
    def test_matches_monte_carlo(self):
        w = plain_world()
        n, m, s, reps = 400, 1000, 100, 4000
        seed = RngSeed(2025)
        ests = np.empty(reps)
        for r in range(reps):
            rep = seed.child(r)
            labeled, unlabeled = generate_world_data(w, n, m, rep.child(0))
            trainer = SimTrainer(w, rep.child(1))
            perm = rep.child(2).generator().permutation(n)
            ft = labeled.subset(np.sort(perm[:s]))
            ppi = labeled.subset(np.sort(perm[s:]))
            ests[r] = ppi_mean_estimate(ppi, unlabeled, trainer.train(ft))
        analytic = analytic_estimator_variance(w, n, m, s)
        assert float(np.var(ests, ddof=1)) == pytest.approx(analytic, rel=0.10)
        assert float(np.mean(ests)) == pytest.approx(
            w.true_mean, abs=3 * math.sqrt(analytic / reps)
        )

    def test_formula_pieces(self):
        w = plain_world(bias=BiasProfile.drifting(0.2))
        got = analytic_estimator_variance(w, 100, 500, 25)
        v = eval_variance(w.law, 25)
        # Var f(x) = Var((signal_sd + 0.2) x1) + pseudo-noise variance
        pred_var = w.signal_sd**2 + 2 * w.signal_sd * 0.2 + 0.04 + (v - 0.5 - 0.04)
        assert got == pytest.approx(v / 75 + pred_var / 500)

    def test_prediction_variance_term_matches_drifting_predictor(self):
        w = plain_world(
            true_mean=0.8, var_y=0.25, law=ScalingLaw(2.0, 0.7, 0.1),
            bias=BiasProfile.drifting(0.1), s_min=50, noise_floor=0.02,
        )
        n, s = 2000, 200
        pool = UnlabeledDataset(RngSeed(5).generator().standard_normal((1_000_000, 1)))
        preds = SimTrainer(w, RngSeed(6)).train_size(s).on(pool)
        pred_var = analytic_estimator_variance(w, n, 1, s) - eval_variance(w.law, s) / (n - s)
        # the drift's covariance with the signal is 0.096 of this 0.336
        assert float(np.var(preds)) == pytest.approx(pred_var, rel=0.01)


class TestBruteForce:
    def test_deterministic_and_well_formed(self):
        w = plain_world()
        r1 = brute_force_allocation(w, 40, 60, 0.25, 8, 42)
        r2 = brute_force_allocation(w, 40, 60, 0.25, 8, 42)
        assert r1.fractions == pytest.approx([0.25, 0.5, 0.75])
        assert np.array_equal(r1.variances, r2.variances)
        assert r1.best_fraction in r1.fractions
        assert r1.replicates == 8
        assert (r1.variances > 0).all()

    def test_validation(self):
        w = plain_world()
        with pytest.raises(ParameterError):
            brute_force_allocation(w, 40, 60, 0.0, 8, 1)
        with pytest.raises(ParameterError):
            brute_force_allocation(w, 40, 60, 1.5, 8, 1)
        with pytest.raises(ParameterError):
            brute_force_allocation(w, 40, 60, 0.25, 1, 1)
        with pytest.raises(ParameterError):
            brute_force_allocation(w, 3, 60, 0.25, 8, 1)
        with pytest.raises(ParameterError):
            brute_force_allocation(w, 40, 0, 0.25, 8, 1)


class TestEstimatorComparison:
    def test_report_contents(self):
        w = plain_world(bias=BiasProfile.drifting(0.3), var_y=4.0)
        rep = run_estimator_comparison(w, n=400, m=2000, replicates=60, seed=7)
        by_name = {row.method: row for row in rep.rows}
        assert list(by_name) == ["SampleMean", "FtOnly", "PpiOnly", "FtPpi"]
        # surrogate-only averaging inherits the bias mean; rectified does not
        assert by_name["FtOnly"].mean_estimate == pytest.approx(
            w.true_mean + 0.3, abs=0.1
        )
        assert by_name["FtPpi"].mean_estimate == pytest.approx(w.true_mean, abs=0.1)
        assert rep.sample_savings == rep.variance_reduction
        assert rep.s_star > 0 and rep.n == 400 and rep.m == 2000 and rep.replicates == 60
        expected_analytic = 1.0 - 400 * eval_variance(w.law, rep.s_star) / (
            w.var_y * (400 - rep.s_star)
        )
        assert rep.analytic_variance_reduction == pytest.approx(expected_analytic)
        for row in rep.rows:
            assert row.rmse >= 0 and row.mae >= 0 and row.variance > 0

    def test_replicates_validation(self):
        with pytest.raises(ParameterError):
            run_estimator_comparison(plain_world(), 100, 200, 1, 1)


class TestBootstrapRobustness:
    def test_decomposition_sums_exactly(self):
        w = plain_world()
        rep = bootstrap_robustness(
            w,
            n_datasets=3,
            n_training_seeds=2,
            n_fit=600,
            resamples=60,
            seed=21,
            s_grid=[8, 24, 72, 200],
        )
        assert rep.data_sampling_part + rep.training_randomness_part == pytest.approx(
            rep.total_variance, rel=1e-10, abs=1e-18
        )
        assert set(rep.quantities) == {"a", "alpha", "b", "fraction", "r_squared"}
        for q in rep.quantities.values():
            assert q.ci_low <= q.ci_high
            assert np.isfinite(q.median)

    def test_no_training_noise_zeroes_within_part(self):
        w = plain_world()
        rep = bootstrap_robustness(
            w,
            n_datasets=3,
            n_training_seeds=3,
            n_fit=600,
            resamples=30,
            seed=22,
            s_grid=[8, 24, 72],
            training_noise=False,
        )
        assert rep.training_randomness_part == 0.0
        assert rep.total_variance == pytest.approx(rep.data_sampling_part)

    def test_validation(self):
        w = plain_world()
        with pytest.raises(ParameterError):
            bootstrap_robustness(w, 1, 2, 100, 10, 1)
        with pytest.raises(ParameterError):
            bootstrap_robustness(w, 2, 2, 100, 0, 1)

    def test_default_grid_respects_s_min(self):
        w = plain_world(s_min=40)
        grid = default_measure_grid(w, 2000)
        assert grid[0] == 40
        assert grid[-1] == 2000
        assert all(a < b for a, b in zip(grid, grid[1:]))
        with pytest.raises(ParameterError):
            default_measure_grid(w, 30)


# Ties, both zeros, NaN, infinities and values whose sum overflows.
_AWKWARD = np.array([-0.0, 0.0, 1.0, -1.0, 2.5, 2.5, np.nan, np.inf, -np.inf, 1e308, -1e308])


def _order_stat_samples(rng, shape):
    """Normal draws, or draws from ``_AWKWARD`` with and without its NaN."""
    yield rng.standard_normal(shape)
    awkward = rng.choice(_AWKWARD, size=shape)
    yield awkward
    yield np.where(np.isnan(awkward), 0.5, awkward)


def _same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestOrderStatistics:
    """The bootstrap's median and percentiles give ``np.median``'s and ``np.percentile``'s bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 99, 100, 101])
    def test_median_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            # (resamples, N, q) along N, as the bootstrap takes it, and 1-d
            for a in _order_stat_samples(rng, (13, n, 5)):
                with np.errstate(invalid="ignore", over="ignore"):
                    assert _same_bits(simulate._median(a.copy(), axis=1), np.median(a, axis=1))
                    want = np.median(a[0, :, 0])
                    assert _same_bits(simulate._median(a[0, :, 0].copy(), axis=0), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 39, 40, 41, 199, 200, 201])
    def test_percentiles_match_numpy(self, n):
        rng = np.random.default_rng(n)
        qs = ([2.5, 97.5], [0.0, 100.0], [50.0], rng.uniform(0.0, 100.0, 4).tolist())
        for _ in range(10):
            for a in _order_stat_samples(rng, n):
                for q in qs:
                    with np.errstate(invalid="ignore", over="ignore"):
                        assert _same_bits(simulate._percentiles(a, q), np.percentile(a, q))


class TestExternalFt:
    def test_strength_zero_is_identity(self):
        w = plain_world()
        law2 = shifted_law(w, 0.0)
        assert law2 == w.law

    def test_strength_shifts_floor_and_decay(self):
        w = plain_world(noise_floor=0.2)
        law2 = shifted_law(w, 1.0)
        assert law2.alpha == pytest.approx(w.law.alpha * 1.2)
        assert law2.b == pytest.approx(0.25)
        # the floor clamps at the irreducible noise
        w2 = plain_world(noise_floor=0.45)
        assert shifted_law(w2, 1.0).b == pytest.approx(0.45)

    def test_strength_validation(self):
        with pytest.raises(ParameterError):
            shifted_law(plain_world(), 1.5)

    def test_experiment_keeps_guarantees(self):
        w = plain_world(noise_floor=0.2)
        rep = external_ft_experiment(w, 0.8, n=500, m=2000, replicates=400, seed=33)
        assert abs(rep.mc_mean - rep.true_mean) <= 3.0 * rep.mc_se
        assert rep.empirical_variance == pytest.approx(rep.analytic_variance, rel=0.25)
        # a faster-decaying, lower-floor law rewards a bigger training share
        assert rep.fraction_external > rep.fraction_base
        assert rep.law_base == w.law


# ---------------------------------------------------------------------------
# Replicates on forked workers against the serial loop
# ---------------------------------------------------------------------------

#: Each experiment at toy sizes; 5 replicates split 2 + 3 over two workers.
EXPERIMENTS = {
    "brute_force": lambda workers: brute_force_allocation(
        plain_world(), 60, 300, grid_step=0.25, replicates=5, seed=3, workers=workers
    ),
    "comparison": lambda workers: run_estimator_comparison(
        plain_world(bias=BiasProfile.drifting(0.3)), 200, 500, replicates=5, seed=4,
        workers=workers,
    ),
    "bootstrap": lambda workers: bootstrap_robustness(
        plain_world(), n_datasets=3, n_training_seeds=2, n_fit=400, resamples=20, seed=5,
        workers=workers,
    ),
    "bootstrap_fixed_seed_and_grid": lambda workers: bootstrap_robustness(
        plain_world(), n_datasets=2, n_training_seeds=3, n_fit=400, resamples=20, seed=6,
        s_grid=[8, 24, 72, 200], training_noise=False, workers=workers,
    ),
    "external": lambda workers: external_ft_experiment(
        plain_world(noise_floor=0.2), 0.5, n=200, m=500, replicates=5, seed=7,
        workers=workers,
    ),
}


def assert_same_fields(a, b):
    """Every field of two reports is the same bits."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        else:
            assert repr(x) == repr(y), f.name


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not core._CAN_FORK, reason="forked workers need Linux")
class TestForkedReplicates:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_two_workers_match_the_serial_run(self, name):
        run = EXPERIMENTS[name]
        assert_same_fields(run(1), run(2))
        assert_no_child_left()

    def test_fewer_replicates_than_workers(self):
        serial = brute_force_allocation(plain_world(), 60, 300, 0.25, 2, 8)
        assert_same_fields(serial, brute_force_allocation(plain_world(), 60, 300, 0.25, 2, 8, 3))
        assert_no_child_left()

    def test_failure_in_a_child_reraises_the_serial_error(self, monkeypatch):
        failing = RngSeed(7).child(3).child(1)  # replicate 3: in the second worker's chunk
        original = simulate._split_estimate

        def split_estimate(trainer, *args):
            if trainer.rng == failing:
                raise ConvergenceError("replicate 3 gave up", np.array([1.0, 2.0]), 0.25)
            return original(trainer, *args)

        monkeypatch.setattr(simulate, "_split_estimate", split_estimate)
        errors = []
        for workers in (1, 2):
            with pytest.raises(ConvergenceError) as exc:
                EXPERIMENTS["external"](workers)
            errors.append(exc.value)
        serial, forked = errors
        assert str(forked) == str(serial) == "replicate 3 gave up"
        assert forked.last_iterate.tolist() == [1.0, 2.0] and forked.score_norm == 0.25
        assert_no_child_left()


# ---------------------------------------------------------------------------
# Per-chunk workspace against the per-replicate allocations it replaced
# ---------------------------------------------------------------------------


def fresh_split_estimate(trainer, ys, lab, pool, perm, s):
    """The split kernel with every prediction array allocated afresh."""
    pseudo_sd = trainer.pseudo_sd(s)
    idx = np.sort(perm[s:])
    (lab_base, lab_field), (pool_base, pool_field) = lab, pool
    return _rectified_mean(
        ys[idx], lab_base[idx] + pseudo_sd * lab_field[idx], pool_base + pseudo_sd * pool_field
    )


def reference_comparison(world, n, m, replicates, seed):
    """``run_estimator_comparison``'s draws, each replicate drawing its own data,
    parts and predictions, and PpiOnly from ``ppi_mean_estimate``."""
    s_star = solve_optimal_allocation(world.law, n).s_star_int
    rows = []
    for r in range(replicates):
        rep = RngSeed(seed).child(r)
        labeled, unlabeled = generate_world_data(world, n, m, rep.child(0))
        trainer = SimTrainer(world, rep.child(1))
        pool_base, pool_field = pool = trainer.parts(unlabeled.xs)
        ft_only = float(np.mean(pool_base + trainer.pseudo_sd(n) * pool_field))
        ppi_only = ppi_mean_estimate(labeled, unlabeled, base_predictor(world, rep.child(2)))
        perm = rep.child(3).generator().permutation(n)
        lab = trainer.parts(labeled.xs)
        ft_ppi = fresh_split_estimate(trainer, labeled.ys, lab, pool, perm, s_star)
        rows.append((float(np.mean(labeled.ys)), ft_only, ppi_only, ft_ppi))
    return np.array(rows)


def reference_external(world, strength, n, m, replicates, seed):
    world2 = dataclasses.replace(
        world, law=shifted_law(world, strength), noise_floor=world.effective_noise_floor
    )
    s = solve_optimal_allocation(world2.law, n).s_star_int
    rows = []
    for r in range(replicates):
        rep = RngSeed(seed).child(r)
        labeled, unlabeled = generate_world_data(world2, n, m, rep.child(0))
        trainer = SimTrainer(world2, rep.child(1))
        perm = rep.child(2).generator().permutation(n)
        lab, pool = trainer.parts(labeled.xs), trainer.parts(unlabeled.xs)
        rows.append(fresh_split_estimate(trainer, labeled.ys, lab, pool, perm, s))
    return np.array(rows)


def reference_brute_force(world, n, m, fractions, replicates, seed):
    sizes = [min(max(int(round(f * n)), 1), n - 2) for f in fractions]
    pool_xs = RngSeed(seed).child(0).generator().standard_normal((m, world.feature_dim))
    rows = []
    for r in range(replicates):
        rep = RngSeed(seed).child(r + 1)
        labeled = simulate._generate_labeled(world, n, rep.child(0))
        trainer = SimTrainer(world, rep.child(1))
        perm = rep.child(2).generator().permutation(n)
        lab, pool = trainer.parts(labeled.xs), trainer.parts(pool_xs)
        rows.append([fresh_split_estimate(trainer, labeled.ys, lab, pool, perm, s) for s in sizes])
    return np.array(rows)


@pytest.fixture
def captured_draws(monkeypatch):
    """The rows of every replicate kernel call, with any worker count up to the item count.

    The CPU cap is lifted so that three workers cut the replicates in three
    chunks on any machine.
    """
    draws = []
    original = simulate._forked_rows

    def capture(*args):
        rows = original(*args)
        draws.append(rows.copy())
        return rows

    monkeypatch.setattr(simulate, "_forked_rows", capture)
    monkeypatch.setattr(core, "_resolve_workers", lambda workers, items: min(workers, items))
    return draws


WORKSPACE_WORKERS = [1, 2, 3] if core._CAN_FORK else [1]


@pytest.mark.parametrize("bias", PART_BIASES, ids=lambda b: b.kind)
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("m", [500, simulate._FIELD_BLOCK + 808])
class TestWorkspaceMatchesFreshArrays:
    """Replicates that write into their chunk's buffers give the draws of
    replicates that allocate every array afresh, bit for bit; with 5
    replicates, 2 and 3 workers put chunk boundaries inside the list."""

    def test_comparison(self, captured_draws, bias, dim, m):
        w = plain_world(feature_dim=dim, bias=bias)
        want = reference_comparison(w, 60, m, 5, 41)
        for workers in WORKSPACE_WORKERS:
            run_estimator_comparison(w, 60, m, 5, 41, workers)
            assert captured_draws.pop().tobytes() == want.tobytes()

    def test_external(self, captured_draws, bias, dim, m):
        w = plain_world(feature_dim=dim, bias=bias, noise_floor=0.2)
        want = reference_external(w, 0.5, 60, m, 5, 42)
        for workers in WORKSPACE_WORKERS:
            external_ft_experiment(w, 0.5, 60, m, 5, 42, workers)
            assert captured_draws.pop().tobytes() == want.tobytes()

    def test_brute_force(self, captured_draws, bias, dim, m):
        w = plain_world(feature_dim=dim, bias=bias)
        for workers in WORKSPACE_WORKERS:
            result = brute_force_allocation(w, 60, m, 0.25, 5, 43, workers)
            want = reference_brute_force(w, 60, m, result.fractions, 5, 43)
            assert captured_draws.pop().tobytes() == want.tobytes()


class TestWorkspace:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_results_never_alias_the_workspace(self, name, monkeypatch):
        """Buffers scribbled over after every replicate, as the next replicate
        would, leave every report the same bits."""
        want = EXPERIMENTS[name](2)
        original = simulate._forked_rows

        def scribbling_rows(fn, items, workers, scratch=()):
            def scribbled(item, *buffers):
                row = fn(item, *buffers)
                for buf in buffers:
                    buf.fill(np.nan)
                return row

            return original(scribbled, items, workers, scratch)

        monkeypatch.setattr(simulate, "_forked_rows", scribbling_rows)
        assert_same_fields(EXPERIMENTS[name](2), want)

    def test_comparison_peak_memory(self):
        """With one worker the comparison holds its chunk's buffers (the pool's
        features, base, field and predictions) and no pool-sized temporaries:
        the tracemalloc peak is 4.2 pool arrays, where fresh arrays in every
        replicate peaked at 6.0."""
        w = plain_world(bias=BiasProfile.drifting(0.2))
        m = 200_000
        run_estimator_comparison(w, 200, 500, 2, 44)  # first-call allocations
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_estimator_comparison(w, 200, m, 2, 44, workers=1)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 5 * m * 8


def ftppi_errors(cls=FtppiError):
    for sub in cls.__subclasses__():
        yield sub
        yield from ftppi_errors(sub)


class TestErrorsCrossProcesses:
    @pytest.mark.parametrize("cls", sorted(ftppi_errors(), key=lambda c: c.__name__))
    def test_every_error_survives_pickle(self, cls):
        back = pickle.loads(pickle.dumps(cls("what went wrong")))
        assert type(back) is cls and str(back) == "what went wrong"

    @pytest.mark.parametrize(
        "exc",
        [
            ConvergenceError("no convergence", last_iterate=np.array([0.5, -1.0]), score_norm=3e-4),
            SingularHessianError("singular", condition=1e17),
        ],
    )
    def test_extra_attributes_survive_pickle(self, exc):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert vars(exc) and repr(vars(back)) == repr(vars(exc))


class TestWorldSerialization:
    def test_roundtrip(self):
        spec = {
            "true_mean": 1.5,
            "var_y": 4.0,
            "feature_dim": 1,
            "law": {"a": 3.0, "alpha": 0.5, "b": 0.5},
            "bias": {"kind": "drifting", "value": 0.25},
            "s_min": 7,
            "noise_floor": 0.3,
        }
        w = plain_world(bias=BiasProfile.drifting(0.25), noise_floor=0.3, s_min=7)
        assert world_from_dict(spec) == w

    def test_defaults_fill_in(self):
        w = world_from_dict(
            {"true_mean": 0.0, "var_y": 2.0, "law": {"a": 1.0, "alpha": 0.5, "b": 0.1}}
        )
        assert w.feature_dim == 1
        assert w.bias == BiasProfile.zero()
        assert w.s_min == 1
        assert w.noise_floor is None

    def test_missing_key_is_addressed(self):
        with pytest.raises(ParameterError, match="law"):
            world_from_dict({"true_mean": 0.0, "var_y": 1.0})
        with pytest.raises(ParameterError, match="alpha"):
            world_from_dict(
                {"true_mean": 0.0, "var_y": 1.0, "law": {"a": 1.0, "b": 0.0}}
            )

    def test_malformed_values(self):
        with pytest.raises(ParameterError):
            world_from_dict("not a dict")
        with pytest.raises(ParameterError, match="'world.true_mean' must be a finite number"):
            world_from_dict(
                {
                    "true_mean": "zero",
                    "var_y": 1.0,
                    "law": {"a": 1.0, "alpha": 0.5, "b": 0.0},
                }
            )

    @pytest.mark.parametrize("key", ["feature_dim", "s_min"])
    @pytest.mark.parametrize("value", [2.7, 10.9, True, False, "3", float("inf")])
    def test_non_integral_sizes_rejected(self, key, value):
        spec = {"true_mean": 0.0, "var_y": 2.0, "law": {"a": 1.0, "alpha": 0.5, "b": 0.1}}
        with pytest.raises(ParameterError, match=f"'world.{key}' must be an integer"):
            world_from_dict({**spec, key: value})

    @pytest.mark.parametrize("key", ["feature_dim", "s_min"])
    def test_integral_float_sizes_accepted(self, key):
        spec = {"true_mean": 0.0, "var_y": 2.0, "law": {"a": 1.0, "alpha": 0.5, "b": 0.1}}
        w = world_from_dict({**spec, key: 3.0})
        assert getattr(w, key) == 3 and type(getattr(w, key)) is int

    def test_none_s_min_rounds_trip(self):
        spec = {
            "true_mean": 1.5,
            "var_y": 4.0,
            "law": {"a": 3.0, "alpha": 0.5, "b": 0.5},
            "s_min": None,
        }
        w = world_from_dict(spec)
        assert w.s_min is None
        assert w == plain_world(s_min=None)


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

#: What the reader builds from each shipped file, written out by hand.
SHIPPED_CONFIGS = {
    "reference_world.json": REFERENCE_WORLD,
    "drifting_world.json": SyntheticWorld(
        true_mean=0.8,
        var_y=0.25,
        feature_dim=1,
        law=ScalingLaw(2.0, 0.7, 0.1),
        bias=BiasProfile("drifting", 0.1),
        s_min=50,
        noise_floor=0.02,
    ),
    "scenario_quick.json": {
        "world": REFERENCE_WORLD,
        "n": 2000,
        "m": 20000,
        "seed": 7,
        "allocation_curve": {"grid_step": 0.1, "replicates": 50},
        "comparison": {"replicates": 200},
        "bootstrap": {
            "n_datasets": 8,
            "n_training_seeds": 3,
            "n_fit": None,
            "resamples": 200,
            "s_grid": None,
            "training_noise": True,
            "n_alloc": None,
        },
        "external": None,
    },
    "scenario_allocation_curve.json": {
        "world": REFERENCE_WORLD,
        "n": 4000,
        "m": 40000,
        "seed": 18,
        "allocation_curve": {"grid_step": 0.05, "replicates": 100},
        "comparison": None,
        "bootstrap": None,
        "external": None,
    },
    "scenario_comparison.json": {
        "world": REFERENCE_WORLD,
        "n": 2000,
        "m": 20000,
        "seed": 1729,
        "allocation_curve": None,
        "comparison": {"replicates": 500},
        "bootstrap": None,
        "external": None,
    },
}


def plain_spec() -> dict:
    return {"true_mean": 1.5, "var_y": 4.0, "law": {"a": 3.0, "alpha": 0.5, "b": 0.5}}


class TestScenarioReader:
    def test_every_shipped_config_is_covered(self):
        names = {os.path.basename(p) for p in glob.glob(os.path.join(CONFIGS, "*.json"))}
        assert names == set(SHIPPED_CONFIGS)

    @pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
    def test_shipped_config_loads(self, name):
        with open(os.path.join(CONFIGS, name), encoding="utf-8") as fh:
            spec = json.load(fh)
        read = scenario_from_dict if name.startswith("scenario") else world_from_dict
        assert read(spec) == SHIPPED_CONFIGS[name]

    def test_sections_match_the_cli(self):
        from ftppi.cli import _SIMULATE_SECTIONS

        assert [name for name, _, _ in _SIMULATE_SECTIONS] == list(simulate._SECTIONS)

    def test_null_means_absent_where_accepted(self):
        world = plain_spec()
        nulls = {
            "world": {**world, "noise_floor": None},
            "n": 100,
            "m": 50,
            "seed": None,
            "comparison": None,
            "bootstrap": {"s_grid": None, "n_alloc": None},
        }
        absent = {"world": world, "n": 100, "m": 50, "bootstrap": {}}
        assert scenario_from_dict(nulls) == scenario_from_dict(absent)
        assert scenario_from_dict(absent)["comparison"] is None

    def test_unknown_key_lists_the_known_ones(self):
        with pytest.raises(ParameterError) as exc:
            scenario_from_dict(
                {"world": plain_spec(), "n": 1, "m": 1, "comparison": {"replicatess": 3}}
            )
        assert str(exc.value) == (
            "scenario key 'comparison.replicatess' must be one of the known keys: replicates"
        )
