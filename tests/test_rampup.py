"""Tests for the staged ramp-up procedure and its stopping rule."""

import math

import numpy as np
import pytest

from ftppi.allocate import solve_optimal_allocation
from ftppi.core import (
    FtppiError,
    LabeledDataset,
    ParameterError,
    PlanError,
    RngSeed,
    UnlabeledDataset,
    as_seed,
)
from ftppi.rampup import (
    RampUpPlan,
    StageRecord,
    rampup_final_estimate,
    run_rampup,
)
from ftppi.scaling import ScalingLaw, ScalingObservation, eval_variance, fit_scaling_law
from ftppi.simulate import SimTrainer, SyntheticWorld, generate_world_data


class ScriptedTrainer:
    """Trainer whose holdout residual variance is exactly the law's value.

    The returned predictor standardizes a deterministic pattern over
    whatever rows it is asked about, so with all-zero labels the residual
    sample variance equals eval_variance(law, train size) to float
    precision and the residual mean is exactly zero.
    """

    def __init__(self, law: ScalingLaw):
        self.law = law
        self.trained_ids: list[np.ndarray] = []

    def train(self, ft_data: LabeledDataset):
        self.trained_ids.append(np.sort(ft_data.xs[:, 0]).copy())
        v = eval_variance(self.law, ft_data.n)
        from ftppi.core import Predictor

        def fn(xs):
            g = xs[:, 0]
            g = (g - g.mean()) / g.std(ddof=1)
            return math.sqrt(v) * g

        return Predictor(fn, s=ft_data.n, label=f"scripted({ft_data.n})")


class FailingTrainer(ScriptedTrainer):
    def __init__(self, law, fail_at_size):
        super().__init__(law)
        self.fail_at_size = fail_at_size

    def train(self, ft_data):
        if ft_data.n >= self.fail_at_size:
            from ftppi.core import UnsupportedSizeError

            raise UnsupportedSizeError(f"cannot train at {ft_data.n}")
        return super().train(ft_data)


def id_dataset(n: int) -> LabeledDataset:
    xs = np.arange(n, dtype=np.float64).reshape(n, 1)
    return LabeledDataset(xs, np.zeros(n))


SCHEDULE = (100, 250, 500, 1000, 2000)


def check_predicate(trace, plan):
    """Every recorded decision must match the documented stopping rule."""
    for rec in trace.records:
        if rec.decision == "error":
            continue
        should_stop = rec.stage == plan.stages or (
            rec.s_hat is not None and rec.s_hat <= rec.size
        )
        assert rec.decision == ("stop" if should_stop else "continue"), rec
    stops = [r for r in trace.records if r.decision == "stop"]
    if trace.completed:
        assert len(stops) == 1
        assert trace.records[-1] is stops[0]
        assert trace.stop_stage == stops[0].stage
        assert trace.s_final == stops[0].size


class TestPlan:
    def test_validation(self):
        with pytest.raises(ParameterError, match="at least 3"):
            RampUpPlan(schedule=(10, 20), n_v=50)
        with pytest.raises(ParameterError, match="increasing"):
            RampUpPlan(schedule=(10, 10, 20), n_v=50)
        with pytest.raises(ParameterError, match=">= 1"):
            RampUpPlan(schedule=(0, 10, 20), n_v=50)
        with pytest.raises(ParameterError, match="n_v"):
            RampUpPlan(schedule=(10, 20, 40), n_v=1)

    def test_schedule_coerced_to_ints(self):
        plan = RampUpPlan(schedule=(np.int64(10), 20, 40), n_v=5)
        assert plan.schedule == (10, 20, 40)
        assert all(isinstance(s, int) for s in plan.schedule)
        assert plan.stages == 3


class TestStoppingRule:
    def test_full_schedule_when_optimum_beyond_it(self):
        law = ScalingLaw(10.21, 0.21, 1.98)
        n = 10_000
        s_star = solve_optimal_allocation(law, n).s_star_real
        assert s_star > SCHEDULE[-2]  # fixture precondition
        plan = RampUpPlan(schedule=SCHEDULE, n_v=1000)
        trace = run_rampup(id_dataset(n), plan, ScriptedTrainer(law), seed=3)
        check_predicate(trace, plan)
        assert trace.completed
        assert trace.stop_stage == 5
        assert trace.s_final == 2000
        # noiseless measurements pin the law, so the final size estimate
        # agrees with the direct solve
        assert trace.records[-1].s_hat == pytest.approx(s_star, rel=1e-3)

    def test_stops_mid_schedule(self):
        law = ScalingLaw(10.21, 0.21, 6.0)
        n = 10_000
        s_star = solve_optimal_allocation(law, n).s_star_real
        assert SCHEDULE[2] < s_star <= SCHEDULE[3]  # fixture precondition
        plan = RampUpPlan(schedule=SCHEDULE, n_v=1000)
        trace = run_rampup(id_dataset(n), plan, ScriptedTrainer(law), seed=3)
        check_predicate(trace, plan)
        assert trace.stop_stage == 4
        assert trace.s_final == 1000
        assert len(trace.records) == 4

    def test_stops_at_first_possible_fit(self):
        law = ScalingLaw(10.21, 0.21, 20.0)
        n = 10_000
        s_star = solve_optimal_allocation(law, n).s_star_real
        assert s_star <= SCHEDULE[2]  # fixture precondition
        plan = RampUpPlan(schedule=SCHEDULE, n_v=1000)
        trace = run_rampup(id_dataset(n), plan, ScriptedTrainer(law), seed=3)
        check_predicate(trace, plan)
        assert trace.stop_stage == 3
        assert trace.s_final == 500

    def test_early_records_have_no_fit(self):
        law = ScalingLaw(5.0, 0.5, 1.0)
        plan = RampUpPlan(schedule=(50, 100, 200, 400), n_v=200)
        trace = run_rampup(id_dataset(5000), plan, ScriptedTrainer(law), seed=4)
        assert trace.records[0].fit is None and trace.records[0].s_hat is None
        assert trace.records[1].fit is None
        assert trace.records[2].fit is not None
        # scripted measurements are exact, so the refit explains everything
        assert trace.records[2].fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert trace.records[2].s_hat == pytest.approx(
            solve_optimal_allocation(trace.records[2].fit.law, 5000).s_star_real
        )

    def test_record_dict_shape(self):
        law = ScalingLaw(5.0, 0.5, 1.0)
        plan = RampUpPlan(schedule=(50, 100, 200), n_v=100)
        trace = run_rampup(id_dataset(2000), plan, ScriptedTrainer(law), seed=5)
        d0 = trace.records[0].as_dict()
        assert d0["fit"] is None and d0["decision"] == "continue"
        dl = trace.records[-1].as_dict()
        assert set(dl) == {
            "stage",
            "size",
            "mean_residual",
            "residual_variance",
            "s_hat",
            "decision",
            "fit",
        }
        assert dl["fit"]["r_squared"] == pytest.approx(1.0, abs=1e-9)
        assert dl["decision"] == "stop"


class TestSubsetBookkeeping:
    def test_nested_prefixes_disjoint_from_validation(self):
        law = ScalingLaw(10.21, 0.21, 1.98)
        plan = RampUpPlan(schedule=SCHEDULE, n_v=1000)
        trainer = ScriptedTrainer(law)
        trace = run_rampup(id_dataset(10_000), plan, trainer, seed=6)
        assert [len(ids) for ids in trainer.trained_ids] == list(SCHEDULE)
        for prev, nxt in zip(trainer.trained_ids, trainer.trained_ids[1:]):
            assert set(prev) <= set(nxt)
        val_ids = set(trace.validation_indices.tolist())
        assert len(val_ids) == 1000
        for ids in trainer.trained_ids:
            assert not val_ids & set(ids.astype(int).tolist())
        # the recorded pool order reproduces the training subsets
        assert np.array_equal(
            np.sort(trace.pool_order[: SCHEDULE[0]]), trainer.trained_ids[0].astype(int)
        )

    def test_measurements_exactly_scripted(self):
        law = ScalingLaw(8.0, 0.4, 0.7)
        plan = RampUpPlan(schedule=(64, 128, 256), n_v=500)
        trace = run_rampup(id_dataset(3000), plan, ScriptedTrainer(law), seed=7)
        for rec in trace.records:
            assert rec.residual_variance == pytest.approx(
                eval_variance(law, rec.size), rel=1e-12
            )
            assert rec.mean_residual == pytest.approx(0.0, abs=1e-12)


class TestBudgetsAndModes:
    def test_holdout_budget_enforced(self):
        plan = RampUpPlan(schedule=(100, 200, 400), n_v=100)
        with pytest.raises(PlanError, match="rectification"):
            run_rampup(id_dataset(501), plan, ScriptedTrainer(ScalingLaw(1, 1, 0)), 1)
        # 502 labels leave exactly 2
        run_rampup(id_dataset(502), plan, ScriptedTrainer(ScalingLaw(5, 0.5, 1.0)), 1)

    def test_cv_mode_runs_without_holdout(self):
        world = SyntheticWorld(0.5, 4.0, 1, ScalingLaw(3.0, 0.5, 0.5), s_min=4)
        data, _ = generate_world_data(world, 400, 1, 8)
        plan = RampUpPlan(schedule=(20, 40, 80), n_v=50)
        trainer = SimTrainer(world, RngSeed(9))
        trace = run_rampup(data, plan, trainer, seed=10, cv_folds=4)
        assert trace.mode == "cv"
        assert trace.n_v is None
        assert trace.validation_indices is None
        assert trace.pool_order.shape == (400,)
        for rec in trace.records:
            assert np.isfinite(rec.residual_variance) and rec.residual_variance > 0

    def test_cv_budget_ignores_n_v(self):
        # holdout would need 80 + 50 > 100 - 2; cv only needs the schedule
        plan = RampUpPlan(schedule=(20, 40, 80), n_v=50)
        world = SyntheticWorld(0.5, 4.0, 1, ScalingLaw(3.0, 0.5, 0.5), s_min=4)
        data, _ = generate_world_data(world, 100, 1, 8)
        trainer = SimTrainer(world, RngSeed(9))
        with pytest.raises(PlanError):
            run_rampup(data, plan, trainer, seed=1)
        trace = run_rampup(data, plan, trainer, seed=1, cv_folds=4)
        assert trace.completed

    def test_n_v_may_be_none_for_cv_only(self):
        plan = RampUpPlan(schedule=(20, 40, 80), n_v=None)
        world = SyntheticWorld(0.5, 4.0, 1, ScalingLaw(3.0, 0.5, 0.5), s_min=4)
        data, _ = generate_world_data(world, 100, 1, 8)
        trainer = SimTrainer(world, RngSeed(9))
        with pytest.raises(PlanError, match="n_v"):
            run_rampup(data, plan, trainer, seed=1)
        with_n_v = run_rampup(data, RampUpPlan((20, 40, 80), 50), trainer, seed=1, cv_folds=4)
        trace = run_rampup(data, plan, trainer, seed=1, cv_folds=4)
        assert trace.completed and trace.n_v is None
        assert [r.as_dict() for r in trace.records] == [r.as_dict() for r in with_n_v.records]

    def test_cv_folds_validation(self):
        plan = RampUpPlan(schedule=(4, 8, 16), n_v=5)
        data = id_dataset(100)
        trainer = ScriptedTrainer(ScalingLaw(1, 1, 0))
        with pytest.raises(ParameterError, match="cv_folds"):
            run_rampup(data, plan, trainer, 1, cv_folds=1)
        with pytest.raises(ParameterError, match="smallest stage"):
            run_rampup(data, plan, trainer, 1, cv_folds=5)


def reference_rampup(data, plan, trainer, seed, cv_folds=None):
    """The ramp-up with holdout and K-fold residuals measured by two separate
    formulations: a holdout stage trains once and predicts the holdout, a
    cross-validated stage fills each fold's residuals in place.

    Returns the records, pool order, holdout indices and error string.
    """
    n = data.n
    perm = as_seed(seed).generator().permutation(n)
    if cv_folds is None:
        validation_indices = np.sort(perm[: plan.n_v])
        validation = data.subset(validation_indices)
        pool_order = perm[plan.n_v :]
    else:
        validation_indices, pool_order = None, perm
    records, observations = [], []
    for stage_ix, size in enumerate(plan.schedule, start=1):
        try:
            if cv_folds is None:
                f = trainer.train(data.subset(np.sort(pool_order[:size])))
                residuals = validation.ys - f.on(validation)
            else:
                stage_order = pool_order[:size]
                residuals = np.empty(size)
                for chunk in np.array_split(np.arange(size), cv_folds):
                    mask = np.ones(size, dtype=bool)
                    mask[chunk] = False
                    f = trainer.train(data.subset(np.sort(stage_order[mask])))
                    held = data.subset(np.sort(stage_order[chunk]))
                    residuals[chunk] = held.ys - f.on(held)
        except FtppiError as exc:
            nan = float("nan")
            records.append(StageRecord(stage_ix, size, nan, nan, None, None, "error"))
            return records, pool_order, validation_indices, f"stage {stage_ix} (size {size}): {exc}"
        var_res = float(np.var(residuals, ddof=1))
        observations.append(ScalingObservation(size, var_res))
        fit = fit_scaling_law(observations) if stage_ix >= 3 else None
        s_hat = None if fit is None else solve_optimal_allocation(fit.law, n).s_star_real
        stop = stage_ix == plan.stages or (s_hat is not None and s_hat <= size)
        decision = "stop" if stop else "continue"
        mean_res = float(np.mean(residuals))
        records.append(StageRecord(stage_ix, size, mean_res, var_res, fit, s_hat, decision))
        if stop:
            return records, pool_order, validation_indices, None


def raw_fields(rec: StageRecord) -> tuple:
    """Every field of a record, floats by repr: equal tuples mean equal bits, NaN included."""
    fit = rec.fit
    if fit is not None:
        law = fit.law
        fit = (repr(law.a), repr(law.alpha), repr(law.b), repr(fit.r_squared),
               fit.residuals.tobytes(), fit.alpha_ge_one, fit.degenerate, fit.boundary)
    floats = (rec.mean_residual, rec.residual_variance, rec.s_hat)
    return (rec.stage, rec.size, *map(repr, floats), fit, rec.decision)


class TestOneFoldLoop:
    """Holdout and cross-validated stages, measured by one fold loop, give the
    records of the two separate formulations bit for bit."""

    N = 3000
    PLAN = RampUpPlan(schedule=(21, 43, 87, 175, 351, 701), n_v=301)
    WORLD = SyntheticWorld(0.5, 4.0, 1, ScalingLaw(3.0, 0.5, 0.5), s_min=4)
    LAW = ScalingLaw(10.21, 0.21, 1.98)

    def case(self, kind):
        if kind == "sim":
            data, _ = generate_world_data(self.WORLD, self.N, 1, 8)
            return data, lambda: SimTrainer(self.WORLD, RngSeed(9))
        if kind == "scripted":
            return id_dataset(self.N), lambda: ScriptedTrainer(self.LAW)
        return id_dataset(self.N), lambda: FailingTrainer(self.LAW, fail_at_size=150)

    @pytest.mark.parametrize("cv_folds", [None, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["scripted", "sim", "failing"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_separate_formulations(self, kind, cv_folds, seed):
        data, make_trainer = self.case(kind)
        trainer, ref_trainer = make_trainer(), make_trainer()
        trace = run_rampup(data, self.PLAN, trainer, seed, cv_folds=cv_folds)
        records, pool_order, validation_indices, error = reference_rampup(
            data, self.PLAN, ref_trainer, seed, cv_folds
        )
        assert [r.as_dict() for r in trace.records] == [r.as_dict() for r in records]
        assert [raw_fields(r) for r in trace.records] == [raw_fields(r) for r in records]
        assert trace.pool_order.dtype == pool_order.dtype
        assert np.array_equal(trace.pool_order, pool_order)
        if cv_folds is None:
            assert np.array_equal(trace.validation_indices, validation_indices)
            assert trace.mode == "holdout" and trace.n_v == self.PLAN.n_v
        else:
            assert trace.validation_indices is None and validation_indices is None
            assert trace.mode == "cv" and trace.n_v is None
        assert trace.error == error
        assert trace.completed == (error is None)
        assert (trace.records[-1].decision == "error") == (kind == "failing")
        if kind != "sim":  # the same training subsets, in the same order
            assert len(trainer.trained_ids) == len(ref_trainer.trained_ids)
            for ids, ref_ids in zip(trainer.trained_ids, ref_trainer.trained_ids):
                assert np.array_equal(ids, ref_ids)


class TestTrainerFailure:
    def test_trace_truncates_with_error_record(self):
        law = ScalingLaw(10.21, 0.21, 1.98)
        plan = RampUpPlan(schedule=SCHEDULE, n_v=1000)
        trainer = FailingTrainer(law, fail_at_size=500)
        trace = run_rampup(id_dataset(10_000), plan, trainer, seed=11)
        assert not trace.completed
        assert trace.error is not None and "stage 3" in trace.error
        assert len(trace.records) == 3
        last = trace.records[-1]
        assert last.decision == "error"
        assert math.isnan(last.residual_variance)
        assert trace.s_final is None
        with pytest.raises(PlanError, match="did not complete"):
            rampup_final_estimate(
                trace, id_dataset(10_000), UnlabeledDataset(np.zeros((5, 1))), trainer, 0.05
            )

    def test_error_record_serializes_null_statistics(self):
        law = ScalingLaw(10.21, 0.21, 1.98)
        plan = RampUpPlan(schedule=SCHEDULE, n_v=1000)
        trace = run_rampup(
            id_dataset(10_000), plan, FailingTrainer(law, fail_at_size=500), seed=11
        )
        measured, failed = trace.records[-2].as_dict(), trace.records[-1].as_dict()
        assert math.isfinite(measured["residual_variance"])
        assert failed["decision"] == "error"
        assert failed["mean_residual"] is None and failed["residual_variance"] is None

    def test_failure_before_any_fit_leaves_none(self):
        law = ScalingLaw(10.21, 0.21, 1.98)
        plan = RampUpPlan(schedule=SCHEDULE, n_v=1000)
        trace = run_rampup(
            id_dataset(10_000), plan, FailingTrainer(law, fail_at_size=100), seed=12
        )
        assert all(rec.fit is None and rec.s_hat is None for rec in trace.records)


class TestFinalEstimate:
    def test_holdout_sizes_and_report(self):
        world = SyntheticWorld(
            3.0, 9.06, 1, ScalingLaw(10.21, 0.21, 1.98), s_min=10
        )
        n, m = 10_000, 20_000
        data, unlabeled = generate_world_data(world, n, m, 13)
        plan = RampUpPlan(schedule=SCHEDULE, n_v=1000)
        trainer = SimTrainer(world, RngSeed(14))
        trace = run_rampup(data, plan, trainer, seed=15)
        assert trace.completed
        report = rampup_final_estimate(trace, data, unlabeled, trainer, 0.05)
        assert report.n_ppi == n - 1000 - trace.s_final
        assert report.m == m
        assert report.ci_low < report.estimate < report.ci_high
        assert report.estimate == pytest.approx(
            world.true_mean, abs=5 * math.sqrt(report.variance_hat)
        )

    def test_cv_sizes(self):
        world = SyntheticWorld(0.5, 4.0, 1, ScalingLaw(3.0, 0.5, 0.5), s_min=4)
        n = 400
        data, unlabeled = generate_world_data(world, n, 800, 16)
        plan = RampUpPlan(schedule=(20, 40, 80), n_v=50)
        trainer = SimTrainer(world, RngSeed(17))
        trace = run_rampup(data, plan, trainer, seed=18, cv_folds=4)
        report = rampup_final_estimate(trace, data, unlabeled, trainer, 0.1)
        assert report.n_ppi == n - trace.s_final

    def test_dataset_mismatch_rejected(self):
        law = ScalingLaw(5.0, 0.5, 1.0)
        plan = RampUpPlan(schedule=(50, 100, 200), n_v=100)
        trainer = ScriptedTrainer(law)
        trace = run_rampup(id_dataset(2000), plan, trainer, seed=19)
        with pytest.raises(ParameterError, match="2000"):
            rampup_final_estimate(
                trace, id_dataset(1999), UnlabeledDataset(np.zeros((5, 1))), trainer, 0.05
            )


class TestEndToEndRecovery:
    def test_estimated_size_tracks_truth(self):
        world = SyntheticWorld(
            3.0, 9.06, 1, ScalingLaw(10.21, 0.21, 1.98), s_min=10
        )
        n = 10_000
        truth = solve_optimal_allocation(world.law, n).s_star_real
        data, _ = generate_world_data(world, n, 1, 20)
        plan = RampUpPlan(schedule=SCHEDULE, n_v=1000)
        trace = run_rampup(data, plan, SimTrainer(world, RngSeed(21)), seed=22)
        assert trace.completed
        assert trace.records[-1].s_hat == pytest.approx(truth, rel=0.25)
