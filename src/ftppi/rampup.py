"""Staged fine-tuning for when no scaling-law estimate exists up front.

The idea: train at a short schedule of increasing sizes, measure the
residual variance after each stage, and keep refitting the law to the
measurements collected so far.  As soon as the implied optimal size
falls at or below the size already trained, training stops; labels that
would have gone into further fine-tuning stay available for
rectification.  The schedule is nested (each stage's subset contains the
previous one), so the procedure spends exactly ``s_final`` labels on
training plus a fixed measurement holdout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocate import solve_optimal_allocation
from .core import (
    FtppiError,
    LabeledDataset,
    ParameterError,
    PlanError,
    RngSeed,
    UnlabeledDataset,
    as_seed,
    check_int,
)
from .ppi_mean import MeanEstimateReport, ppi_mean_ci
from .scaling import ScalingFit, ScalingObservation, fit_report_dict, fit_scaling_law

_MIN_STAGES_TO_FIT = 3


@dataclass(frozen=True)
class RampUpPlan:
    """Schedule of candidate fine-tuning sizes plus a measurement holdout.

    ``schedule`` must be strictly increasing with at least three entries
    (the law needs three points before the first fit).  ``n_v`` is the
    holdout used to measure residual variance after each stage; a run
    that uses cross-validation instead ignores it, and it may be None.
    """

    schedule: tuple[int, ...]
    n_v: int | None

    def __post_init__(self) -> None:
        sched = tuple(check_int(s, "schedule size", 1) for s in self.schedule)
        object.__setattr__(self, "schedule", sched)
        if len(sched) < _MIN_STAGES_TO_FIT:
            raise ParameterError(
                f"schedule needs at least {_MIN_STAGES_TO_FIT} stages, got {len(sched)}"
            )
        if any(b <= a for a, b in zip(sched, sched[1:])):
            raise ParameterError(f"schedule must be strictly increasing, got {sched}")
        if self.n_v is not None:
            object.__setattr__(self, "n_v", check_int(self.n_v, "n_v", 2))

    @property
    def stages(self) -> int:
        return len(self.schedule)


@dataclass(frozen=True)
class StageRecord:
    """Measurements and decision taken at one ramp-up stage.

    An ``"error"`` record measured nothing: its residual statistics are
    NaN here and null in ``as_dict``.
    """

    stage: int
    size: int
    mean_residual: float
    residual_variance: float
    fit: ScalingFit | None
    s_hat: float | None
    decision: str  # "continue" | "stop" | "error"

    def as_dict(self) -> dict:
        measured = self.decision != "error"
        out: dict = {
            "stage": self.stage,
            "size": self.size,
            "mean_residual": self.mean_residual if measured else None,
            "residual_variance": self.residual_variance if measured else None,
            "s_hat": self.s_hat,
            "decision": self.decision,
        }
        out["fit"] = None if self.fit is None else fit_report_dict(self.fit)
        return out


@dataclass(frozen=True)
class RampUpTrace:
    """Everything a run produced, including the index sets needed to
    retrain and rectify reproducibly afterwards."""

    records: tuple[StageRecord, ...]
    completed: bool
    stop_stage: int | None
    s_final: int | None
    mode: str  # "holdout" | "cv"
    n: int
    n_v: int  # 0 in cv mode
    validation_indices: np.ndarray | None
    pool_order: np.ndarray
    error: str | None = None


def _cv_residuals(
    data: LabeledDataset,
    stage_order: np.ndarray,
    trainer,
    folds: int,
) -> np.ndarray:
    """K-fold residuals pooled over the stage subset.

    ``stage_order`` is already randomly permuted, so contiguous chunks
    are valid folds.  Each fold's labels are predicted by a model trained
    on the rest of the stage subset; training size dips below the
    nominal stage size by one fold's worth, the usual K-fold bias.
    """
    chunks = np.array_split(np.arange(stage_order.shape[0]), folds)
    residuals = np.empty(stage_order.shape[0])
    for chunk in chunks:
        mask = np.ones(stage_order.shape[0], dtype=bool)
        mask[chunk] = False
        train_idx = np.sort(stage_order[mask])
        f = trainer.train(data.subset(train_idx))
        held = data.subset(np.sort(stage_order[chunk]))
        residuals[chunk] = held.ys - f.on(held)
    return residuals


def run_rampup(
    data: LabeledDataset,
    plan: RampUpPlan,
    trainer,
    seed: RngSeed | int,
    cv_folds: int | None = None,
) -> RampUpTrace:
    """Execute the staged schedule until the stopping rule fires.

    After each stage the residual variance of the current model is
    measured (on the fixed holdout, or by K-fold cross-validation within
    the stage subset when ``cv_folds`` is given).  From the third stage
    on, the law is refit to all measurements and the optimal size for
    the full dataset is solved; the run stops once that estimate is at
    or below the size already trained, or at the end of the schedule.
    A trainer failure truncates the trace and marks it incomplete.
    """
    n = data.n
    sched = plan.schedule
    if cv_folds is not None:
        cv_folds = check_int(cv_folds, "cv_folds", 2)
        if cv_folds > sched[0]:
            raise ParameterError(
                f"cv_folds ({cv_folds}) exceeds the smallest stage size ({sched[0]})"
            )
        budget = sched[-1]
        n_v = 0
    elif plan.n_v is None:
        raise PlanError("a holdout run needs the plan's n_v; without one, give cv_folds")
    else:
        budget = sched[-1] + plan.n_v
        n_v = plan.n_v
    if budget > n - 2:
        raise PlanError(
            f"plan needs {budget} labels but must leave 2 of {n} for rectification"
        )

    rng = as_seed(seed).generator()
    perm = rng.permutation(n)
    if cv_folds is None:
        validation_indices = np.sort(perm[:n_v])
        validation = data.subset(validation_indices)
        pool_order = perm[n_v:]
        mode = "holdout"
    else:
        validation_indices = None
        validation = None
        pool_order = perm
        mode = "cv"

    records: list[StageRecord] = []
    observations: list[ScalingObservation] = []
    completed = False
    stop_stage: int | None = None
    s_final: int | None = None
    error: str | None = None

    for stage_ix, size in enumerate(sched, start=1):
        try:
            if cv_folds is None:
                ft_idx = np.sort(pool_order[:size])
                f = trainer.train(data.subset(ft_idx))
                residuals = validation.ys - f.on(validation)
            else:
                residuals = _cv_residuals(data, pool_order[:size], trainer, cv_folds)
        except FtppiError as exc:
            error = f"stage {stage_ix} (size {size}): {exc}"
            records.append(
                StageRecord(stage_ix, size, float("nan"), float("nan"), None, None, "error")
            )
            break

        mean_res = float(np.mean(residuals))
        var_res = float(np.var(residuals, ddof=1))
        observations.append(ScalingObservation(size, var_res))

        fit: ScalingFit | None = None
        s_hat: float | None = None
        if stage_ix >= _MIN_STAGES_TO_FIT:
            fit = fit_scaling_law(observations)
            s_hat = solve_optimal_allocation(fit.law, n).s_star_real

        should_stop = stage_ix == plan.stages or (s_hat is not None and s_hat <= size)
        decision = "stop" if should_stop else "continue"
        records.append(
            StageRecord(stage_ix, size, mean_res, var_res, fit, s_hat, decision)
        )
        if should_stop:
            completed = True
            stop_stage = stage_ix
            s_final = size
            break

    return RampUpTrace(
        records=tuple(records),
        completed=completed,
        stop_stage=stop_stage,
        s_final=s_final,
        mode=mode,
        n=n,
        n_v=n_v,
        validation_indices=validation_indices,
        pool_order=pool_order,
        error=error,
    )


def rampup_final_estimate(
    trace: RampUpTrace,
    data: LabeledDataset,
    unlabeled: UnlabeledDataset,
    trainer,
    delta: float,
) -> MeanEstimateReport:
    """Retrain at the stopped size and rectify with every remaining label.

    Uses the trace's stored index sets, so the fine-tuning subset is
    exactly the stop stage's subset and the rectification set is all of
    ``data`` minus that subset and minus the measurement holdout (when
    one was used).
    """
    if not trace.completed or trace.s_final is None:
        raise PlanError("ramp-up did not complete; no final size to train at")
    if data.n != trace.n:
        raise ParameterError(
            f"dataset has {data.n} rows but the trace was built on {trace.n}"
        )
    s_final = trace.s_final
    ft_idx = np.sort(trace.pool_order[:s_final])
    ppi_idx = np.sort(trace.pool_order[s_final:])
    f = trainer.train(data.subset(ft_idx))
    return ppi_mean_ci(data.subset(ppi_idx), unlabeled, f, delta)
