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
    n_v: int | None  # None in cv mode
    validation_indices: np.ndarray | None
    pool_order: np.ndarray
    error: str | None = None


def _residuals(data: LabeledDataset, folds, trainer) -> np.ndarray:
    """Residuals of every fold, joined in fold order.

    A fold is a ``(train, held)`` pair of index arrays: a model trained on
    the ``train`` rows predicts the ``held`` rows, both taken in sorted order.
    """
    parts = []
    for train, held in folds:
        f = trainer.train(data.subset(np.sort(train)))
        held_data = data.subset(np.sort(held))
        parts.append(held_data.ys - f.on(held_data))
    return np.concatenate(parts)


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
    n_v = plan.n_v if cv_folds is None else None
    if cv_folds is not None:
        cv_folds = check_int(cv_folds, "cv_folds", 2)
        if cv_folds > sched[0]:
            raise ParameterError(
                f"cv_folds ({cv_folds}) exceeds the smallest stage size ({sched[0]})"
            )
    elif n_v is None:
        raise PlanError("a holdout run needs the plan's n_v; without one, give cv_folds")
    budget = sched[-1] + (n_v or 0)
    if budget > n - 2:
        raise PlanError(
            f"plan needs {budget} labels but must leave 2 of {n} for rectification"
        )

    perm = as_seed(seed).generator().permutation(n)
    if n_v is None:
        validation_indices, pool_order = None, perm

        def folds(stage: np.ndarray) -> list:
            # the pool order is random, so contiguous chunks are valid folds; each
            # model trains on one fold fewer than the stage, the usual K-fold bias
            chunks = np.array_split(np.arange(stage.shape[0]), cv_folds)
            return [(np.delete(stage, chunk), stage[chunk]) for chunk in chunks]
    else:
        validation_indices, pool_order = np.sort(perm[:n_v]), perm[n_v:]

        def folds(stage: np.ndarray) -> list:  # a holdout stage is one fold
            return [(stage, validation_indices)]

    records: list[StageRecord] = []
    observations: list[ScalingObservation] = []

    def trace(error: str | None = None) -> RampUpTrace:
        """The trace of a run that ended at its last record: a stop, or an error."""
        completed = error is None
        return RampUpTrace(
            records=tuple(records),
            completed=completed,
            stop_stage=records[-1].stage if completed else None,
            s_final=records[-1].size if completed else None,
            mode="cv" if n_v is None else "holdout",
            n=n,
            n_v=n_v,
            validation_indices=validation_indices,
            pool_order=pool_order,
            error=error,
        )

    for stage_ix, size in enumerate(sched, start=1):
        try:
            residuals = _residuals(data, folds(pool_order[:size]), trainer)
        except FtppiError as exc:
            records.append(
                StageRecord(stage_ix, size, float("nan"), float("nan"), None, None, "error")
            )
            return trace(f"stage {stage_ix} (size {size}): {exc}")

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
            break
    return trace()


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
