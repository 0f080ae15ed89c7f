"""Budget allocation between fine-tuning and rectification.

When a fixed set of labeled examples must both fine-tune a predictor and
debias (rectify) the estimates computed from its predictions, the split
matters: more fine-tuning shrinks residual variance, fewer rectification
labels inflate it.  This package fits the residual-variance scaling law,
solves for the optimal split, computes rectified means and M-estimates
with confidence intervals, and provides synthetic worlds in which every
one of those quantities has a closed form to test against.

``from ftppi import X`` works for every name in ``__all__``: ``X`` is
looked up in the table below, and its submodule is imported on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "allocate": (
        "AllocationResult",
        "FeasibilityInput",
        "allocation_objective",
        "check_feasibility",
        "foc_residual",
        "solve_optimal_allocation",
        "variance_discriminant",
    ),
    "core": (
        "DEFAULT_SEED",
        "ConvergenceError",
        "CsvFormatError",
        "DomainError",
        "FtppiError",
        "InsufficientDataError",
        "LabeledDataset",
        "NumericalError",
        "ParameterError",
        "PlanError",
        "Predictor",
        "RngSeed",
        "SingularHessianError",
        "UnderdeterminedFitError",
        "UnlabeledDataset",
        "UnsupportedSizeError",
        "as_seed",
        "read_labeled_csv",
        "read_predictions_csv",
        "read_unlabeled_csv",
    ),
    "m_estim": (
        "LossModel",
        "MEstimateReport",
        "SandwichCovariance",
        "builtin_loss",
        "categorical_loss",
        "linear_regression_loss",
        "m_estimate_ci",
        "mean_loss",
        "mnl_loss",
        "read_choice_labeled_csv",
        "read_choice_unlabeled_csv",
        "sandwich_covariance",
        "scalarize",
        "solve_ppi_m_estimator",
    ),
    "ppi_mean": (
        "MeanEstimateReport",
        "Method",
        "VarianceParts",
        "ft_only_report",
        "normal_quantile",
        "ppi_mean_ci",
        "ppi_mean_estimate",
        "ppi_mean_variance_hat",
        "sample_mean_estimate",
    ),
    "rampup": (
        "RampUpPlan",
        "RampUpTrace",
        "StageRecord",
        "rampup_final_estimate",
        "run_rampup",
    ),
    "scaling": (
        "ScalingFit",
        "ScalingLaw",
        "ScalingObservation",
        "eval_variance",
        "fit_report_dict",
        "fit_scaling_law",
        "read_observations_csv",
    ),
    "simulate": (
        "BiasProfile",
        "BootstrapReport",
        "BruteForceResult",
        "ComparisonReport",
        "ExternalFtReport",
        "MethodStats",
        "SimTrainer",
        "SyntheticWorld",
        "analytic_estimator_variance",
        "base_predictor",
        "bootstrap_robustness",
        "brute_force_allocation",
        "external_ft_experiment",
        "generate_world_data",
        "run_estimator_comparison",
        "shifted_law",
        "world_from_dict",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
