"""The package surface: ``from ftppi import X`` and what ``import ftppi`` loads.

The package resolves its public names lazily, from one table of submodule
to names.  These tests pin the names it offers, that each is the object
its submodule defines, and that importing the package or one submodule
loads nothing more than it needs.
"""

import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import ftppi

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUBMODULES = ("allocate", "core", "m_estim", "ppi_mean", "rampup", "scaling", "simulate")

# The 80 names of the package's ``__all__``.
PUBLIC_NAMES = {
    "__version__",
    "DEFAULT_SEED",
    "FtppiError",
    "DomainError",
    "ParameterError",
    "InsufficientDataError",
    "UnderdeterminedFitError",
    "ConvergenceError",
    "SingularHessianError",
    "UnsupportedSizeError",
    "PlanError",
    "NumericalError",
    "CsvFormatError",
    "RngSeed",
    "as_seed",
    "LabeledDataset",
    "UnlabeledDataset",
    "Predictor",
    "read_labeled_csv",
    "read_unlabeled_csv",
    "read_predictions_csv",
    "ScalingLaw",
    "ScalingObservation",
    "ScalingFit",
    "eval_variance",
    "fit_scaling_law",
    "fit_report_dict",
    "read_observations_csv",
    "AllocationResult",
    "FeasibilityInput",
    "foc_residual",
    "allocation_objective",
    "solve_optimal_allocation",
    "variance_discriminant",
    "check_feasibility",
    "Method",
    "MeanEstimateReport",
    "VarianceParts",
    "normal_quantile",
    "ppi_mean_estimate",
    "ppi_mean_variance_hat",
    "ppi_mean_ci",
    "sample_mean_estimate",
    "ft_only_report",
    "LossModel",
    "SandwichCovariance",
    "MEstimateReport",
    "mean_loss",
    "categorical_loss",
    "linear_regression_loss",
    "mnl_loss",
    "builtin_loss",
    "solve_ppi_m_estimator",
    "sandwich_covariance",
    "scalarize",
    "m_estimate_ci",
    "read_choice_labeled_csv",
    "read_choice_unlabeled_csv",
    "BiasProfile",
    "SyntheticWorld",
    "SimTrainer",
    "base_predictor",
    "generate_world_data",
    "analytic_estimator_variance",
    "BruteForceResult",
    "brute_force_allocation",
    "MethodStats",
    "ComparisonReport",
    "run_estimator_comparison",
    "BootstrapReport",
    "bootstrap_robustness",
    "ExternalFtReport",
    "external_ft_experiment",
    "shifted_law",
    "world_from_dict",
    "RampUpPlan",
    "StageRecord",
    "RampUpTrace",
    "run_rampup",
    "rampup_final_estimate",
}


def in_fresh_interpreter(code):
    """What ``code`` prints as JSON, run by a fresh interpreter on the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_after(statement):
    """The ``ftppi`` modules and whether numpy is loaded after ``statement``
    runs in a fresh interpreter on the source tree."""
    return in_fresh_interpreter(
        f"import sys, json; {statement}; print(json.dumps(["
        "sorted(m for m in sys.modules if m.split('.')[0] == 'ftppi'), 'numpy' in sys.modules]))"
    )


def run_after(statements):
    """The ``ftppi`` modules whose code has run after ``statements``, in a
    fresh interpreter: a module registered lazily stays an instance of a
    ``types.ModuleType`` subclass until its code runs."""
    return in_fresh_interpreter(
        "\n".join(["import json, sys, types", *statements, "print(json.dumps(sorted("
                   "m for m, mod in sys.modules.items()"
                   " if m.split('.')[0] == 'ftppi' and type(mod) is types.ModuleType)))"])
    )


def test_bare_import_loads_no_submodule_and_no_numpy():
    assert loaded_after("import ftppi") == [["ftppi"], False]


def test_one_submodule_loads_only_what_it_imports():
    modules, _ = loaded_after("import ftppi.scaling")
    assert modules == ["ftppi", "ftppi.core", "ftppi.scaling"]


def test_all_is_the_eager_packages_names():
    assert len(ftppi.__all__) == len(PUBLIC_NAMES)
    assert set(ftppi.__all__) == PUBLIC_NAMES


def test_each_name_is_its_submodules_object():
    for module, names in ftppi._EXPORTS.items():
        namespace = importlib.import_module(f"ftppi.{module}")
        for name in names:
            obj = getattr(ftppi, name)
            assert obj is getattr(namespace, name)
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == namespace.__name__, name
    assert set(ftppi._EXPORTS) == set(SUBMODULES)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ftppi import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
    assert namespace["world_from_dict"] is ftppi.simulate.world_from_dict


def test_dir_lists_names_and_submodules():
    listed = set(dir(ftppi))
    assert PUBLIC_NAMES <= listed
    assert set(SUBMODULES) <= listed


def test_submodule_attribute_after_bare_import():
    modules, _ = loaded_after("import ftppi; ftppi.simulate.world_from_dict")
    assert "ftppi.simulate" in modules and "ftppi.cli" not in modules


def test_cli_falls_through_to_the_submodule_import():
    from ftppi import cli

    assert cli.__name__ == "ftppi.cli"
    assert cli.__version__ == ftppi.__version__


class TestLazyCli:
    """``ftppi.cli`` registers the six subcommand modules at import but runs
    each only when a command first reads it."""

    EAGER = ["ftppi", "ftppi.cli", "ftppi.core"]

    def test_import_registers_every_module(self):
        modules, numpy_loaded = loaded_after("import ftppi.cli")
        assert modules == sorted(["ftppi", "ftppi.cli", *(f"ftppi.{m}" for m in SUBMODULES)])
        assert numpy_loaded

    def test_version_runs_no_lazy_module(self):
        statements = [
            "import contextlib, io",
            "from ftppi.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):",
            "    main(['--version'])",
        ]
        assert run_after(statements) == self.EAGER

    def test_estimate_mean_runs_only_ppi_mean(self, tmp_path):
        files = {"lab.csv": "y,x1\n1.0,0.5\n2.0,1.5\n3.0,-1.0\n",
                 "fl.csv": "f\n1.5\n2.5\n2.0\n", "fu.csv": "f\n1.0\n2.0\n3.0\n4.0\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = ["estimate-mean", "--labeled", str(tmp_path / "lab.csv"),
                "--pred-labeled", str(tmp_path / "fl.csv"),
                "--pred-unlabeled", str(tmp_path / "fu.csv"), "--out", str(tmp_path / "out.json")]
        statements = ["from ftppi.cli import main", f"assert main({argv!r}) == 0"]
        assert run_after(statements) == sorted([*self.EAGER, "ftppi.ppi_mean"])
        assert json.loads((tmp_path / "out.json").read_text())["m"] == 4

    def test_a_module_imported_first_is_the_one_the_cli_uses(self):
        statements = [
            "import ftppi.simulate, ftppi.cli",
            "assert ftppi.cli.simulate is ftppi.simulate is sys.modules['ftppi.simulate']",
        ]
        assert "ftppi.simulate" in run_after(statements)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ftppi.no_such_name
    with pytest.raises(ImportError):
        exec("from ftppi import no_such_name", {})
