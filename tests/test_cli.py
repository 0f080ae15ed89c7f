"""End-to-end checks of the command line, including golden outputs.

Most tests drive cli.main() in-process for speed; subprocess tests
cover the `python3 -m ftppi` entry point and how the program ends.
Golden files live in tests/golden/ and are byte-for-byte: outputs round
floats to 12 significant digits, so they are stable across platforms.
"""

import enum
import gc
import gzip
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ftppi.allocate import foc_residual, solve_optimal_allocation
from ftppi import cli, core, m_estim, ppi_mean
from ftppi.cli import main as cli_main
from ftppi.core import read_labeled_csv
from ftppi.ppi_mean import Method, ppi_mean_ci
from ftppi.scaling import ScalingLaw, eval_variance

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
QUICK_SCENARIO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "scenario_quick.json"
)

LABELED_CSV = (
    "y,x1\n"
    "1.0,0.5\n"
    "2.0,-1.0\n"
    "3.5,0.25\n"
    "0.5,1.5\n"
    "2.5,-0.75\n"
    "4.0,2.0\n"
    "1.5,0.0\n"
    "3.0,1.0\n"
)
PRED_LABELED_CSV = "f\n0.8\n2.2\n3.0\n1.0\n2.0\n4.5\n1.2\n2.8\n"
PRED_POOL_CSV = "f\n1.1\n2.9\n0.4\n3.6\n2.2\n1.8\n2.5\n0.9\n3.1\n2.0\n1.4\n2.7\n"

WORLD_SPEC = {
    "true_mean": 1.5,
    "var_y": 4.0,
    "feature_dim": 1,
    "law": {"a": 3.0, "alpha": 0.5, "b": 0.5},
    "s_min": 4,
}


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture
def mean_files(tmp_path):
    paths = {}
    for name, text in [
        ("labeled.csv", LABELED_CSV),
        ("pred_labeled.csv", PRED_LABELED_CSV),
        ("pred_pool.csv", PRED_POOL_CSV),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


@pytest.fixture
def world_file(tmp_path):
    p = tmp_path / "world.json"
    p.write_text(json.dumps(WORLD_SPEC))
    return str(p)


class TestAllocate:
    ARGS = ("allocate", "--a", "10.21", "--alpha", "0.21", "--b", "1.98",
            "--n", "10000", "--sigma-sq", "12.19")

    def test_golden_json(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 0 and err == ""
        assert out == golden("allocate_reference.json")

    def test_golden_csv(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS, "--format", "csv")
        assert code == 0 and err == ""
        assert out == golden("allocate_reference.csv")

    def test_matches_library(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        payload = json.loads(out)
        result = solve_optimal_allocation(
            ScalingLaw(10.21, 0.21, 1.98), 10_000, sigma_sq=12.19
        )
        assert payload["s_star"] == result.s_star_int
        assert payload["fraction"] == float(format(result.fraction, ".12g"))
        assert payload["s_star_real"] == float(format(result.s_star_real, ".12g"))
        assert payload["feasible"] is True
        assert 0.098 <= payload["fraction"] <= 0.108

    def test_infeasible_world_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "allocate", "--a", "1", "--alpha", "1", "--b", "0.9",
            "--n", "100", "--sigma-sq", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert payload["threshold"] == pytest.approx(0.8)
        assert "noise floor" in payload["diagnostics"]

    def test_zero_floor_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "allocate", "--a", "1", "--alpha", "1", "--b", "0", "--n", "100"
        )
        assert code == 0
        assert json.loads(out)["fraction"] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("n, s_star_real", [(1000, 1.24369756375), (1_000_000, 1.39284923219)])
    def test_steep_law_solves(self, capsys, n, s_star_real):
        code, out, err = run_cli(
            capsys, "allocate", "--a", "1", "--alpha", "60", "--b", "0.1", "--n", str(n)
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["s_star"] == 2
        assert payload["s_star_real"] == s_star_real

    @pytest.mark.parametrize("alpha, b", [("1e-9", "1"), ("1e-9", "0"), ("2e9", "0")])
    def test_extreme_alpha_solves(self, capsys, alpha, b):
        code, out, err = run_cli(
            capsys, "allocate", "--a", "1", "--alpha", alpha, "--b", b, "--n", "100"
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["s_star"] == (1 if float(alpha) < 1 else 98)
        assert "integer optimum clamped to [1, 98]" in payload["diagnostics"]

    def test_subnormal_root_solves(self):
        # The root, 1e-315, is a subnormal float: the bisection's relative
        # stopping width is below the float spacing there, so it ends where
        # its bracket is down to adjacent floats.  A fresh process, so that a
        # bisection that never ends fails on the timeout.
        proc = subprocess.run(
            [sys.executable, "-m", "ftppi", "allocate", "--a", "1", "--alpha", "1e-317",
             "--b", "0", "--n", "100"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["s_star_real"] == pytest.approx(1e-315, rel=1e-5)

    def test_small_root_is_resolved_relative_to_itself(self):
        # The root sits at 1.4e-6 * n: an absolute stopping width of
        # 1e-10 * n would leave it uncertain in the fifth digit.
        law, n = ScalingLaw(1.0, 60.0, 0.1), 1_000_000
        s = solve_optimal_allocation(law, n).s_star_real
        assert foc_residual(law, n, s * (1 - 1e-6)) > 0.0 > foc_residual(law, n, s * (1 + 1e-6))

    def test_invalid_parameter_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "allocate", "--a", "10", "--alpha", "-1", "--b", "0", "--n", "100"
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        msg = json.loads(err)
        assert msg["error"] == "ParameterError"
        assert "alpha" in msg["message"]


class TestFitScaling:
    def test_recovers_noiseless_law(self, capsys, tmp_path):
        law = ScalingLaw(4.0, 0.8, 0.6)
        lines = ["s,variance"]
        for s in (16, 32, 64, 128, 256, 512):
            lines.append(f"{s},{eval_variance(law, s)!r}")
        obs = tmp_path / "obs.csv"
        obs.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "fit-scaling", "--observations", str(obs))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["a"] == pytest.approx(4.0, rel=1e-5)
        assert payload["alpha"] == pytest.approx(0.8, rel=1e-5)
        assert payload["b"] == pytest.approx(0.6, rel=1e-4)
        assert payload["r_squared"] == pytest.approx(1.0, abs=1e-9)
        assert payload["n_observations"] == 6
        assert payload["degenerate_flag"] is False

    def test_bad_header_exits_2(self, capsys, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_text("size,var\n16,1.0\n")
        code, _, err = run_cli(capsys, "fit-scaling", "--observations", str(obs))
        assert code == 2
        msg = json.loads(err)
        assert msg["error"] == "CsvFormatError"
        assert "s,variance" in msg["message"]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "fit-scaling", "--observations", str(tmp_path / "nope.csv")
        )
        assert code == 2
        assert json.loads(err)["error"] in ("OSError", "DataFormatError", "CsvFormatError")


class TestSerialization:
    def test_dataclass_becomes_its_fields_in_order(self):
        report = ppi_mean.MeanEstimateReport(
            estimate=1.0 / 3.0, variance_hat=0.25, ci_low=0.0, ci_high=np.float64(1.0),
            delta=0.05, n_ppi=np.int64(8), m=12, method=Method.FT_PPI,
        )
        clean = cli._round_floats({"final": report})["final"]
        assert list(clean.items()) == [
            ("estimate", 0.333333333333), ("variance_hat", 0.25), ("ci_low", 0.0),
            ("ci_high", 1.0), ("delta", 0.05), ("n_ppi", 8), ("m", 12),
            ("method", "FtPpi"), ("notes", ""),
        ]
        assert type(clean["method"]) is str and type(clean["n_ppi"]) is int

    def test_enum_member_becomes_its_value(self):
        plain = enum.Enum("Plain", {"ONE": 1.0 / 7.0, "TWO": "two"})
        assert cli._round_floats([plain.ONE, plain.TWO, Method.SAMPLE_MEAN]) == [
            0.142857142857, "two", "SampleMean",
        ]
        assert cli.render_csv(ppi_mean.MeanEstimateReport(
            1.0, 0.5, 0.0, 2.0, 0.05, 3, 4, Method.FT_ONLY, "a note",
        )).splitlines()[1] == "1.0,0.5,0.0,2.0,0.05,3,4,FtOnly,a note"

    def test_non_finite_field_refused(self):
        report = ppi_mean.MeanEstimateReport(
            math.nan, 0.5, 0.0, 2.0, 0.05, 3, 4, Method.FT_ONLY,
        )
        with pytest.raises(core.NumericalError, match="non-finite"):
            cli.render_json(report)


class TestEstimateMean:
    def test_golden_json(self, capsys, mean_files):
        code, out, err = run_cli(
            capsys, "estimate-mean",
            "--labeled", mean_files["labeled.csv"],
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
            "--delta", "0.1",
        )
        assert code == 0, err
        assert out == golden("estimate_mean_small.json")

    def test_thin_adapter_over_library(self, capsys, mean_files, tmp_path):
        _, out, _ = run_cli(
            capsys, "estimate-mean",
            "--labeled", mean_files["labeled.csv"],
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
            "--delta", "0.1",
        )
        payload = json.loads(out)
        labeled = read_labeled_csv(mean_files["labeled.csv"])
        from ftppi.core import Predictor, UnlabeledDataset, read_predictions_csv

        preds_lab = read_predictions_csv(mean_files["pred_labeled.csv"])
        preds_pool = read_predictions_csv(mean_files["pred_pool.csv"])
        pool = UnlabeledDataset(np.zeros((preds_pool.shape[0], 1)))
        f = Predictor.precomputed([(labeled, preds_lab), (pool, preds_pool)], s=0)
        report = ppi_mean_ci(labeled, pool, f, 0.1)
        for key, want in [
            ("estimate", report.estimate),
            ("variance_hat", report.variance_hat),
            ("ci_low", report.ci_low),
            ("ci_high", report.ci_high),
        ]:
            assert payload[key] == float(format(want, ".12g"))
        assert payload["method"] == Method.FT_PPI.value
        assert payload["n_ppi"] == 8 and payload["m"] == 12
        assert "small sample" in payload["notes"]

    def test_csv_format_is_flat(self, capsys, mean_files):
        code, out, _ = run_cli(
            capsys, "estimate-mean",
            "--labeled", mean_files["labeled.csv"],
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[0] == "estimate"
        assert "method" in lines[0].split(",")

    def test_sample_mean_needs_labeled(self, capsys):
        code, _, err = run_cli(capsys, "estimate-mean", "--method", "sample-mean")
        assert code == 2
        assert "--labeled" in json.loads(err)["message"]

    def test_ft_only_path(self, capsys, mean_files):
        code, out, _ = run_cli(
            capsys, "estimate-mean", "--method", "ft-only",
            "--pred-unlabeled", mean_files["pred_pool.csv"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == Method.FT_ONLY.value
        assert payload["n_ppi"] == 0
        assert payload["estimate"] == pytest.approx(np.mean([
            1.1, 2.9, 0.4, 3.6, 2.2, 1.8, 2.5, 0.9, 3.1, 2.0, 1.4, 2.7
        ]))

    @pytest.mark.parametrize(
        "method, given, option",
        [
            ("sample-mean", "--labeled", "--unlabeled"),
            ("sample-mean", "--labeled", "--pred-labeled"),
            ("sample-mean", "--labeled", "--pred-unlabeled"),
            ("ft-only", "--pred-unlabeled", "--labeled"),
            ("ft-only", "--pred-unlabeled", "--pred-labeled"),
        ],
    )
    def test_file_the_method_does_not_read_is_rejected(
        self, capsys, mean_files, method, given, option
    ):
        files = {
            "--labeled": mean_files["labeled.csv"],
            "--unlabeled": mean_files["labeled.csv"],
            "--pred-labeled": mean_files["pred_labeled.csv"],
            "--pred-unlabeled": mean_files["pred_pool.csv"],
        }
        argv = ["estimate-mean", "--method", method, given, files[given]]
        code, _, err = run_cli(capsys, *argv, option, files[option])
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert payload["message"] == f"{option} does not apply to method {method}"
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err

    def test_mismatched_unused_files_are_not_ignored(self, capsys, mean_files, tmp_path):
        two_rows = tmp_path / "pool.csv"
        two_rows.write_text("x1\n0.0\n1.0\n")
        three_rows = tmp_path / "pred_pool.csv"
        three_rows.write_text("f\n1\n2\n3\n")
        code, _, err = run_cli(
            capsys, "estimate-mean", "--method", "sample-mean",
            "--labeled", mean_files["labeled.csv"],
            "--unlabeled", str(two_rows), "--pred-unlabeled", str(three_rows),
        )
        assert code == 2 and "--unlabeled does not apply" in json.loads(err)["message"]
        short = tmp_path / "pred_labeled.csv"
        short.write_text(PRED_LABELED_CSV.rsplit("\n", 2)[0] + "\n")
        code, _, err = run_cli(
            capsys, "estimate-mean", "--method", "ft-only",
            "--labeled", mean_files["labeled.csv"], "--pred-labeled", str(short),
            "--pred-unlabeled", mean_files["pred_pool.csv"],
        )
        assert code == 2 and "--labeled does not apply" in json.loads(err)["message"]

    def test_help_says_which_methods_take_each_file(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["estimate-mean", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "not accepted for ft-only" in text
        assert text.count("not accepted for sample-mean") == 2
        assert "(ft-ppi and ppi-only only)" in text

    def test_prediction_row_mismatch(self, capsys, mean_files):
        code, _, err = run_cli(
            capsys, "estimate-mean",
            "--labeled", mean_files["labeled.csv"],
            "--pred-labeled", mean_files["pred_pool.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
        )
        assert code == 2
        assert "12 rows but data has 8" in json.loads(err)["message"]

    def test_pool_feature_mismatch(self, capsys, mean_files, tmp_path):
        feats = tmp_path / "pool.csv"
        feats.write_text("x1\n0.0\n1.0\n")
        code, _, err = run_cli(
            capsys, "estimate-mean",
            "--labeled", mean_files["labeled.csv"],
            "--unlabeled", str(feats),
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
        )
        assert code == 2
        assert "2 rows but predictions have 12" in json.loads(err)["message"]

    def test_pool_width_must_match_the_labeled_files(self, capsys, tmp_path):
        """As estimate-m does: a pool of another width is not the labeled rows' population."""
        for name, text in [("lab.csv", "y,x1\n1,0.5\n2,1.5\n3,2.5\n4,3.5\n"),
                           ("pool.csv", "x1,x2\n0,1\n1,2\n2,3\n3,4\n"),
                           ("f.csv", "f\n1\n2\n3\n4\n")]:
            (tmp_path / name).write_text(text)
        files = ["--labeled", str(tmp_path / "lab.csv"), "--unlabeled", str(tmp_path / "pool.csv"),
                 "--pred-labeled", str(tmp_path / "f.csv"),
                 "--pred-unlabeled", str(tmp_path / "f.csv")]
        for command in (["estimate-mean"], ["estimate-mean", "--method", "ppi-only"],
                        ["estimate-m", "--loss", "mean"]):
            code, out, err = run_cli(capsys, *command, *files)
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "ParameterError"
            assert payload["message"] == "labeled features are 1-dimensional but unlabeled are 2"

    def test_pool_features_are_dropped_after_the_row_check(
        self, capsys, mean_files, tmp_path, monkeypatch
    ):
        feats = tmp_path / "pool.csv"
        feats.write_text("x1\n" + "".join(f"{i}.5\n" for i in range(12)))
        kept, pools = [], []

        def read_pool(path, workers, features=True):
            kept.append(features)
            return core.read_unlabeled_csv(path, workers=workers, features=features)

        def check_then_estimate(labeled, pool, *args, **kwargs):
            pools.append(pool)
            return ppi_mean_ci(labeled, pool, *args, **kwargs)

        monkeypatch.setattr(cli, "read_unlabeled_csv", read_pool)
        monkeypatch.setattr(ppi_mean, "ppi_mean_ci", check_then_estimate)
        code, out, err = run_cli(
            capsys, "estimate-mean",
            "--labeled", mean_files["labeled.csv"],
            "--unlabeled", str(feats),
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
            "--delta", "0.1",
        )
        assert code == 0, err
        # every row was parsed, but only the shape was kept: the estimate's pool holds no feature
        assert kept == [False]
        [pool] = pools
        assert (pool.m, pool.dim) == (12, 1) and pool.xs.strides == (0, 0)
        assert out == golden("estimate_mean_small.json")

    def test_malformed_cell_addressed_by_row(self, capsys, tmp_path, mean_files):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x1\n1.0,0.5\noops,1.0\n2.0,0.0\n")
        code, _, err = run_cli(
            capsys, "estimate-mean",
            "--labeled", str(bad),
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
        )
        assert code == 2
        msg = json.loads(err)["message"]
        assert "row 3" in msg and "y" in msg

    def test_oversized_cell_exits_2(self, capsys, tmp_path, mean_files):
        # a cell beyond the csv module's field limit of 131072 characters
        big = tmp_path / "big.csv"
        big.write_text("x1\n" + "x" * 200_000 + "\n")
        code, out, err = run_cli(
            capsys, "estimate-mean",
            "--labeled", mean_files["labeled.csv"],
            "--unlabeled", str(big),
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
        )
        assert code == 2 and out == ""
        [line] = err.splitlines()
        msg = json.loads(line)
        assert msg["error"] == "CsvFormatError"
        assert "row 2: field larger than field limit" in msg["message"]

    @pytest.mark.parametrize(
        "name, content",
        [
            ("pool.csv.gz", gzip.compress(b"x1\n0.0\n1.0\n")),
            ("pool.csv", "x1\n0.0\n1.0\n".encode("utf-16")),
        ],
        ids=["gzip", "utf16"],
    )
    def test_undecodable_pool_exits_2(self, capsys, tmp_path, mean_files, name, content):
        pool = tmp_path / name
        pool.write_bytes(content)
        code, out, err = run_cli(
            capsys, "estimate-mean",
            "--labeled", mean_files["labeled.csv"],
            "--unlabeled", str(pool),
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
        )
        assert code == 2 and out == ""
        [line] = err.splitlines()
        msg = json.loads(line)
        assert msg["error"] == "CsvFormatError"
        assert msg["message"].startswith(f"{pool}: cannot decode file as utf-8 text")


class TestEstimateM:
    def test_mean_loss_matches_estimate_mean(self, capsys, mean_files, tmp_path):
        pool_feats = tmp_path / "pool.csv"
        pool_feats.write_text("x1\n" + "\n".join(["0.0"] * 12) + "\n")
        code, out_m, err = run_cli(
            capsys, "estimate-m", "--loss", "mean",
            "--labeled", mean_files["labeled.csv"],
            "--unlabeled", str(pool_feats),
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
        )
        assert code == 0, err
        _, out_mean, _ = run_cli(
            capsys, "estimate-mean",
            "--labeled", mean_files["labeled.csv"],
            "--pred-labeled", mean_files["pred_labeled.csv"],
            "--pred-unlabeled", mean_files["pred_pool.csv"],
        )
        m_payload = json.loads(out_m)
        mean_payload = json.loads(out_mean)
        assert m_payload["theta_hat"] == [mean_payload["estimate"]]
        assert m_payload["nu_det"] == m_payload["nu_trace"]
        assert m_payload["n_ppi"] == 8 and m_payload["m"] == 12

    def test_ols_runs_and_reports_vector(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        n, m = 40, 60
        xs = rng.standard_normal((n, 2))
        ys = xs @ np.array([1.0, -0.5]) + 0.1 * rng.standard_normal(n)
        xu = rng.standard_normal((m, 2))
        fu = xu @ np.array([1.0, -0.5])
        fl = xs @ np.array([1.0, -0.5])
        lab = tmp_path / "lab.csv"
        lab.write_text(
            "y,x1,x2\n"
            + "\n".join(f"{float(y)!r},{float(a)!r},{float(b)!r}" for y, (a, b) in zip(ys, xs))
            + "\n"
        )
        unlab = tmp_path / "unlab.csv"
        unlab.write_text(
            "x1,x2\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in xu) + "\n"
        )
        pl = tmp_path / "pl.csv"
        pl.write_text("f\n" + "\n".join(repr(float(v)) for v in fl) + "\n")
        pu = tmp_path / "pu.csv"
        pu.write_text("f\n" + "\n".join(repr(float(v)) for v in fu) + "\n")
        code, out, err = run_cli(
            capsys, "estimate-m", "--loss", "ols",
            "--labeled", str(lab), "--unlabeled", str(unlab),
            "--pred-labeled", str(pl), "--pred-unlabeled", str(pu),
        )
        assert code == 0, err
        payload = json.loads(out)
        assert len(payload["theta_hat"]) == 2
        assert payload["theta_hat"][0] == pytest.approx(1.0, abs=0.2)
        assert payload["theta_hat"][1] == pytest.approx(-0.5, abs=0.2)
        assert len(payload["ci_low"]) == 2 and len(payload["ci_high"]) == 2
        assert payload["nu_det"] > 0

    def test_ols_dim_contradiction(self, capsys, tmp_path):
        lab = tmp_path / "lab.csv"
        lab.write_text("y,x1\n1.0,0.0\n2.0,1.0\n3.0,2.0\n")
        unlab = tmp_path / "unlab.csv"
        unlab.write_text("x1\n0.5\n1.5\n")
        pl = tmp_path / "pl.csv"
        pl.write_text("f\n1.0\n2.0\n3.0\n")
        pu = tmp_path / "pu.csv"
        pu.write_text("f\n1.5\n2.5\n")
        code, _, err = run_cli(
            capsys, "estimate-m", "--loss", "ols", "--dim", "3",
            "--labeled", str(lab), "--unlabeled", str(unlab),
            "--pred-labeled", str(pl), "--pred-unlabeled", str(pu),
        )
        assert code == 2
        assert "contradicts" in json.loads(err)["message"]

    def test_categorical_needs_dim(self, capsys, tmp_path):
        lab = tmp_path / "lab.csv"
        lab.write_text("y,x1\n1,0.0\n2,1.0\n")
        unlab = tmp_path / "unlab.csv"
        unlab.write_text("x1\n0.5\n")
        pl = tmp_path / "pl.csv"
        pl.write_text("f\n1\n2\n")
        pu = tmp_path / "pu.csv"
        pu.write_text("f\n1\n")
        code, _, err = run_cli(
            capsys, "estimate-m", "--loss", "categorical",
            "--labeled", str(lab), "--unlabeled", str(unlab),
            "--pred-labeled", str(pl), "--pred-unlabeled", str(pu),
        )
        assert code == 2
        assert "--dim" in json.loads(err)["message"]

    @pytest.fixture
    def mnl_files(self, tmp_path):
        rng = np.random.default_rng(11)
        n, m, k = 30, 50, 2

        def rows(count):
            xs = rng.uniform(-2.0, 2.0, size=(count, k))
            utils = np.column_stack([np.zeros(count), 0.9 * xs])
            choices = np.argmax(utils + rng.gumbel(size=(count, k + 1)), axis=1)
            return xs, choices

        xs_l, ch_l = rows(n)
        xs_u, ch_u = rows(m)
        lab = tmp_path / "choice_lab.csv"
        lab.write_text(
            "choice,x_1_1,x_2_1\n"
            + "\n".join(
                f"{int(c)},{float(a)!r},{float(b)!r}" for c, (a, b) in zip(ch_l, xs_l)
            )
            + "\n"
        )
        unlab = tmp_path / "choice_unlab.csv"
        unlab.write_text(
            "x_1_1,x_2_1\n"
            + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in xs_u)
            + "\n"
        )
        pl = tmp_path / "choice_pl.csv"
        pl.write_text("f\n" + "\n".join(str(c) for c in ch_l) + "\n")
        pu = tmp_path / "choice_pu.csv"
        pu.write_text("f\n" + "\n".join(str(c) for c in ch_u) + "\n")
        return {"lab": str(lab), "unlab": str(unlab), "pl": str(pl), "pu": str(pu)}

    def test_mnl_roundtrip(self, capsys, mnl_files):
        code, out, err = run_cli(
            capsys, "estimate-m", "--loss", "mnl",
            "--labeled", mnl_files["lab"], "--unlabeled", mnl_files["unlab"],
            "--pred-labeled", mnl_files["pl"], "--pred-unlabeled", mnl_files["pu"],
        )
        assert code == 0, err
        payload = json.loads(out)
        assert len(payload["theta_hat"]) == 1
        assert payload["theta_hat"][0] == pytest.approx(0.9, abs=0.6)

    @pytest.mark.parametrize("command", ["estimate-mean", "estimate-m"])
    def test_predictor_holds_the_readers_columns(
        self, capsys, monkeypatch, mean_files, mnl_files, command
    ):
        """Each prediction column is held once: the predictor answers with
        the reader's own array, frozen, not a copy of it."""
        read, columns, held = cli.read_predictions_csv, [], []
        on = core.Predictor.on

        def spy_read(*args, **kwargs):
            columns.append(read(*args, **kwargs))
            return columns[-1]

        def spy_on(pred, dataset):
            held.append(on(pred, dataset))
            return held[-1]

        monkeypatch.setattr(cli, "read_predictions_csv", spy_read)
        monkeypatch.setattr(core.Predictor, "on", spy_on)
        if command == "estimate-mean":
            argv = [
                "estimate-mean", "--labeled", mean_files["labeled.csv"],
                "--pred-labeled", mean_files["pred_labeled.csv"],
                "--pred-unlabeled", mean_files["pred_pool.csv"],
            ]
        else:
            argv = [
                "estimate-m", "--loss", "mnl",
                "--labeled", mnl_files["lab"], "--unlabeled", mnl_files["unlab"],
                "--pred-labeled", mnl_files["pl"], "--pred-unlabeled", mnl_files["pu"],
            ]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(columns) == 2 and held
        for column in columns:
            assert any(np.shares_memory(column, values) for values in held)
        assert not any(values.flags.writeable for values in held)

    def test_mnl_option_count_crosscheck(self, capsys, mnl_files):
        code, _, err = run_cli(
            capsys, "estimate-m", "--loss", "mnl", "--n-options", "3",
            "--labeled", mnl_files["lab"], "--unlabeled", mnl_files["unlab"],
            "--pred-labeled", mnl_files["pl"], "--pred-unlabeled", mnl_files["pu"],
        )
        assert code == 2
        assert "contradicts" in json.loads(err)["message"]

    def test_mnl_dim_crosscheck(self, capsys, mnl_files):
        files = [
            "--labeled", mnl_files["lab"], "--unlabeled", mnl_files["unlab"],
            "--pred-labeled", mnl_files["pl"], "--pred-unlabeled", mnl_files["pu"],
        ]
        code, _, err = run_cli(capsys, "estimate-m", "--loss", "mnl", "--dim", "7", *files)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert payload["message"] == "--dim 7 contradicts the files (1 features per option)"
        code, _, err = run_cli(capsys, "estimate-m", "--loss", "mnl", "--dim", "1", *files)
        assert code == 0, err

    def _ols_files(self, tmp_path):
        (tmp_path / "lab.csv").write_text("y,x1\n1,0.0\n2,1.0\n2,2.0\n1,0.5\n")
        (tmp_path / "unlab.csv").write_text("x1\n0.5\n1.5\n2.5\n")
        (tmp_path / "pl.csv").write_text("f\n1\n2\n1\n1\n")
        (tmp_path / "pu.csv").write_text("f\n1\n2\n2\n")
        return [
            "--labeled", str(tmp_path / "lab.csv"), "--unlabeled", str(tmp_path / "unlab.csv"),
            "--pred-labeled", str(tmp_path / "pl.csv"), "--pred-unlabeled", str(tmp_path / "pu.csv"),
        ]

    def test_dim_is_rejected_for_mean(self, capsys, tmp_path):
        files = self._ols_files(tmp_path)
        code, _, err = run_cli(capsys, "estimate-m", "--loss", "mean", "--dim", "1", *files)
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert payload["message"] == "--dim does not apply to loss mean"
        code, _, err = run_cli(capsys, "estimate-m", "--loss", "mean", *files)
        assert code == 0, err

    @pytest.mark.parametrize("loss", ["mean", "categorical", "ols"])
    def test_n_options_is_rejected_unless_mnl(self, capsys, tmp_path, loss):
        files = self._ols_files(tmp_path)
        dim = ["--dim", "2"] if loss == "categorical" else []
        code, _, err = run_cli(
            capsys, "estimate-m", "--loss", loss, "--n-options", "2", *dim, *files
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert payload["message"] == f"--n-options applies only to loss mnl, not {loss}"
        code, _, err = run_cli(capsys, "estimate-m", "--loss", loss, *dim, *files)
        assert code == 0, err


class TestSimulate:
    def scenario(self, tmp_path, **sections):
        spec = {"world": WORLD_SPEC, "n": 300, "m": 400, "seed": 5}
        spec.update(sections)
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(spec))
        return str(p)

    def test_writes_requested_csvs(self, capsys, tmp_path):
        scen = self.scenario(
            tmp_path,
            allocation_curve={"grid_step": 0.25, "replicates": 2},
            comparison={"replicates": 5},
        )
        out_dir = tmp_path / "results"
        code, out, err = run_cli(capsys, "simulate", "--scenario", scen, "--out", str(out_dir))
        assert code == 0, err
        written = json.loads(out)["written"]
        assert len(written) == 2
        assert out.count("\n") == 1
        curve = (out_dir / "allocation_curve.csv").read_text().splitlines()
        assert curve[0] == "fraction,variance"
        assert [line.split(",")[0] for line in curve[1:]] == ["0.25", "0.5", "0.75"]
        comp = (out_dir / "comparison.csv").read_text().splitlines()
        assert comp[0] == "method,mean_estimate,rmse,mae,variance"
        assert [line.split(",")[0] for line in comp[1:]] == [
            "SampleMean", "FtOnly", "PpiOnly", "FtPpi",
        ]

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        scen = self.scenario(
            tmp_path,
            allocation_curve={"grid_step": 0.25, "replicates": 2},
            comparison={"replicates": 5},
        )
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code, _, _ = run_cli(capsys, "simulate", "--scenario", scen, "--out", str(out_dir))
            assert code == 0
            outputs.append({
                name: (out_dir / name).read_bytes()
                for name in ("allocation_curve.csv", "comparison.csv")
            })
        assert outputs[0] == outputs[1]

    def test_threads_do_not_change_the_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("FTPPI_THREADS", raising=False)
        outputs = []
        for threads in (["--threads", "1"], ["--threads", "2"], []):
            out_dir = tmp_path / f"run{len(outputs)}"
            code, _, err = run_cli(
                capsys, "simulate", "--scenario", QUICK_SCENARIO, "--out", str(out_dir), *threads
            )
            assert code == 0, err
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert sorted(outputs[0]) == ["allocation_curve.csv", "bootstrap.csv", "comparison.csv"]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_requires_out_directory(self, capsys, tmp_path):
        scen = self.scenario(tmp_path, comparison={"replicates": 2})
        code, _, err = run_cli(capsys, "simulate", "--scenario", scen)
        assert code == 2
        assert "--out" in json.loads(err)["message"]

    def test_missing_scenario_key(self, capsys, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps({"world": WORLD_SPEC, "n": 100}))
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(p), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "'m'" in json.loads(err)["message"]

    def test_invalid_json_reported(self, capsys, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(p), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "not valid JSON" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"n": "abc"}, "'n'"),
            ({"n": None}, "'n'"),
            ({"n": 2.5}, "'n'"),
            ({"m": True}, "'m'"),
            ({"seed": 1.5}, "'seed'"),
            ({"comparison": {"replicates": "many"}}, "'comparison.replicates'"),
            ({"comparison": {"replicates": None}}, "'comparison.replicates'"),
            ({"comparison": [2]}, "'comparison'"),
            ({"allocation_curve": {"grid_step": "x"}}, "'allocation_curve.grid_step'"),
            ({"bootstrap": {"n_fit": 300.5}}, "'bootstrap.n_fit'"),
            ({"bootstrap": {"s_grid": [16, "a", 64]}}, "'bootstrap.s_grid'"),
            ({"bootstrap": {"s_grid": 64}}, "'bootstrap.s_grid'"),
            ({"external": {"strength": float("nan")}}, "'external.strength'"),
            ({"bootstrap": {"training_noise": "false"}}, "'bootstrap.training_noise'"),
            ({"bootstrap": {"training_noise": 0}}, "'bootstrap.training_noise'"),
            ({"bootstrap": {"training_noise": None}}, "'bootstrap.training_noise'"),
            ({"world": {**WORLD_SPEC, "feature_dim": 2.7}}, "'world.feature_dim'"),
            ({"world": {**WORLD_SPEC, "s_min": True}}, "'world.s_min'"),
            ({"comparison": {"replicatess": 3}}, "'comparison.replicatess'"),
            ({"comparison": 0}, "'comparison'"),
            ({"comparison": False}, "'comparison'"),
            ({"comparison": ""}, "'comparison'"),
            ({"comparison": []}, "'comparison'"),
            ({"extra_section": {"replicates": 2}}, "'extra_section'"),
            ({"world": {**WORLD_SPEC, "noise_flor": 0.5}}, "'world.noise_flor'"),
            (
                {"world": {**WORLD_SPEC, "bias": {"kind": "constant", "value": 0.3, "slope": 2}}},
                "'world.bias.slope'",
            ),
            ({"bootstrap": {"n_fit": None}}, "'bootstrap.n_fit'"),
            ({"allocation_curve": {"grid_step": 0.25, "replicates": 2, "seed": 3}},
             "'allocation_curve.seed'"),
            ({"seed": "7"}, "'seed'"),
        ],
    )
    def test_malformed_number_exits_2(self, capsys, tmp_path, override, key):
        scen = self.scenario(tmp_path, **{"comparison": {"replicates": 2}, **override})
        code, out, err = run_cli(capsys, "simulate", "--scenario", scen, "--out", str(tmp_path / "o"))
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        msg = json.loads(err)
        assert msg["error"] == "ParameterError"
        assert key in msg["message"]

    def test_empty_section_runs_with_defaults(self, capsys, tmp_path):
        outputs = []
        for run, section in (("empty", {}), ("explicit", {"replicates": 200})):
            (tmp_path / run).mkdir()
            scen = self.scenario(tmp_path / run, comparison=section)
            out_dir = tmp_path / run / "results"
            code, out, err = run_cli(capsys, "simulate", "--scenario", scen, "--out", str(out_dir))
            assert code == 0, err
            assert json.loads(out)["written"] == [str(out_dir / "comparison.csv")]
            outputs.append((out_dir / "comparison.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_null_section_is_not_run(self, capsys, tmp_path):
        scen = self.scenario(tmp_path, comparison=None, allocation_curve={"replicates": 2})
        out_dir = tmp_path / "results"
        code, out, err = run_cli(capsys, "simulate", "--scenario", scen, "--out", str(out_dir))
        assert code == 0, err
        assert json.loads(out)["written"] == [str(out_dir / "allocation_curve.csv")]

    def test_integral_float_number_accepted(self, capsys, tmp_path):
        scen = self.scenario(tmp_path, comparison={"replicates": 2.0})
        code, _, err = run_cli(capsys, "simulate", "--scenario", scen, "--out", str(tmp_path / "o"))
        assert code == 0, err

    def test_world_spec_missing_law(self, capsys, tmp_path):
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps({"world": {"true_mean": 0.0, "var_y": 1.0}, "n": 50, "m": 50}))
        code, _, err = run_cli(capsys, "simulate", "--scenario", str(p), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "'law'" in json.loads(err)["message"]


class TestRampup:
    ARGS = ("--n", "2000", "--m", "1000", "--schedule", "40,80,160,320", "--n-v", "200")

    def test_jsonl_trace_and_final(self, capsys, world_file):
        code, out, err = run_cli(
            capsys, "rampup", "--world", world_file, *self.ARGS, "--seed", "5"
        )
        assert code == 0, err
        lines = out.splitlines()
        parsed = [json.loads(line) for line in lines]
        stage_lines, final_line = parsed[:-1], parsed[-1]
        assert stage_lines, "expected at least one stage line"
        for rec in stage_lines:
            assert set(rec) == {
                "stage", "size", "mean_residual", "residual_variance",
                "s_hat", "decision", "fit",
            }
        assert set(final_line) == {"final"}
        final = final_line["final"]
        assert final["completed"] is True
        assert final["mode"] == "holdout" and final["n_v"] == 200
        assert final["s_final"] == stage_lines[-1]["size"]
        est = final["estimate"]
        assert est["method"] == "FtPpi"
        assert est["n_ppi"] == 2000 - 200 - final["s_final"]
        assert est["ci_low"] < est["estimate"] < est["ci_high"]

    def test_out_file_matches_stdout(self, capsys, world_file, tmp_path):
        _, out, _ = run_cli(capsys, "rampup", "--world", world_file, *self.ARGS, "--seed", "5")
        dest = tmp_path / "trace.jsonl"
        code, out2, _ = run_cli(
            capsys, "rampup", "--world", world_file, *self.ARGS, "--seed", "5",
            "--out", str(dest),
        )
        assert code == 0 and out2 == ""
        assert dest.read_text() == out

    def test_cv_mode(self, capsys, world_file):
        code, out, err = run_cli(
            capsys, "rampup", "--world", world_file, "--n", "400", "--m", "300",
            "--schedule", "20,40,80", "--cv-folds", "4", "--seed", "5",
        )
        assert code == 0, err
        final = json.loads(out.splitlines()[-1])["final"]
        assert final["mode"] == "cv" and final["n_v"] is None
        assert final["estimate"]["n_ppi"] == 400 - final["s_final"]

    @pytest.mark.parametrize("holdout", [("--n-v", "100", "--cv-folds", "2"), ()])
    def test_n_v_only_without_cv_folds(self, capsys, world_file, holdout):
        """--n-v is refused with --cv-folds, which ignores it, and required without."""
        code, out, err = run_cli(
            capsys, "rampup", "--world", world_file, "--n", "600", "--m", "600",
            "--schedule", "20,40,80", *holdout,
        )
        assert code == 2 and out == ""
        msg = json.loads(err)
        assert msg["error"] == "ParameterError" and "--n-v" in msg["message"]

    def test_pool_of_one_row_refused_before_any_stage(self, capsys, world_file, monkeypatch):
        """The final interval reads the pool's variance, so --m 1 is refused up front."""
        calls = []
        monkeypatch.setattr("ftppi.rampup.run_rampup", lambda *a, **k: calls.append(a))
        code, out, err = run_cli(
            capsys, "rampup", "--world", world_file, "--n", "400", "--m", "1",
            "--schedule", "20,40,80", "--n-v", "50",
        )
        assert code == 2 and out == "" and calls == []
        msg = json.loads(err)
        assert msg["error"] == "ParameterError" and "--m" in msg["message"]

    def test_env_seed_matches_explicit_flag(self, capsys, world_file, monkeypatch):
        _, with_flag, _ = run_cli(
            capsys, "rampup", "--world", world_file, *self.ARGS, "--seed", "77"
        )
        monkeypatch.setenv("FTPPI_SEED", "77")
        _, with_env, _ = run_cli(capsys, "rampup", "--world", world_file, *self.ARGS)
        assert with_env == with_flag
        monkeypatch.setenv("FTPPI_SEED", "78")
        _, other, _ = run_cli(capsys, "rampup", "--world", world_file, *self.ARGS)
        assert other != with_flag

    def test_failed_stage_trace_prints(self, capsys):
        world = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "drifting_world.json")
        code, out, err = run_cli(
            capsys, "rampup", "--world", world, "--n", "5000", "--m", "10000",
            "--schedule", "10,100,200,400", "--n-v", "500",
        )
        assert code == 0, err
        rec, final_line = [json.loads(line) for line in out.splitlines()]
        assert rec["stage"] == 1 and rec["size"] == 10 and rec["decision"] == "error"
        assert rec["mean_residual"] is None and rec["residual_variance"] is None
        final = final_line["final"]
        assert final["completed"] is False and final["s_final"] is None
        assert "estimate" not in final
        assert "stage 1" in final["error"] and "minimum 50" in final["error"]

    def test_bad_schedule_string(self, capsys, world_file):
        code, _, err = run_cli(
            capsys, "rampup", "--world", world_file, "--n", "2000", "--m", "100",
            "--schedule", "40,eighty,160", "--n-v", "200",
        )
        assert code == 2
        assert "comma-separated integers" in json.loads(err)["message"]


    @pytest.mark.parametrize(
        "change,key",
        [
            ({"true_mean": True}, "world.true_mean"),
            ({"var_y": "4"}, "world.var_y"),
            ({"law": {"a": "5", "alpha": 0.5, "b": 0.5}}, "world.law.a"),
            ({"law": {"a": 3.0, "alpha": None, "b": 0.5}}, "world.law.alpha"),
            ({"law": {"a": 3.0, "alpha": 0.5, "b": False}}, "world.law.b"),
            ({"bias": {"kind": "constant", "value": "0.1"}}, "world.bias.value"),
            ({"noise_floor": "0.1"}, "world.noise_floor"),
            ({"law": [3.0, 0.5, 0.5]}, "world.law"),
            ({"bias": 3}, "world.bias"),
            ({"noise_flor": 0.5}, "world.noise_flor"),
            ({"bias": {"kind": "constant", "value": 0.3, "slope": 2}}, "world.bias.slope"),
            ({"law": {"a": 3.0, "alpha": 0.5, "b": 0.5, "c": 1.0}}, "world.law.c"),
            ({"bias": {"kind": "linear", "value": 0.1}}, "world.bias.kind"),
            ({"feature_dim": None}, "world.feature_dim"),
            ({"true_mean": 10**400}, "world.true_mean"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_world_spec_types_are_checked(self, capsys, tmp_path, change, key):
        world = tmp_path / "world.json"
        world.write_text(json.dumps({**WORLD_SPEC, **change}))
        code, out, err = run_cli(capsys, "rampup", "--world", str(world), *self.ARGS)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "ParameterError"
        assert error["message"].startswith(f"scenario key {key!r} must be ")


class TestBootstrap:
    def test_report_structure(self, capsys, world_file):
        code, out, err = run_cli(
            capsys, "bootstrap", "--world", world_file,
            "--n-datasets", "3", "--n-training-seeds", "2", "--n-fit", "300",
            "--resamples", "40", "--s-grid", "16,32,64", "--seed", "9",
        )
        assert code == 0, err
        payload = json.loads(out)
        assert set(payload["quantities"]) == {"a", "alpha", "b", "fraction", "r_squared"}
        for q in payload["quantities"].values():
            assert q["ci_low"] <= q["median"] <= q["ci_high"]
        fv = payload["fraction_variance"]
        assert fv["data_sampling"] + fv["training_randomness"] == pytest.approx(
            fv["total"], rel=1e-9, abs=1e-15
        )

    def test_no_training_noise_flag(self, capsys, world_file):
        code, out, _ = run_cli(
            capsys, "bootstrap", "--world", world_file,
            "--n-datasets", "3", "--n-training-seeds", "2", "--n-fit", "300",
            "--resamples", "40", "--s-grid", "16,32,64", "--seed", "9",
            "--no-training-noise",
        )
        assert code == 0
        assert json.loads(out)["fraction_variance"]["training_randomness"] == 0.0

    def test_threads_do_not_change_the_output(self, capsys, world_file):
        outputs = []
        for threads in ("1", "2"):
            code, out, err = run_cli(
                capsys, "bootstrap", "--world", world_file,
                "--n-datasets", "3", "--n-training-seeds", "3", "--n-fit", "300",
                "--resamples", "40", "--seed", "9", "--threads", threads,
            )
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_numpy_ma_is_never_imported(self, world_file):
        # np.median and np.percentile import numpy.ma; the bootstrap's own
        # order statistics must not.
        code = (
            "import sys; from ftppi.cli import main; "
            f"code = main(['bootstrap', '--world', {world_file!r}, '--n-datasets', '2', "
            "'--n-training-seeds', '2', '--n-fit', '300', '--resamples', '20', "
            "'--s-grid', '16,32,64', '--threads', '1']); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"


class TestPeakMemory:
    """The bytes numpy reports to tracemalloc while a mean estimate reads a
    200k-row pool of four features, per pool row.

    The pool's file is parsed and checked, but its features are not kept,
    and the pool's variance is taken without a copy of its deviations.
    Holding the feature matrix costs 32 bytes a row and the copy 8.
    """

    M, D = 200_000, 4

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        where = tmp_path_factory.mktemp("pool")
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2000 + self.M, self.D))
        f = x @ np.arange(1.0, self.D + 1)
        y = f + rng.standard_normal(f.shape[0])
        names = ",".join(f"x{j + 1}" for j in range(self.D))
        for name, header, cols in [("lab.csv", "y," + names, [y[:2000], x[:2000]]),
                                   ("pool.csv", names, [x[2000:]]),
                                   ("f_lab.csv", "f", [f[:2000]]),
                                   ("f_pool.csv", "f", [f[2000:]])]:
            np.savetxt(where / name, np.column_stack(cols), fmt="%.6f", delimiter=",",
                       header=header, comments="")
        return ["--labeled", str(where / "lab.csv"), "--unlabeled", str(where / "pool.csv"),
                "--pred-labeled", str(where / "f_lab.csv"),
                "--pred-unlabeled", str(where / "f_pool.csv"), "--threads", "1"]

    @pytest.mark.parametrize("command, bytes_per_row", [
        (["estimate-mean"], 24),  # the predictions' 8, and room for one part of the file
        (["estimate-m", "--loss", "mean"], 48),  # also the solver's and sandwich's columns
    ], ids=["estimate-mean", "estimate-m-mean"])
    def test_pool_features_never_held(self, capsys, files, command, bytes_per_row):
        run_cli(capsys, *command, *files)  # first-call allocations
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            code, _, err = run_cli(capsys, *command, *files)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < bytes_per_row * self.M


class TestGlobalOptions:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "ftppi 0.1.0"

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_threads_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "allocate", "--a", "1", "--alpha", "0.5", "--b", "0",
            "--n", "100", "--threads", "-1",
        )
        assert code == 2
        assert "--threads" in json.loads(err)["message"]

    def test_threads_accepted_as_noop(self, capsys):
        code, out, _ = run_cli(
            capsys, "allocate", "--a", "1", "--alpha", "0.5", "--b", "0",
            "--n", "100", "--threads", "4",
        )
        assert code == 0
        assert json.loads(out)["fraction"] == pytest.approx(1 / 3, abs=0.01)

    @pytest.mark.skipif(
        not core._CAN_FORK or len(os.sched_getaffinity(0)) < 2,
        reason="needs two usable CPUs for forked workers",
    )
    @pytest.mark.parametrize("loss", ["mean", "ols", "mnl"])
    def test_threads_set_the_csv_workers(self, capsys, tmp_path, monkeypatch, forked_chunks, loss):
        rng = np.random.default_rng(5)
        outcome, names = ("choice", "x_1_1,x_1_2,x_2_1,x_2_2") if loss == "mnl" else ("y", "x1,x2")
        for name, cols, rows in [("lab", f"{outcome},{names}", 40), ("unlab", names, 60)]:
            values = rng.normal(size=(rows, cols.count(",") + 1))
            preds = values[:, -1]
            if loss == "mnl":  # choices and predicted choices in 0..2
                preds = rng.integers(0, 3, rows)
                if name == "lab":
                    values[:, 0] = rng.integers(0, 3, rows)
            (tmp_path / f"{name}.csv").write_text(
                cols + "\n" + "".join(",".join(f"{v:.6f}" for v in r) + "\n" for r in values)
            )
            (tmp_path / f"f_{name}.csv").write_text("f\n" + "".join(f"{v:.6f}\n" for v in preds))
        argv = [
            "estimate-m", "--loss", loss,
            "--labeled", str(tmp_path / "lab.csv"), "--unlabeled", str(tmp_path / "unlab.csv"),
            "--pred-labeled", str(tmp_path / "f_lab.csv"),
            "--pred-unlabeled", str(tmp_path / "f_unlab.csv"),
        ]
        monkeypatch.setattr(core, "_SPLIT_MIN_BYTES", 1)
        outputs = []
        for threads in ("1", "2", "0"):
            code, out, err = run_cli(capsys, *argv, "--threads", threads)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        # each of the four files in parts for --threads 2, and again for 0
        joined = forked_chunks
        assert len(joined) == 8 and joined[:4] == [2] * 4 and min(joined) >= 2

    def test_threads_set_the_mnl_kernel_threads(self, capsys, tmp_path, monkeypatch):
        """A pool of three row blocks: the same bytes on one thread and on two."""
        rng = np.random.default_rng(6)
        m = 2 * m_estim._BLOCK_ROWS + 100
        names = "x_1_1,x_1_2,x_2_1,x_2_2"
        for name, rows, header in [("lab", 300, "choice," + names), ("unlab", m, names)]:
            values = np.round(rng.normal(size=(rows, header.count(",") + 1)), 4)
            if name == "lab":
                values[:, 0] = rng.integers(0, 3, rows)
            np.savetxt(tmp_path / f"{name}.csv", values, fmt="%.4f", delimiter=",",
                       header=header, comments="")
            np.savetxt(tmp_path / f"f_{name}.csv", rng.integers(0, 3, rows), fmt="%d",
                       header="f", comments="")
        argv = [
            "estimate-m", "--loss", "mnl",
            "--labeled", str(tmp_path / "lab.csv"), "--unlabeled", str(tmp_path / "unlab.csv"),
            "--pred-labeled", str(tmp_path / "f_lab.csv"),
            "--pred-unlabeled", str(tmp_path / "f_unlab.csv"),
        ]
        ran, threaded_blocks = [], m_estim._threaded_blocks

        def spy(fn, items, workers, scratch=()):
            threads = set()

            def on_a_thread(item, *buffers):
                threads.add(threading.current_thread())
                return fn(item, *buffers)

            out = threaded_blocks(on_a_thread, items, workers, scratch)
            ran[-1] = max(ran[-1], len(threads))
            return out

        monkeypatch.setattr(m_estim, "_threaded_blocks", spy)
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        outputs = []
        for threads in ("1", "2", "0"):
            ran.append(0)
            code, out, err = run_cli(capsys, *argv, "--threads", threads)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert ran == [1, 2, 2]  # most threads one kernel call ran on

    def test_mnl_kernel_threads_need_no_fork(self, capsys, tmp_path, monkeypatch):
        """Where nothing forks, --threads still sets the kernel threads."""
        monkeypatch.setattr(core, "_CAN_FORK", False)
        self.test_threads_set_the_mnl_kernel_threads(capsys, tmp_path, monkeypatch)

    def test_bad_env_threads_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("FTPPI_THREADS", "many")
        code, _, err = run_cli(
            capsys, "allocate", "--a", "1", "--alpha", "0.5", "--b", "0", "--n", "100"
        )
        assert code == 2
        assert json.loads(err)["message"] == "FTPPI_THREADS must be an integer, got 'many'"

    @pytest.mark.parametrize("command", ["estimate-mean", "estimate-m"])
    def test_train_size_option_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--help"])
        assert exc.value.code == 0
        assert "--train-size" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["rampup", "--world", "world.json", *TestRampup.ARGS],
            ["simulate", "--scenario", "scenario.json", "--out", "results"],
            ["bootstrap", "--world", "world.json", "--n-datasets", "2",
             "--n-training-seeds", "1", "--n-fit", "100"],
            ["estimate-m", "--loss", "mean", "--labeled", "l.csv", "--unlabeled", "u.csv",
             "--pred-labeled", "fl.csv", "--pred-unlabeled", "fu.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_only_on_flat_reports(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_bad_env_seed_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("FTPPI_SEED", "lots")
        code, _, err = run_cli(
            capsys, "allocate", "--a", "1", "--alpha", "0.5", "--b", "0", "--n", "100"
        )
        assert code == 2
        assert "FTPPI_SEED" in json.loads(err)["message"]

    def test_out_file_for_flat_report(self, capsys, tmp_path):
        dest = tmp_path / "alloc.json"
        code, out, _ = run_cli(
            capsys, "allocate", "--a", "10.21", "--alpha", "0.21", "--b", "1.98",
            "--n", "10000", "--sigma-sq", "12.19", "--out", str(dest),
        )
        assert code == 0 and out == ""
        assert dest.read_text() == golden("allocate_reference.json")

    def test_only_the_entry_function_freezes_the_heap(self, capsys):
        before = gc.get_freeze_count()
        assert run_cli(capsys, *TestAllocate.ARGS)[0] == 0
        assert gc.get_freeze_count() == before
        # A fresh interpreter: importing ``ftppi.__main__`` turns the
        # collector off, and ``entry`` must freeze the heap and turn it on.
        code = (
            "import gc, sys; from ftppi.__main__ import entry; code = entry(); "
            "print(code, gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr)"
        )
        proc = subprocess.run([sys.executable, "-c", code, *TestAllocate.ARGS],
                              capture_output=True, text=True)
        assert proc.stderr.split() == ["0", "True", "True"]
        assert proc.stdout == golden("allocate_reference.json")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ftppi", "allocate", "--a", "10.21",
             "--alpha", "0.21", "--b", "1.98", "--n", "10000", "--sigma-sq", "12.19"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == golden("allocate_reference.json")

    @staticmethod
    def program_setup(**blas_env) -> list[str]:
        """``gc.isenabled()``, ``OPENBLAS_NUM_THREADS`` and whether numpy is
        loaded, after a fresh interpreter imports ``ftppi.__main__`` (the
        console script's module) with ``blas_env`` as its only BLAS variables;
        on Linux also the process's thread count."""
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        code = (
            "import gc, os, sys; import ftppi.__main__; "
            "print(gc.isenabled(), os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules); "
            "os.path.exists('/proc/self/status') and print(*[line.split()[1] for line in "
            "open('/proc/self/status') if line.startswith('Threads:')])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**env, **blas_env})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_program_loads_numpy_with_one_blas_thread_and_the_collector_off(self):
        # ``import ftppi`` loads no numpy (test_package), so under
        # ``python -m ftppi`` this set-up also runs before numpy loads.
        setup = self.program_setup()
        assert setup[:3] == ["False", "1", "True"]
        if sys.platform.startswith("linux"):
            assert setup[3:] == ["1"]

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_program_keeps_the_callers_blas_threads(self, name):
        setup = self.program_setup(**{name: "2"})
        assert setup[:3] == ["False", "2" if name == "OPENBLAS_NUM_THREADS" else "None", "True"]


class TestProgramEnd:
    """``run`` ends the program without interpreter teardown, with the output
    and exit code of the ``sys.exit(entry())`` it replaced.

    Each program runs in a fresh interpreter whose audit hook writes
    ``<teardown>`` to stderr when teardown clears the interpreter, so a
    test can tell which way the process ended.
    """

    MARK = "<teardown>"
    ENDINGS = {"teardown": "sys.exit(program.entry())", "run": "program.run()"}
    CLEARED = ("cpython.PyInterpreterState_Clear", "cpython._PySys_ClearAuditHooks")

    def program(self, ending, *argv, prelude="", env=None, **popen):
        """(exit code, stdout, stderr without the marker, whether teardown ran)."""
        code = "\n".join([
            "import os, sys",
            f"def hook(event, args, write=os.write, mark={self.MARK.encode()!r}):",
            f"    event in {self.CLEARED!r} and write(2, mark)",
            "sys.addaudithook(hook)",
            "import ftppi.__main__ as program",
            prelude,
            self.ENDINGS[ending],
        ])
        popen.setdefault("stdout", subprocess.PIPE)
        proc = subprocess.run([sys.executable, "-c", code, *argv], stderr=subprocess.PIPE,
                              env=env, **popen)
        err = proc.stderr.decode()
        return proc.returncode, proc.stdout, err.replace(self.MARK, ""), self.MARK in err

    def same_as_teardown(self, *argv, **kwargs):
        """The run's result, after checking it against the teardown path's; returns
        whether ``run`` took the teardown path itself."""
        *want, torn_down = self.program("teardown", *argv, **kwargs)
        *got, run_torn_down = self.program("run", *argv, **kwargs)
        assert torn_down
        assert got == want
        return run_torn_down

    def test_the_console_script_is_run(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            assert 'ftppi = "ftppi.__main__:run"\n' in fh.read()

    def test_success(self):
        assert not self.same_as_teardown(*TestAllocate.ARGS)
        want = golden("allocate_reference.json").encode()
        assert self.program("run", *TestAllocate.ARGS)[1] == want

    def test_version(self):
        assert not self.same_as_teardown("--version")
        assert self.program("run", "--version")[:2] == (0, b"ftppi 0.1.0\n")

    def test_usage_error(self):
        assert not self.same_as_teardown("allocate", "--a", "1")
        assert self.program("run", "allocate", "--a", "1")[0] == 2

    def test_library_error(self):
        argv = ("allocate", "--a", "1", "--alpha", "0.5", "--b", "0", "--n", "100")
        env = {**os.environ, "FTPPI_SEED": "lots"}
        assert not self.same_as_teardown(*argv, env=env)
        code, _, err, _ = self.program("run", *argv, env=env)
        assert code == 2 and "FTPPI_SEED" in json.loads(err)["message"]

    def test_out_file(self, tmp_path):
        written = []
        for ending in self.ENDINGS:
            dest = tmp_path / f"{ending}.json"
            assert self.program(ending, *TestAllocate.ARGS, "--out", str(dest))[:3] == (0, b"", "")
            written.append(dest.read_text())
        assert written == [golden("allocate_reference.json")] * 2

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_pipe(self, unbuffered):
        """Buffered output fails at the final flush: exit 120 and CPython's
        message, by the teardown path.  Unbuffered, the write itself fails
        inside ``main``: exit 2 with the error as JSON."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        results = []
        for ending in self.ENDINGS:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                results.append(self.program(ending, *TestAllocate.ARGS, env=env, stdout=write_end))
            finally:
                os.close(write_end)
        (code, _, err, torn_down), got = results
        assert got[:3] == (code, None, err)
        if unbuffered:
            assert code == 2 and "Broken pipe" in json.loads(err)["message"]
        else:
            assert code == 120 and err.rstrip().endswith("BrokenPipeError: [Errno 32] Broken pipe")
            assert torn_down and got[3]

    def test_atexit_handlers_run(self):
        prelude = "import atexit; atexit.register(os.write, 2, b'<atexit>')"
        assert not self.same_as_teardown("--version", prelude=prelude)
        assert self.program("run", "--version", prelude=prelude)[2] == "<atexit>"

    def test_a_live_thread_takes_the_teardown_path(self):
        prelude = "import threading, time; threading.Thread(target=time.sleep, args=(0.2,)).start()"
        assert self.same_as_teardown(*TestAllocate.ARGS, prelude=prelude)

    def test_a_failing_flush_takes_the_teardown_path(self):
        prelude = "\n".join([
            "class Failing:",
            "    closed = False",
            "    def __init__(self, stream): self.stream = stream",
            "    def write(self, text): return self.stream.write(text)",
            "    def flush(self): raise OSError('flush failed')",
            "    def __repr__(self): return '<failing stdout>'",
            "sys.stdout = Failing(sys.stdout)",
        ])
        assert self.same_as_teardown("--version", prelude=prelude)

    def test_a_non_int_exit_takes_the_teardown_path(self):
        prelude = "program.main = lambda: sys.exit('stopped')"
        assert self.same_as_teardown(prelude=prelude)
        assert self.program("run", prelude=prelude)[::2] == (1, "stopped\n")

    def test_an_exception_takes_the_teardown_path(self):
        prelude = "def main(): raise KeyboardInterrupt\nprogram.main = main"
        *want, torn_down = self.program("teardown", prelude=prelude)
        *got, run_torn_down = self.program("run", prelude=prelude)
        # the traceback has one frame more, ``run``'s
        assert got[0] == want[0] != 0 and torn_down and run_torn_down
        assert got[2].splitlines()[-1] == want[2].splitlines()[-1] == "KeyboardInterrupt"
