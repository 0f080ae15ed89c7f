"""Tests of the benchmark's own output checks.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs once, in process, on a seed other than the ones in
README.md.  Its real output must pass its check, and every perturbed
copy of it must be rejected.  The file name keeps these tests out of the
repository's default test run.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys

import pytest

import checks
import inputs
import run

SEED = 424242


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, run.SRC)
    import ftppi.cli

    return ftppi.cli


@pytest.fixture(scope="module")
def outputs(cli, tmp_path_factory):
    """{workload: (inputs, ops, results)}, filled on first use."""
    cache = {}

    def get(workload):
        if workload not in cache:
            tmp = str(tmp_path_factory.mktemp(workload))
            inp = inputs.MAKERS[workload](SEED, tmp)
            ops = run.build_ops(workload, inp, tmp)
            results = []
            for op in ops:
                # Each op of a workload writes to the same --out; keep a copy per op.
                if op.out_dir is not None:
                    op.out_dir = os.path.join(tmp, f"out{len(results)}")
                    op.args[op.args.index("--out") + 1] = op.out_dir
                results.append(run.run_in_process(cli, op)[1])
            cache[workload] = (inp, ops, results)
        return cache[workload]

    return get


def _with_json(result: checks.Result, edit) -> checks.Result:
    payload = json.loads(result.stdout)
    edit(payload)
    return checks.Result(0, json.dumps(payload), "", result.out_dir)


def _with_lines(result: checks.Result, edit) -> checks.Result:
    lines = [json.loads(line) for line in result.stdout.splitlines()]
    edit(lines)
    return checks.Result(0, "\n".join(json.dumps(line) for line in lines), "", result.out_dir)


@contextlib.contextmanager
def _edited_csv(result: checks.Result, name: str, key: str, row: str, column: str, fn):
    path = os.path.join(result.out_dir, name)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    rows = list(csv.DictReader(original.splitlines()))
    for r in rows:
        if r[key] == row:
            r[column] = repr(fn(float(r[column])))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        yield
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)


def _rejects(check, inp, result):
    with pytest.raises(checks.CheckFailed):
        check(inp, result)


# ---------------------------------------------------------------------------
# Real outputs pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.MAKERS))
def test_real_outputs_pass(outputs, workload):
    inp, ops, results = outputs(workload)
    for op, result in zip(ops, results):
        if op.check is checks.check_rampup_fault:
            continue  # the known fault: see test_rampup_fault_*
        op.check(inp, result)


def test_failed_exit_is_rejected(outputs):
    inp, _, (result,) = outputs("csv-mean")
    _rejects(checks.check_csv_mean, inp, checks.Result(2, result.stdout, "boom"))


# ---------------------------------------------------------------------------
# Perturbed outputs fail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field,scale", [
    ("estimate", 1 + 1e-6), ("variance_hat", 1.001), ("ci_low", 1 - 1e-6), ("ci_high", 1 + 1e-6),
])
def test_csv_mean_rejects(outputs, field, scale):
    inp, _, (result,) = outputs("csv-mean")
    _rejects(checks.check_csv_mean, inp,
             _with_json(result, lambda p: p.__setitem__(field, p[field] * scale)))


def test_csv_mean_rejects_wrong_pool_size(outputs):
    inp, _, (result,) = outputs("csv-mean")
    _rejects(checks.check_csv_mean, inp, _with_json(result, lambda p: p.__setitem__("m", p["m"] - 1)))


@pytest.mark.parametrize("edit", [
    lambda p: p["theta_hat"].__setitem__(0, p["theta_hat"][0] + 1e-4),
    lambda p: p["sigma_hat"][1].__setitem__(1, p["sigma_hat"][1][1] * 1.001),
    lambda p: p["ci_high"].__setitem__(2, p["ci_high"][2] + 1e-4),
    lambda p: p.__setitem__("nu_trace", p["nu_trace"] * 1.001),
    lambda p: p.__setitem__("nu_det", p["nu_det"] * 1.001),
])
def test_csv_mnl_rejects(outputs, edit):
    inp, _, (result,) = outputs("csv-mnl")
    _rejects(checks.check_csv_mnl, inp, _with_json(result, edit))


@pytest.mark.parametrize("fraction,scale", [("0.1", 10.0), ("0.5", 0.05), ("0.95", 5.0)])
def test_sim_oracle_rejects_variance_off_the_law(outputs, fraction, scale):
    inp, _, (result,) = outputs("sim-oracle")
    with _edited_csv(result, "allocation_curve.csv", "fraction", fraction, "variance",
                     lambda v: v * scale):
        _rejects(checks.check_sim_oracle, inp, result)


def _comparison_se(result, method):
    with open(os.path.join(result.out_dir, "comparison.csv"), encoding="utf-8") as fh:
        row = next(r for r in csv.DictReader(fh) if r["method"] == method)
    return math.sqrt(float(row["variance"]) / inputs.FRESH["comparison"]["replicates"])


@pytest.mark.parametrize("name,key,row,column,shift", [
    ("comparison.csv", "method", "FtPpi", "mean_estimate", 8.0),
    ("comparison.csv", "method", "SampleMean", "mean_estimate", -8.0),
    ("comparison.csv", "method", "FtOnly", "mean_estimate", None),  # drop the bias
    ("comparison.csv", "method", "PpiOnly", "rmse", 1e-3),
    ("bootstrap.csv", "quantity", "fraction_var_training", "value", 1e-7),
    ("bootstrap.csv", "quantity", "fraction", "value", 0.02),
    ("external.csv", "strength", "0.5", "fraction_external", 1e-4),
    ("external.csv", "strength", "0.5", "mc_mean", 0.01),
    ("external.csv", "strength", "0.5", "empirical_variance", 1e-3),
])
def test_sim_fresh_simulate_rejects(outputs, name, key, row, column, shift):
    inp, ops, results = outputs("sim-fresh")
    result = results[0]
    if name == "comparison.csv" and column == "mean_estimate":
        se = _comparison_se(result, row)
        fn = (lambda v: v - inputs.DRIFTING_WORLD["bias"]["value"]) if shift is None else (
            lambda v: v + shift * se)
    else:
        fn = lambda v: v + shift  # noqa: E731
    with _edited_csv(result, name, key, row, column, fn):
        _rejects(checks.check_simulate_fresh, inp, result)


@pytest.mark.parametrize("edit", [
    lambda ls: ls[-2].__setitem__("decision", "continue"),
    lambda ls: ls[0].__setitem__("decision", "stop"),
    lambda ls: ls[2].__setitem__("s_hat", ls[2]["s_hat"] * 1.01),
    lambda ls: ls[1].__setitem__("residual_variance", ls[1]["residual_variance"] * 3),
    lambda ls: ls[1].__setitem__("mean_residual", 0.1),
    lambda ls: ls[-1]["final"]["estimate"].__setitem__("estimate", 0.95),
    lambda ls: ls[-1]["final"]["estimate"].__setitem__("n_ppi", 4000),
    lambda ls: ls[-1]["final"].__setitem__("s_final", 50),
])
def test_rampup_rejects(outputs, edit):
    inp, _, results = outputs("sim-fresh")
    _rejects(checks.check_rampup, inp, _with_lines(results[1], edit))


# ---------------------------------------------------------------------------
# The kept fault: the rampup whose first stage the trainer refuses
# ---------------------------------------------------------------------------

_MESSAGE = "stage 1 (size 10): training size 10 below the world's minimum 50"


def _fault_trace(**final):
    record = {"stage": 1, "size": 10, "mean_residual": None, "residual_variance": None,
              "s_hat": None, "decision": "error", "fit": None}
    tail = {"completed": False, "stop_stage": None, "s_final": None, "mode": "holdout",
            "n_v": 500, "error": _MESSAGE}
    tail.update(final)
    return checks.Result(0, json.dumps(record) + "\n" + json.dumps({"final": tail}) + "\n", "")


def test_rampup_fault_rejects_todays_output(outputs):
    inp, _, results = outputs("sim-fresh")
    _rejects(checks.check_rampup_fault, inp, results[2])


def test_rampup_fault_accepts_the_promised_trace(outputs):
    inp, _, _ = outputs("sim-fresh")
    checks.check_rampup_fault(inp, _fault_trace())


@pytest.mark.parametrize("final", [{"completed": True}, {"error": None}, {"s_final": 10}])
def test_rampup_fault_rejects_wrong_final_line(outputs, final):
    inp, _, _ = outputs("sim-fresh")
    _rejects(checks.check_rampup_fault, inp, _fault_trace(**final))


def test_rampup_fault_rejects_nan_statistics(outputs):
    inp, _, _ = outputs("sim-fresh")
    result = _fault_trace()
    result.stdout = result.stdout.replace('"mean_residual": null', '"mean_residual": NaN')
    _rejects(checks.check_rampup_fault, inp, result)


# ---------------------------------------------------------------------------
# The benchmark's own reference computations
# ---------------------------------------------------------------------------


def test_optimal_split_matches_the_stationarity_condition():
    law = inputs.DRIFTING_WORLD["law"]
    for n in (100, 2_000, 5_000, 10**6):
        s = checks.optimal_split(law, n)
        a, alpha, b = law["a"], law["alpha"], law["b"]
        foc = alpha * a * n * s ** (-alpha - 1) - (alpha + 1) * a * s ** (-alpha) - b
        assert abs(foc) <= 1e-9 * (alpha + 1) * a * s ** (-alpha)


def test_chi2_band_covers_the_central_mass():
    for df in (19, 99, 499):
        lo, hi = checks.chi2_band(df)
        assert 0 < lo < 1 < hi
