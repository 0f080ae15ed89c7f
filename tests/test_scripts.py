"""Smoke runs of the example drivers in scripts/ at toy sizes.

Each driver runs as its own process against the source tree, on the
shipped reference world, and must exit 0 and print its table header.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORLD = os.path.join(ROOT, "configs", "reference_world.json")


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "allocation_curve.py",
            ["--n", "200", "--m", "500", "--replicates", "3", "--grid-step", "0.25"],
            " fraction   mc variance",
        ),
        (
            "estimator_comparison.py",
            ["--n", "300", "--m", "500", "--replicates", "3"],
            "method            mean       rmse        mae     variance",
        ),
        (
            "rampup_demo.py",
            ["--n", "600", "--m", "500", "--schedule", "20,40,80", "--n-v", "100"],
            "stage   size  resid var    s_hat  decision",
        ),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--world", WORLD, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
