"""Smoke runs of the example drivers in scripts/ at toy sizes.

Each driver runs as its own process against the source tree, on the
shipped reference world, and must exit 0 and print its table header.
On a malformed world file it must exit 2 with the CLI's one-line JSON
error instead of a traceback.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORLD = os.path.join(ROOT, "configs", "reference_world.json")

SCRIPTS = [
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
]


def run_script(script, world, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), "--world", world, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("script, args, header", SCRIPTS)
def test_script_runs(script, args, header):
    proc = run_script(script, WORLD, args)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()


@pytest.mark.parametrize("script, args", [(script, args) for script, args, _ in SCRIPTS])
def test_bad_world_is_a_one_line_error(script, args, tmp_path):
    with open(WORLD, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["noise_flor"] = 0.5
    world = tmp_path / "world.json"
    world.write_text(json.dumps(spec))
    proc = run_script(script, str(world), args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    error = json.loads(proc.stderr)
    assert error["error"] == "ParameterError"
    assert "world.noise_flor" in error["message"]
