"""The output-identity check, ``tools/identity.py``, at toy sizes.

It passes between HEAD and itself, and fails against a tree whose
rectified mean adds the same three means in another grouping: on its
12-digit leg only where an input amplifies the change, on its
full-precision leg wherever a rectified mean is printed.  Its launcher,
``tools/full_precision.py``, refuses a tree whose rounding it cannot find.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "identity.py")
LAUNCHER = os.path.join(ROOT, "tools", "full_precision.py")
#: ``_rectified_mean``'s sum, and the same means grouped another way.
SUM = "float(np.mean(ys - preds_labeled) + np.mean(preds_pool))"
REGROUPED = "float(np.mean(ys) - np.mean(preds_labeled) + np.mean(preds_pool))"


def identity(ref, tree):
    return subprocess.run(
        [sys.executable, TOOL, ref, "--tree", str(tree), "--toy"],
        capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def head(tmp_path_factory):
    """HEAD's source tree, extracted with ``git archive``."""
    if subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    tree = tmp_path_factory.mktemp("head")
    archive = subprocess.run(["git", "-C", ROOT, "archive", "HEAD"], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree


def test_head_matches_itself(head):
    proc = identity("HEAD", head)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.endswith(" operations, 0 differences\n")


def test_regrouped_rectified_mean_is_caught(head, tmp_path):
    mutant = tmp_path / "mutant"
    shutil.copytree(head, mutant)
    module = mutant / "src" / "ftppi" / "ppi_mean.py"
    source = module.read_text()
    assert source.count(SUM) == 1
    module.write_text(source.replace(SUM, REGROUPED))
    proc = identity(str(head), mutant)
    assert proc.returncode == 1, proc.stderr
    found = proc.stdout.splitlines()
    # The CLI prints 12 significant digits: the regrouping shows where the
    # rectified mean cancels a large offset.
    assert f"estimate-mean ft-ppi offset: stdout differs between {mutant} and {head}" in found
    rounded = [line for line in found if " at full precision " not in line]
    assert all(line.startswith("estimate-mean ft-ppi offset:") for line in rounded), rounded
    # At full precision it shows on the inputs without an offset too.
    exact = [line for line in found if " at full precision " in line]
    assert (
        f"estimate-mean ft-ppi: stdout at full precision differs between {mutant} and {head}"
        in exact
    )
    assert any(not line.startswith("estimate-mean") for line in exact), exact
    assert "allocate" not in proc.stdout  # the allocation never rectifies a mean


def tree_env(tree):
    return {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}


def launch(tree, *args):
    return subprocess.run([sys.executable, LAUNCHER, *args], capture_output=True, text=True,
                          env=tree_env(tree), timeout=120)


def test_launcher_prints_every_bit():
    from ftppi.allocate import solve_optimal_allocation
    from ftppi.scaling import ScalingLaw

    args = ["--a", "1", "--alpha", "0.5", "--b", "0.1", "--n", "100"]
    proc = launch(ROOT, "allocate", *args)
    assert proc.returncode == 0, proc.stderr
    printed = json.loads(proc.stdout)["s_star_real"]
    exact = solve_optimal_allocation(ScalingLaw(a=1.0, alpha=0.5, b=0.1), 100).s_star_real
    assert printed == exact and f"{exact:.12g}" != repr(exact)
    # the same run through the program prints the rounded value
    rounded = subprocess.run([sys.executable, "-m", "ftppi", "allocate", *args],
                             capture_output=True, text=True, env=tree_env(ROOT), timeout=120)
    assert json.loads(rounded.stdout)["s_star_real"] == float(f"{exact:.12g}")


def test_launcher_refuses_a_tree_without_its_rounding(head, tmp_path):
    mutant = tmp_path / "mutant"
    shutil.copytree(head, mutant)
    module = mutant / "src" / "ftppi" / "cli.py"
    source = module.read_text()
    assert source.count('format(x, ".12g")') == 1
    module.write_text(source.replace('format(x, ".12g")', 'format(x, ".12G")'))
    proc = launch(mutant, "allocate", "--a", "1", "--alpha", "0.5", "--b", "0", "--n", "100")
    assert proc.returncode == 3 and proc.stdout == ""
    assert "cannot print its numbers at full precision" in proc.stderr
    checked = identity(str(head), mutant)
    assert checked.returncode == 2 and checked.stdout == ""
    assert str(mutant) in checked.stderr and "operations" not in checked.stderr
