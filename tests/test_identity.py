"""The output-identity check, ``tools/identity.py``, at toy sizes.

It passes between HEAD and itself, and fails against a tree whose
rectified mean adds the same three means in another grouping.
"""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "identity.py")
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
    # The CLI prints 12 significant digits: the regrouping shows where the
    # rectified mean cancels a large offset.
    assert f"estimate-mean ft-ppi offset: stdout differs between {mutant} and {head}" in (
        proc.stdout.splitlines()
    )
    assert "allocate" not in proc.stdout  # the allocation never rectifies a mean
