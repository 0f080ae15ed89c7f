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
    # rectified mean cancels a large offset, and the field that moved is
    # named with both values and their relative difference.
    at = f"estimate-mean ft-ppi offset: stdout differs between {mutant} and {head} at "
    rounded = [line for line in found if " at full precision " not in line]
    assert rounded and all(line.startswith(at) for line in rounded), rounded
    assert all(", relative difference " in line for line in rounded), rounded
    # the estimate and its interval's ends, not the variance
    fields = {line[len(at):].split(":")[0] for line in rounded}
    assert "estimate" in fields and fields <= {"estimate", "ci_low", "ci_high"}, rounded
    # At full precision it shows on the inputs without an offset too.
    exact = [line for line in found if " at full precision " in line]
    assert any(
        line.startswith(
            f"estimate-mean ft-ppi: stdout at full precision differs between {mutant} and {head}"
            " at estimate: "
        )
        for line in exact
    ), exact
    assert any(not line.startswith("estimate-mean") for line in exact), exact
    assert "allocate" not in proc.stdout  # the allocation never rectifies a mean


def test_moved_fields_are_named():
    """Outputs that parse as JSON, JSON lines or CSV are compared field by
    field; any other output, and one whose fields all match, is named whole."""
    sys.path.insert(0, os.path.dirname(TOOL))
    try:
        import identity as tool
    finally:
        sys.path.remove(os.path.dirname(TOOL))
    line = "op: stdout differs between A and B"
    assert tool._described(line, "stdout", b'{"s": [[1, 2.5]], "m": "x"}',
                           b'{"s": [[1, 2.0]], "m": "y"}') == [
        f"{line} at s[0][1]: 2.5 vs 2.0, relative difference 0.2",
        f'{line} at m: "x" vs "y"',
    ]
    assert tool._described(line, "stdout", b'{"a": 1}\n{"a": 2}\n', b'{"a": 1}\n{"b": 2}\n') == [
        f"{line} at [1].a: 2 vs absent", f"{line} at [1].b: absent vs 2",
    ]
    assert tool._described(line, "--out files", {"t.csv": b"a,b\n1,x\n4,y\n"},
                           {"t.csv": b"a,b\n1,x\n5,y\n"}) == [
        f"{line} in t.csv at [1].a: 4.0 vs 5.0, relative difference 0.2"
    ]
    many = [json.dumps(list(range(k, k + 12))).encode() for k in (0, 1)]
    described = tool._described(line, "stdout", *many)
    assert len(described) == tool.MAX_FIELDS + 1
    assert described[-1] == f"{line}: and 2 more fields, in [10], [11]"
    rest = tool._described(line, "stdout", *(
        json.dumps({"theta": [k] * 10, "sigma": [[k] * 2] * 2, "nu": k}).encode() for k in (0, 1)
    ))
    assert rest[-1] == f"{line}: and 5 more fields, in sigma, nu"
    for a, b in ((b"Traceback", b"Trace"), (b'{"a": 1}', b'{"a":1}')):
        assert tool._described(line, "stdout", a, b) == [line]
    assert tool._described(line, "stderr", b'{"a": 1}', b'{"a": 2}') == [line]


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
