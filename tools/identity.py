#!/usr/bin/env python3
"""Check that the command line gives the same bytes as another revision.

    python tools/identity.py REF [--tree DIR] [--toy]

REF is a git revision, extracted with ``git archive`` into a temporary
directory, or a directory that holds a source tree.  The tree checked
against it is this checkout, or ``--tree DIR``.  Each operation of one
fixed list runs on the ``src/`` of each tree, in a fresh working
directory of the same relative name, on inputs written once for both.
It runs twice, on two legs:

* as ``python -m ftppi``, the program as users run it.  This leg proves
  that the two trees give the same exit codes, standard error and
  output bytes, with every number rounded to the 12 significant digits
  the program prints;
* through ``tools/full_precision.py``, which prints every float with all
  its bits.  This leg proves that every printed number is the same
  float in both trees, so a change in the last bits of a result shows
  even where 12 digits hide it.

Every difference in exit code, standard output, standard error or the
files an operation writes under ``--out`` is printed, and the exit
status is 1; it is 0 when every operation matches on both legs.  Where
standard output or an ``--out`` file differs and both trees' versions
parse as JSON, JSON lines or CSV, each field that moved is named by its
path (``sigma_hat[1][0]``, ``[3].estimate`` for a CSV's fourth row),
with both values and their relative difference, at most ``MAX_FIELDS``
per output; otherwise the output is named whole.  If the
launcher cannot find the rounding it replaces in a tree, the check
stops with status 2.  ``--toy`` shrinks every input, for tests.

The list: the four benchmark workloads' operations on seeds 1 and 2, with
inputs written by ``perfbench/inputs.py``; ``simulate`` on
``configs/scenario_quick.json`` and on the sim-fresh scenario at
``--threads`` 1, 2 and 0; ``rampup`` on both ``configs/`` worlds, cross-
validated and with a failing first stage; ``bootstrap``; ``estimate-m``
with each loss at ``--threads`` 1, 2 and 0 (the categorical pool spans
four of its 8192-row blocks), with ``ols`` on a pool as large as its
labeled set, and with ``mnl`` on nine options and a pool of three blocks;
``estimate-mean`` with each
method, and at ``--threads`` 1 and 2 on a pool file with a bad cell in
its last part, with a non-finite cell, with a row too wide, or quoted;
``fit-scaling``; ``allocate``, also on a steep law at n = 10**6.

On the 12-digit leg a change in the last bits of a number shows only
where an input amplifies it.  One input does so for the rectified mean:
outcomes and predictions on an offset of 1e8 that the estimate cancels.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)
import run as bench  # noqa: E402  (perfbench/run.py, for the workloads' operations)

LAUNCHER = os.path.join(ROOT, "tools", "full_precision.py")
#: The two legs: how each starts the program, and its tag in the differences it finds.
LEGS = ((["-m", "ftppi"], ""), ([LAUNCHER], " at full precision"))

#: Module constants of perfbench/inputs.py replaced by ``--toy``.
TOY_INPUTS = {
    "MEAN_N": 200,
    "MEAN_M": 3_000,
    "MNL_N": 1_000,
    "MNL_M": 3_000,
    "ORACLE": {"n": 400, "m": 2_000, "grid_step": 0.25, "replicates": 4},
    "FRESH": {
        "n": 400,
        "m": 2_000,
        "comparison": {"replicates": 4},
        "bootstrap": {"n_datasets": 2, "n_training_seeds": 2, "resamples": 20},
        "external": {"strength": 0.5, "replicates": 4},
    },
    "RAMPUP": {"n": 2_000, "m": 2_000, "schedule": (50, 100, 200), "n_v": 200},
}
TOY_QUICK = {"n": 400, "m": 2_000, "allocation_curve": {"grid_step": 0.25, "replicates": 4},
             "comparison": {"replicates": 4},
             "bootstrap": {"n_datasets": 2, "n_training_seeds": 2, "resamples": 20}}


def _write_csv(path: str, header: str, columns: list[np.ndarray], fmt) -> str:
    np.savetxt(path, np.column_stack(columns), fmt=fmt, delimiter=",", header=header, comments="")
    return path


def operations(root: str, toy: bool) -> list[tuple[str, list[str]]]:
    """Write every input under ``root``; return each operation's name and arguments."""
    saved = {name: getattr(inputs, name) for name in TOY_INPUTS}
    if toy:
        for name, value in TOY_INPUTS.items():
            setattr(inputs, name, value)
    ops, made = [], {}
    try:
        for seed in (1, 2):
            for workload in ("csv-mean", "csv-mnl", "sim-oracle", "sim-fresh"):
                where = os.path.join(root, f"{workload}-{seed}")
                os.makedirs(where)
                made[workload, seed] = inp = inputs.MAKERS[workload](seed, where)
                for k, op in enumerate(bench.build_ops(workload, inp, ".")):
                    ops.append((f"{workload} seed {seed} op {k}", op.args))
    finally:
        for name, value in saved.items():
            setattr(inputs, name, value)

    with open(os.path.join(ROOT, "configs", "scenario_quick.json"), encoding="utf-8") as fh:
        quick = json.load(fh)
    quick.update(TOY_QUICK if toy else {})
    scenarios = {"quick": os.path.join(root, "scenario_quick.json"),
                 "sim-fresh": made["sim-fresh", 1].files["scenario"]}
    with open(scenarios["quick"], "w", encoding="utf-8") as fh:
        json.dump(quick, fh)
    for name, path in scenarios.items():
        for threads in ("1", "2", "0"):
            ops.append((f"simulate {name} threads {threads}",
                        ["simulate", "--scenario", path, "--threads", threads, "--out", "out"]))

    worlds = {}
    for name in ("reference_world", "drifting_world"):
        worlds[name] = shutil.copy(os.path.join(ROOT, "configs", f"{name}.json"), root)
    ops += [
        ("rampup reference", ["rampup", "--world", worlds["reference_world"], "--n", "600",
                              "--m", "600", "--schedule", "20,40,80", "--n-v", "100"]),
        ("rampup reference cv", ["rampup", "--world", worlds["reference_world"], "--n", "600",
                                 "--m", "600", "--schedule", "20,40,80", "--cv-folds", "4"]),
        ("rampup drifting", ["rampup", "--world", worlds["drifting_world"], "--n", "2000",
                             "--m", "2000", "--schedule", "50,100,200", "--n-v", "200"]),
        ("rampup failing stage", ["rampup", "--world", worlds["drifting_world"]]
         + inputs.RAMPUP_FAULT_ARGS),
        ("bootstrap", ["bootstrap", "--world", worlds["drifting_world"], "--n-datasets", "2",
                       "--n-training-seeds", "1", "--n-fit", "400", "--resamples", "20"]),
    ]

    mean, mnl = made["csv-mean", 1].files, made["csv-mnl", 1].files
    files = ["--labeled", mean["labeled"], "--unlabeled", mean["unlabeled"],
             "--pred-labeled", mean["pred_labeled"], "--pred-unlabeled", mean["pred_unlabeled"]]
    choices = ["--labeled", mnl["labeled"], "--unlabeled", mnl["unlabeled"],
               "--pred-labeled", mnl["pred_labeled"], "--pred-unlabeled", mnl["pred_unlabeled"]]
    rng = np.random.default_rng(0)
    # The categorical pool spans four of m_estim's 8192-row blocks, so its
    # sums add block sums.
    n, m = 300, 3 * 8192 + 1_000
    x = rng.standard_normal(n + m)
    y = 1 + (x > -0.5) + (x > 0.7)  # classes 1..3
    f = np.clip(y + rng.integers(-1, 2, n + m), 1, 3)
    cat = os.path.join(root, "categorical")
    categorical = [
        "--labeled", _write_csv(cat + "_lab.csv", "y,x1", [y[:n], x[:n]], ["%d", "%.6f"]),
        "--unlabeled", _write_csv(cat + "_unlab.csv", "x1", [x[n:]], "%.6f"),
        "--pred-labeled", _write_csv(cat + "_f_lab.csv", "f", [f[:n]], "%d"),
        "--pred-unlabeled", _write_csv(cat + "_f_unlab.csv", "f", [f[n:]], "%d"),
        "--dim", "3",
    ]
    for loss, data in (("mean", files), ("categorical", categorical), ("ols", files),
                       ("mnl", choices)):
        for threads in ("1", "2", "0"):
            ops.append((f"estimate-m {loss} threads {threads}",
                        ["estimate-m", "--loss", loss, "--threads", threads] + data))
    # A regression whose pool is as large as its labeled set: V_pred / m
    # weighs as much as V_resid / n in sigma_hat, so a change in V_pred's
    # last bits shows there.  The pool spans two blocks of m_estim's sums.
    ols_rng = np.random.default_rng(1)
    size = 12_000
    xo = ols_rng.standard_normal((2 * size, 3))
    fo = xo @ np.array([1.0, -0.5, 0.25])
    yo = fo + ols_rng.standard_normal(2 * size)
    fo += 0.5 * ols_rng.standard_normal(2 * size)
    small = os.path.join(root, "ols_small_pool")
    ops.append(("estimate-m ols pool as large as the labeled set", [
        "estimate-m", "--loss", "ols",
        "--labeled", _write_csv(small + "_lab.csv", "y,x1,x2,x3", [yo[:size], xo[:size]], "%.6f"),
        "--unlabeled", _write_csv(small + "_unlab.csv", "x1,x2,x3", [xo[size:]], "%.6f"),
        "--pred-labeled", _write_csv(small + "_f_lab.csv", "f", [fo[:size]], "%.6f"),
        "--pred-unlabeled", _write_csv(small + "_f_unlab.csv", "f", [fo[size:]], "%.6f"),
    ]))
    # A choice model with nine options, whose sums over options are numpy's
    # pairwise ones (m_estim._PAIRWISE_FROM), on a pool of three blocks.
    K, d, size = 9, 2, 2_000
    mnl_rng = np.random.default_rng(2)
    xc = np.round(mnl_rng.standard_normal((size + 2 * 8192 + 500, K, d)), 6)
    yc = inputs._mnl_choices(xc, np.array([0.6, -0.4]), mnl_rng.gumbel(size=(len(xc), K + 1)))
    fc = inputs._mnl_choices(xc, np.array([0.5, -0.3]), mnl_rng.gumbel(size=(len(xc), K + 1)))
    xc = xc.reshape(len(xc), K * d)
    names = ",".join(f"x_{k}_{j}" for k in range(1, K + 1) for j in range(1, d + 1))
    wide = os.path.join(root, "mnl_nine_options")
    ops.append(("estimate-m mnl nine options", [
        "estimate-m", "--loss", "mnl",
        "--labeled", _write_csv(wide + "_lab.csv", "choice," + names, [yc[:size], xc[:size]],
                                ["%d"] + ["%.6f"] * (K * d)),
        "--unlabeled", _write_csv(wide + "_unlab.csv", names, [xc[size:]], "%.6f"),
        "--pred-labeled", _write_csv(wide + "_f_lab.csv", "f", [fc[:size]], "%d"),
        "--pred-unlabeled", _write_csv(wide + "_f_unlab.csv", "f", [fc[size:]], "%d"),
    ]))
    # Outcomes and their predictions on a common offset of 1e8, a pool without
    # it: the rectified mean cancels the offset, and a change in how its terms
    # are grouped moves about 1e-8, which the 12 printed digits show.
    y = 1e8 + np.round(rng.standard_normal(n), 6)
    f = np.round(y + 0.5 * rng.standard_normal(n), 6)
    offset = os.path.join(root, "offset")
    offsets = [
        "--labeled", _write_csv(offset + "_lab.csv", "y,x1", [y, x[:n]], "%.6f"),
        "--pred-labeled", _write_csv(offset + "_f_lab.csv", "f", [f], "%.6f"),
        "--pred-unlabeled", _write_csv(offset + "_f_unlab.csv", "f", [x[n:]], "%.6f"),
    ]
    ops += [
        ("estimate-mean ft-ppi offset", ["estimate-mean", "--method", "ft-ppi"] + offsets),
        ("estimate-mean ft-ppi", ["estimate-mean", "--method", "ft-ppi"] + files),
        ("estimate-mean ppi-only", ["estimate-mean", "--method", "ppi-only"] + files),
        ("estimate-mean sample-mean", ["estimate-mean", "--method", "sample-mean",
                                       "--labeled", mean["labeled"]]),
        ("estimate-mean ft-only", ["estimate-mean", "--method", "ft-only",
                                   "--pred-unlabeled", mean["pred_unlabeled"]]),
    ]

    # The benchmark's pool with one fault each, or quoted (read whole, not in
    # parts); every row of the file is still parsed and checked.
    with open(mean["unlabeled"], encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    last, middle = len(lines) - 1, len(lines) // 2
    faults = {
        "bad cell in the last part": (last, lambda line: "oops," + line.split(",", 1)[1]),
        "non-finite cell": (middle, lambda line: "nan," + line.split(",", 1)[1]),
        "row too wide": (middle, lambda line: line.rstrip("\n") + ",0\n"),
        "quoted": (last, lambda line: '"{}",{}'.format(*line.split(",", 1))),
    }
    for name, (row, edit) in faults.items():
        path = os.path.join(root, name.replace(" ", "_") + ".csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:row] + [edit(lines[row])] + lines[row + 1:])
        pool = files[:]
        pool[pool.index("--unlabeled") + 1] = path
        for threads in ("1", "2"):
            ops.append((f"estimate-mean pool {name} threads {threads}",
                        ["estimate-mean", "--threads", threads] + pool))

    sizes = np.array([50, 100, 200, 400, 800, 1600, 3200])
    variances = 2.0 * sizes**-0.7 + 0.1 + rng.normal(0.0, 1e-3, sizes.shape[0])
    observations = _write_csv(os.path.join(root, "observations.csv"), "s,variance",
                              [sizes, variances], ["%d", "%.9f"])
    ops.append(("fit-scaling", ["fit-scaling", "--observations", observations]))
    for budget in ("10000", "1"):  # 1 is below any split: an error
        ops.append((f"allocate n {budget}", ["allocate", "--a", "10.21", "--alpha", "0.21",
                                             "--b", "1.98", "--n", budget, "--sigma-sq", "12.19"]))
    ops.append(("allocate steep law", ["allocate", "--a", "1", "--alpha", "60", "--b", "0.1",
                                       "--n", "1000000"]))
    return ops


def _env(tree: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FTPPI_")}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def _start(tree: str, program: list[str], args: list[str], cwd: str) -> subprocess.Popen:
    os.makedirs(cwd)
    return subprocess.Popen([sys.executable, *program, *args], cwd=cwd, env=_env(tree),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def launcher_failures(trees: list[tuple[str, str]]) -> list[str]:
    """The message of each tree, given as (name, directory), on which the
    full-precision launcher cannot find the rounding it replaces."""
    failures = []
    for name, tree in trees:
        proc = subprocess.run([sys.executable, LAUNCHER, "--version"], env=_env(tree),
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if proc.returncode:
            failures.append(f"{name}: {proc.stderr.strip()}")
    return failures


def _files(cwd: str) -> dict[str, bytes]:
    found = {}
    for where, _, names in os.walk(cwd):
        for name in names:
            path = os.path.join(where, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, cwd)] = fh.read()
    return found


def differences(trees: list[tuple[str, str]], ops, work: str) -> list[str]:
    """Run every operation on every tree, given as (name, directory), on
    both legs, one operation and leg at a time with the trees side by side;
    describe each way a tree's run differs from the first's.  Each
    operation's name and exit code on the first tree go to stderr."""
    names, trees = zip(*trees)
    found = []
    for k, (name, args) in enumerate(ops):
        for leg, (program, tag) in enumerate(LEGS):
            cwds = [os.path.join(work, f"tree{t}", f"leg{leg}", f"op{k}")
                    for t in range(len(trees))]
            procs = [_start(tree, program, args, cwd) for tree, cwd in zip(trees, cwds)]
            runs = []
            for proc, cwd in zip(procs, cwds):
                out, err = proc.communicate()
                runs.append({"exit code": proc.returncode, "stdout": out, "stderr": err,
                             "--out files": _files(cwd)})
            if not leg:
                print(f"{name}: exit {runs[0]['exit code']}", file=sys.stderr)
            for t, other in enumerate(runs[1:], 1):
                for what, value in other.items():
                    if value != runs[0][what]:
                        line = f"{name}: {what}{tag} differs between {names[0]} and {names[t]}"
                        found += _described(line, what, runs[0][what], value)
    return found


#: Differing fields named per output, at most; the rest are counted.
MAX_FIELDS = 10


def _described(line: str, what: str, first, other) -> list[str]:
    """``line``, or one line per field that moved when ``what`` is standard
    output or the ``--out`` files and every differing output parses."""
    if what == "stdout":
        outputs = [("", first, other)]
    elif what == "--out files" and first.keys() == other.keys():
        outputs = [(f" in {path}", first[path], other[path])
                   for path in sorted(first) if first[path] != other[path]]
    else:
        return [line]
    described = []
    for where, a, b in outputs:
        moved = _moved(a, b)
        if not moved:
            return [line]
        for path, x, y in moved[:MAX_FIELDS]:
            field = f"{line}{where} at {path or '(the whole output)'}: {_shown(x)} vs {_shown(y)}"
            if _is_number(x) and _is_number(y):
                field += f", relative difference {abs(x - y) / max(abs(x), abs(y)):.3g}"
            described.append(field)
        if len(moved) > MAX_FIELDS:
            # each of the rest by its top-level name: sigma_hat for sigma_hat[1][0]
            rest = [path.split(".")[0].split("[")[0] or path.split(".")[0]
                    for path, _, _ in moved[MAX_FIELDS:]]
            described.append(f"{line}{where}: and {len(rest)} more fields, "
                             f"in {', '.join(dict.fromkeys(rest))}")
    return described


#: The value of a field that one output has and the other has not.
_ABSENT = object()


def _moved(a: bytes, b: bytes) -> list:
    """(path, value in a, value in b) of every field that differs, or [] when
    either output does not parse as JSON, JSON lines or CSV."""
    parsed = _parsed(a), _parsed(b)
    if None in parsed:
        return []
    first, other = (dict(_leaves(value)) for value in parsed)
    moved = []
    for path in {**first, **other}:
        x, y = first.get(path, _ABSENT), other.get(path, _ABSENT)
        if not (x == y or x != x and y != y):  # NaN is the same as NaN
            moved.append((path, x, y))
    return moved


def _parsed(data: bytes):
    """``data`` parsed as JSON, JSON lines or CSV (a list of rows keyed by the
    header, numbers as floats), or None."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    try:
        return json.loads(text)
    except ValueError:
        pass
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        return [json.loads(line) for line in lines]
    except ValueError:
        pass
    rows = list(csv.reader(lines))
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return None
    return [dict(zip(rows[0], map(_cell, row))) for row in rows[1:]]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(value, path: str = ""):
    """(path, value) of every number, string, boolean or null in a parsed output."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _shown(value) -> str:
    if value is _ABSENT:
        return "absent"
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def extract(ref: str, into: str) -> str:
    """The source tree of ``ref``: the directory itself, or ``git archive ref`` extracted."""
    if os.path.isdir(ref):
        return os.path.abspath(ref)
    target = os.path.join(into, "ref")
    os.makedirs(target)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", target], input=archive, check=True)
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git revision or source directory to compare against")
    parser.add_argument("--tree", default=ROOT, help="source tree to check (default: this one)")
    parser.add_argument("--toy", action="store_true", help="shrink every input")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ftppi-identity-") as tmp:
        trees = [(args.tree, os.path.abspath(args.tree)), (args.ref, extract(args.ref, tmp))]
        failures = launcher_failures(trees)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 2
        os.makedirs(os.path.join(tmp, "inputs"))
        ops = operations(os.path.join(tmp, "inputs"), args.toy)
        found = differences(trees, ops, os.path.join(tmp, "runs"))
    for line in found:
        print(line)
    print(f"{len(ops)} operations, {len(found)} differences", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
