#!/usr/bin/env python3
"""Benchmark of the ftppi command line.

    python3 perfbench/run.py --workload csv-mean --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The benchmark writes its seeded
inputs into a fresh directory under ``.perfbench_tmp/``, then repeats
passes over the workload's fixed list of CLI operations until
``--seconds`` have elapsed.  Every operation is a fresh
``python3 -m ftppi`` process, started one at a time, timed from spawn to
exit and checked against the benchmark's own computation (see
``checks.py``).  The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics ``setup_s`` (median time of
  ``ftppi --version``), ``wall_s`` (median time of one pass) and
  ``peak_rss_mb`` (median over passes of the largest peak RSS of a
  child).  The two times are scaled to a nominal machine speed
  by reference timings taken between passes (see ``_at_nominal_speed``);
  the raw medians are printed on the line before.
* ``--trace 1``: the same operations run in this process through
  ``ftppi.cli.main``, alternating untraced passes with passes traced by
  ``layers.Tracer``; the per-layer metrics are medians over traced passes.

See README.md in this directory for the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
FTPPI = [sys.executable, "-m", "ftppi"]
# Two references that own no repository code time how fast the shared
# machine runs at the moment: a process that starts the interpreter and
# imports numpy (for set-up), and an in-process kernel (for passes).
# NOMINAL_* are their times on an unloaded core of the machine in README.md.
REFERENCE = [sys.executable, "-c", "import numpy"]
NOMINAL_REFERENCE_S = 0.12
NOMINAL_KERNEL_S = 0.15
IMPORT_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import ftppi.cli; print(time.perf_counter() - t)"


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class Op:
    """One CLI invocation and the check its output must pass."""

    args: list[str]
    check: Callable[[inputs.Inputs, checks.Result], None]
    out_dir: str | None = None


def build_ops(workload: str, inp: inputs.Inputs, tmp: str) -> list[Op]:
    f = inp.files
    if workload == "csv-mean":
        return [Op(["estimate-mean", "--labeled", f["labeled"], "--pred-labeled", f["pred_labeled"],
                    "--unlabeled", f["unlabeled"], "--pred-unlabeled", f["pred_unlabeled"]],
                   checks.check_csv_mean)]
    if workload == "csv-mnl":
        return [Op(["estimate-m", "--loss", "mnl", "--labeled", f["labeled"],
                    "--pred-labeled", f["pred_labeled"], "--unlabeled", f["unlabeled"],
                    "--pred-unlabeled", f["pred_unlabeled"]], checks.check_csv_mnl)]
    out = os.path.join(tmp, "out")
    if workload == "sim-oracle":
        return [Op(["simulate", "--scenario", f["scenario"], "--out", out],
                   checks.check_sim_oracle, out)]
    ramp = inp.params["rampup"]
    return [
        Op(["simulate", "--scenario", f["scenario"], "--out", out], checks.check_simulate_fresh, out),
        Op(["rampup", "--world", f["world"], "--n", str(ramp["n"]), "--m", str(ramp["m"]),
            "--schedule", ",".join(map(str, ramp["schedule"])), "--n-v", str(ramp["n_v"]),
            "--seed", str(ramp["seed"])], checks.check_rampup),
        Op(["rampup", "--world", f["world"]] + inputs.RAMPUP_FAULT_ARGS, checks.check_rampup_fault),
    ]


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FTPPI_")}
    env["PYTHONPATH"] = SRC
    return env


def _clear(out_dir: str | None) -> None:
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)


class Tally:
    """Operations attempted and failed; a wrong output from an operation
    that exited 0 also makes the run incorrect."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.correct = True

    def record(self, op: Op, inp: inputs.Inputs, result: checks.Result) -> None:
        self.attempted += 1
        try:
            op.check(inp, result)
        # Output the checks cannot even parse is a wrong output too.
        except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            self.failed += 1
            if result.returncode == 0:
                self.correct = False
                print(f"check failed: {op.args[0]}: {exc!r}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Untraced: one child process per operation
# ---------------------------------------------------------------------------


def _watch_peak_rss(pid: int, peak: list[float], done: threading.Event) -> None:
    """Keep peak[0] at the child's VmHWM in MB until ``done`` is set."""
    while not done.wait(0.005):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak[0] = int(line.split()[1]) / 1024
        except OSError:
            return


def spawn(argv: list[str], tmp: str) -> tuple[float, checks.Result, float, float]:
    """Run one child process; returns (wall s, result, peak RSS MB, CPU s).

    The peak is the child's own VmHWM, sampled every 5 ms.  ``ru_maxrss``
    from ``os.wait4`` would not do: Linux folds the parent's memory, which
    the child shares until exec, into it.
    """
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    peak, done = [0.0], threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=_child_env(), cwd=tmp)
        watcher = threading.Thread(target=_watch_peak_rss, args=(proc.pid, peak, done))
        watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            done.set()
            watcher.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh_out, open(err_path, encoding="utf-8") as fh_err:
        result = checks.Result(proc.returncode, fh_out.read(), fh_err.read())
    return wall, result, peak[0], usage.ru_utime + usage.ru_stime


def _probe(argv: list[str], tmp: str) -> float:
    wall, result, _, _ = spawn(argv, tmp)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed: {result.stderr.strip()}")
    return wall


class Kernel:
    """Fixed work shaped like the program's: CSV text parsed to floats
    with the csv module, and a sort over a 32 MB array."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.text = "\n".join(map("{:.6f},{:.6f},{:.6f},{:.6f}".format,
                                  *rng.standard_normal((4, 60_000)).tolist()))
        self.array = rng.standard_normal(4_000_000)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        rows = [[float(cell) for cell in row] for row in csv.reader(io.StringIO(self.text))]
        np.sort(self.array)
        del rows
        return time.perf_counter() - t0


def _at_nominal_speed(times: list[float], refs: list[float], nominal: float) -> list[float]:
    """Scale each time by how much faster than usual the machine ran then:
    refs[i] and refs[i + 1] are the reference times just before and after
    times[i]."""
    return [t * 2 * nominal / (before + after) for t, before, after in zip(times, refs, refs[1:])]


def measure_untraced(workload, inp, ops, tmp, seconds) -> tuple[dict, Tally]:
    _probe(FTPPI + ["--version"], tmp)  # let bytecode caches fill before timing
    tally = Tally()
    kernel = Kernel()
    refs, kernels = [_probe(REFERENCE, tmp)], [kernel.seconds()]
    setup, walls, rss, cpu = [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        # One set-up probe per pass spreads the probes over the whole run.
        setup.append(_probe(FTPPI + ["--version"], tmp))
        pass_wall = pass_rss = pass_cpu = 0.0
        for op in ops:
            _clear(op.out_dir)
            wall, result, op_rss, op_cpu = spawn(FTPPI + op.args, tmp)
            result.out_dir = op.out_dir
            tally.record(op, inp, result)
            pass_wall += wall
            pass_rss = max(pass_rss, op_rss)
            pass_cpu += op_cpu
        walls.append(pass_wall)
        rss.append(pass_rss)
        cpu.append(pass_cpu)
        refs.append(_probe(REFERENCE, tmp))
        kernels.append(kernel.seconds())

    median = statistics.median
    print(f"{workload}: {len(walls)} passes of {len(ops)} operations; raw medians: "
          f"wall {median(walls):.4f} s, setup {median(setup):.4f} s, reference "
          f"{median(refs):.4f} s, kernel {median(kernels):.4f} s, cpu {median(cpu):.4f} s")
    metrics = {
        "setup_s": median(_at_nominal_speed(setup, refs, NOMINAL_REFERENCE_S)),
        "wall_s": median(_at_nominal_speed(walls, kernels, NOMINAL_KERNEL_S)),
        "peak_rss_mb": median(rss),
    }
    return metrics, tally


# ---------------------------------------------------------------------------
# Traced: the same operations in this process
# ---------------------------------------------------------------------------


def _import_seconds(tmp: str) -> float:
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(cmd, env=_child_env(), cwd=tmp, check=True, capture_output=True)
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(cmd, env=_child_env(), cwd=tmp, check=True,
                              capture_output=True, text=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def run_in_process(cli, op: Op) -> tuple[float, checks.Result]:
    _clear(op.out_dir)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.args)
        except Exception:  # an uncaught error is a failed operation, as in a child
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - t0
    return wall, checks.Result(code, out.getvalue(), err.getvalue(), op.out_dir)


def _output_bytes(result: checks.Result) -> int:
    size = len(result.stdout.encode())
    if result.out_dir and os.path.isdir(result.out_dir):
        size += sum(e.stat().st_size for e in os.scandir(result.out_dir))
    return size


def measure_traced(workload, inp, ops, tmp, seconds) -> tuple[dict, Tally]:
    import_s = _import_seconds(tmp)
    sys.path.insert(0, SRC)
    import ftppi.cli as cli
    import layers

    tracer = layers.Tracer()
    tally = Tally()
    untraced, untraced_cpu, traced, layer_runs = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        cpu0, pass_wall = time.process_time(), 0.0
        for op in ops:
            wall, result = run_in_process(cli, op)
            tally.record(op, inp, result)
            pass_wall += wall
        untraced.append(pass_wall)
        untraced_cpu.append(time.process_time() - cpu0)

        tracer.reset()
        tracer.install()
        pass_wall, output_bytes = 0.0, 0
        try:
            for op in ops:
                wall, result = run_in_process(cli, op)
                tally.record(op, inp, result)
                pass_wall += wall
                output_bytes += _output_bytes(result)
        finally:
            tracer.uninstall()
        pass_metrics = tracer.metrics()
        if pass_metrics["trace.self_sum_s"] > pass_wall:
            raise RuntimeError(f"self times {pass_metrics['trace.self_sum_s']} exceed wall {pass_wall}")
        pass_metrics["cli.output_bytes"] = output_bytes
        traced.append(pass_wall)
        layer_runs.append(pass_metrics)

    metrics = {name: statistics.median(p[name] for p in layer_runs) for name in layer_runs[0]}
    metrics["cli.import_s"] = import_s
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["proc.cpu_s"] = statistics.median(untraced_cpu)
    print(f"{workload}: {len(traced)} traced and {len(untraced)} untraced passes")
    for name, unit in metric_units("per_layer").items():
        print(f"  {name:26s} {metrics[name]:>14.6g} {unit}")
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ftppi", "cli.py")):
        print(f"no ftppi sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2

    os.makedirs(SCRATCH, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        inp = inputs.MAKERS[args.workload](args.seed, tmp)
        ops = build_ops(args.workload, inp, tmp)
        measure = measure_traced if args.trace else measure_untraced
        metrics, tally = measure(args.workload, inp, ops, tmp, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)

    units = metric_units("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
