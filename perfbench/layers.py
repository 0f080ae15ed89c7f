"""Layer timings taken from outside the program.

``Tracer.install`` replaces the public functions of each ftppi module
with timing wrappers, in every module namespace that holds them (so the
names ``ftppi.cli`` imported into its own namespace are wrapped too),
and ``uninstall`` puts the originals back.  Each call is a span; a
layer's self time is the sum of its spans minus the spans nested inside
them, so the self times of one run add up to at most its wall time.
Counts are taken at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_MODULES = (
    "ftppi",
    "ftppi.cli",
    "ftppi.core",
    "ftppi.scaling",
    "ftppi.allocate",
    "ftppi.ppi_mean",
    "ftppi.m_estim",
    "ftppi.simulate",
    "ftppi.rampup",
)

# (defining module, function name, layer)
_FUNCTIONS = (
    ("ftppi.core", "read_labeled_csv", "core.csv"),
    ("ftppi.core", "read_unlabeled_csv", "core.csv"),
    ("ftppi.core", "read_predictions_csv", "core.csv"),
    ("ftppi.m_estim", "read_choice_labeled_csv", "core.csv"),
    ("ftppi.m_estim", "read_choice_unlabeled_csv", "core.csv"),
    ("ftppi.simulate", "generate_world_data", "simulate.datagen"),
    ("ftppi.simulate", "_generate_labeled", "simulate.datagen"),
    ("ftppi.simulate", "brute_force_allocation", "simulate.experiment"),
    ("ftppi.simulate", "run_estimator_comparison", "simulate.experiment"),
    ("ftppi.simulate", "bootstrap_robustness", "simulate.experiment"),
    ("ftppi.simulate", "external_ft_experiment", "simulate.experiment"),
    ("ftppi.scaling", "fit_scaling_law", "scaling.fit"),
    ("ftppi.allocate", "solve_optimal_allocation", "allocate.solve"),
    ("ftppi.rampup", "run_rampup", "rampup"),
    ("ftppi.rampup", "rampup_final_estimate", "rampup"),
    ("ftppi.m_estim", "solve_ppi_m_estimator", "m_estim.solve"),
    ("ftppi.m_estim", "sandwich_covariance", "m_estim.sandwich"),
    ("ftppi.m_estim", "m_estimate_ci", "m_estim.ci"),
    ("ftppi.ppi_mean", "ppi_mean_ci", "ppi_mean"),
    ("ftppi.ppi_mean", "ppi_mean_estimate", "ppi_mean"),
    ("ftppi.ppi_mean", "ppi_mean_variance_hat", "ppi_mean"),
    ("ftppi.ppi_mean", "sample_mean_estimate", "ppi_mean"),
    ("ftppi.ppi_mean", "ft_only_report", "ppi_mean"),
    ("ftppi.cli", "render_json", "cli.render"),
    ("ftppi.cli", "render_csv", "cli.render"),
    ("ftppi.cli", "_write_csv_file", "cli.render"),
    ("ftppi.cli", "main", "cli.other"),
)

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


class _PeakRss:
    """Highest resident set size seen while the block runs, sampled every 2 ms."""

    def __enter__(self):
        self.start = self.peak = _rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self) -> None:
        while not self._stop.wait(0.002):
            self.peak = max(self.peak, _rss_bytes())

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())


def _rows_and_columns(result) -> tuple[int, int]:
    if isinstance(result, tuple):  # choice readers return (dataset, K, d)
        result = result[0]
    if isinstance(result, np.ndarray):
        return result.shape[0], 1
    if hasattr(result, "ys"):
        return result.n, result.dim + 1
    return result.m, result.dim


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [layer, time spent in child spans]
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.csv_rss_growth = 0

    # -- spans -------------------------------------------------------------

    def _run(self, layer: str, fn, args, kwargs):
        t0 = time.perf_counter()
        self._stack.append([layer, 0.0])
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            _, children = self._stack.pop()
            self.self_s[layer] += elapsed - children
            if self._stack:
                self._stack[-1][1] += elapsed

    def _current(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, layer: str, fn):
        tracer = self
        if layer == "core.csv":

            @functools.wraps(fn)
            def wrapper(path, *args, **kwargs):
                with _PeakRss() as rss:
                    result = tracer._run(layer, fn, (path,) + args, kwargs)
                rows, cols = _rows_and_columns(result)
                tracer.counts["csv_rows"] += rows
                tracer.counts["csv_cells"] += rows * cols
                tracer.counts["csv_bytes"] += os.path.getsize(path)
                tracer.csv_rss_growth = max(tracer.csv_rss_growth, rss.peak - rss.start)
                return result

            return wrapper

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer._current()
            result = tracer._run(layer, fn, args, kwargs)
            tracer.counts[layer + ".calls"] += 1
            if layer == "ppi_mean" and outer != "ppi_mean":
                tracer.counts["ppi_mean.outer_calls"] += 1
            elif layer == "simulate.experiment":
                bound = signature.bind(*args, **kwargs).arguments
                tracer.counts["replicates"] += (
                    bound["n_datasets"] * bound["n_training_seeds"]
                    if "n_datasets" in bound
                    else bound["replicates"]
                )
            elif fn.__name__ == "run_rampup":
                tracer.counts["rampup_stages"] += len(result.records)
            return result

        return wrapper

    def _counting_loss(self, loss):
        """Count objective and Hessian evaluations made by the Newton solver."""
        tracer = self

        def counted(name, fn):
            def wrapper(*args):
                if tracer._current() == "m_estim.solve":
                    tracer.counts[name] += 1
                return fn(*args)

            return wrapper

        return dataclasses.replace(
            loss,
            batch_loss_mean=counted("batch_loss_mean", loss.batch_loss_mean),
            batch_hessian_mean=counted("batch_hessian_mean", loss.batch_hessian_mean),
        )

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [sys.modules[name] for name in _MODULES]
        replacements = {}
        for module_name, name, layer in _FUNCTIONS:
            original = getattr(sys.modules[module_name], name)
            replacements[id(original)] = (original, self._wrap(layer, original))
        m_estim = sys.modules["ftppi.m_estim"]
        builtin_loss = m_estim.builtin_loss

        @functools.wraps(builtin_loss)
        def traced_builtin_loss(*args, **kwargs):
            return self._counting_loss(builtin_loss(*args, **kwargs))

        replacements[id(builtin_loss)] = (builtin_loss, traced_builtin_loss)
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, hit[1])

        predictor = sys.modules["ftppi.core"].Predictor
        original_on, original_predict = predictor.on, predictor.predict
        tracer = self

        def on(pred, dataset):
            tracer.counts["on_calls"] += 1
            tracer.counts["on_hits"] += pred._cache.get(dataset) is not None
            return tracer._run("core.predict", original_on, (pred, dataset), {})

        def predict(pred, xs):
            tracer.counts["predict_rows"] += np.asarray(xs).shape[0]
            return tracer._run("core.predict", original_predict, (pred, xs), {})

        self._patch(predictor, "on", on)
        self._patch(predictor, "predict", predict)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced since the last reset."""
        s, c = self.self_s, self.counts
        csv_mb = c["csv_bytes"] / 1e6
        return {
            "core.csv_read_s": s["core.csv"],
            "core.csv_rows": c["csv_rows"],
            "core.csv_cells": c["csv_cells"],
            "core.csv_mb_per_s": csv_mb / s["core.csv"] if s["core.csv"] > 0 else 0.0,
            "core.csv_rss_mb": self.csv_rss_growth / 2**20,
            "core.predict_s": s["core.predict"],
            "core.predict_rows": c["predict_rows"],
            "core.on_calls": c["on_calls"],
            "core.on_hit_ratio": c["on_hits"] / c["on_calls"] if c["on_calls"] else 0.0,
            "simulate.datagen_s": s["simulate.datagen"],
            "simulate.experiment_s": s["simulate.experiment"],
            "simulate.replicates": c["replicates"],
            "scaling.fit_calls": c["scaling.fit.calls"],
            "scaling.fit_s": s["scaling.fit"],
            "allocate.solve_calls": c["allocate.solve.calls"],
            "allocate.solve_s": s["allocate.solve"],
            "rampup.run_s": s["rampup"],
            "rampup.stages": c["rampup_stages"],
            "m_estim.solve_s": s["m_estim.solve"],
            # The solver evaluates the rectified Hessian once per Newton
            # iteration, and each rectified evaluation makes three loss calls.
            "m_estim.newton_iters": c["batch_hessian_mean"] / 3,
            "m_estim.objective_evals": c["batch_loss_mean"] / 3,
            "m_estim.sandwich_s": s["m_estim.sandwich"],
            "m_estim.ci_s": s["m_estim.ci"],
            "ppi_mean.self_s": s["ppi_mean"],
            "ppi_mean.calls": c["ppi_mean.outer_calls"],
            "cli.render_s": s["cli.render"],
            "cli.other_s": s["cli.other"],
            "trace.self_sum_s": sum(s.values()),
        }
