"""Seeded inputs for the benchmark workloads.

Every file the program reads is written here, into a fresh directory,
from the workload seed alone.  Numbers are quantized to six decimals
before they are written, so the arrays kept in memory are exactly the
doubles the program parses back; the output checks compare against
those arrays.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# The two worlds shipped in configs/, restated here so that the program
# sees only files the benchmark wrote.
REFERENCE_WORLD = {
    "true_mean": 3.0,
    "var_y": 9.06,
    "feature_dim": 1,
    "law": {"a": 10.21, "alpha": 0.21, "b": 1.98},
    "bias": {"kind": "zero", "value": 0.0},
    "s_min": 10,
    "noise_floor": None,
}
DRIFTING_WORLD = {
    "true_mean": 0.8,
    "var_y": 0.25,
    "feature_dim": 1,
    "law": {"a": 2.0, "alpha": 0.7, "b": 0.1},
    "bias": {"kind": "drifting", "value": 0.1},
    "s_min": 50,
    "noise_floor": 0.02,
}

# csv-mean: labeled rows, pool rows, feature dimension.
MEAN_N, MEAN_M, MEAN_D = 2_000, 500_000, 2
# csv-mnl: labeled rows, pool rows, options K, features per option d.
MNL_N, MNL_M, MNL_K, MNL_D = 5_000, 100_000, 5, 4
MNL_THETA = np.array([0.8, -0.5, 0.3, 0.1])
# sim-oracle: labeled budget, fixed pool, grid step, replicates.
ORACLE = {"n": 2_000, "m": 100_000, "grid_step": 0.05, "replicates": 20}
# sim-fresh: one simulate scenario plus a completed and a failing ramp-up.
FRESH = {
    "n": 2_000,
    "m": 20_000,
    "comparison": {"replicates": 100},
    "bootstrap": {"n_datasets": 10, "n_training_seeds": 10, "resamples": 200},
    "external": {"strength": 0.5, "replicates": 100},
}
RAMPUP = {"n": 5_000, "m": 20_000, "schedule": (50, 100, 200, 400, 800), "n_v": 500}
# The fault kept on purpose: stage 1 (size 10) is below the drifting
# world's s_min of 50, so the trainer refuses it.  Its inputs never
# depend on the seed.
RAMPUP_FAULT_ARGS = [
    "--n", "5000", "--m", "10000", "--schedule", "10,100,200,400", "--n-v", "500",
]

_WORKLOAD_TAGS = {"csv-mean": 1, "csv-mnl": 2, "sim-oracle": 3, "sim-fresh": 4}


@dataclass
class Inputs:
    """Paths the program is given plus the arrays the checks compare against."""

    files: dict[str, str] = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _WORKLOAD_TAGS[workload]]))


def _quantize(values: np.ndarray) -> np.ndarray:
    # q / 1e6 is the correctly rounded double of the decimal "%.6f" prints,
    # so the program parses back exactly these values.
    return np.rint(values * 1e6) / 1e6


def _write_csv(path: str, header: list[str], columns: list[np.ndarray], fmts: list[str]) -> None:
    """One ``str.format`` per row; several times faster than ``np.savetxt``."""
    row = ",".join("{:" + f + "}" for f in fmts)
    body = "\n".join(map(row.format, *(c.tolist() for c in columns)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n" + body + "\n")


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def make_csv_mean(seed: int, root: str) -> Inputs:
    rng = _rng("csv-mean", seed)
    n, m, d = MEAN_N, MEAN_M, MEAN_D
    xs = rng.standard_normal((n + m, d))
    signal = 2.0 * xs[:, 0] + 0.5 * xs[:, 1]
    y = _quantize(1.5 + signal[:n] + rng.standard_normal(n))
    # A biased surrogate: right direction, wrong offset and scale.
    f = _quantize(1.7 + 0.95 * signal + 0.5 * rng.standard_normal(n + m))
    xs = _quantize(xs)
    inp = Inputs(arrays={"y": y, "f_lab": f[:n], "f_pool": f[n:]})
    names = [f"x{j + 1}" for j in range(d)]
    spec = [
        ("labeled", ["y"] + names, [y] + [xs[:n, j] for j in range(d)]),
        ("pred_labeled", ["f"], [f[:n]]),
        ("unlabeled", names, [xs[n:, j] for j in range(d)]),
        ("pred_unlabeled", ["f"], [f[n:]]),
    ]
    for key, header, columns in spec:
        path = os.path.join(root, f"{key}.csv")
        _write_csv(path, header, columns, [".6f"] * len(columns))
        inp.files[key] = path
    return inp


def _mnl_choices(X: np.ndarray, theta: np.ndarray, gumbel: np.ndarray) -> np.ndarray:
    """Utility-maximizing choice in 0..K; option 0 has utility 0."""
    utilities = np.concatenate([np.zeros((X.shape[0], 1)), X @ theta], axis=1)
    return np.argmax(utilities + gumbel, axis=1)


def make_csv_mnl(seed: int, root: str) -> Inputs:
    rng = _rng("csv-mnl", seed)
    n, m, K, d = MNL_N, MNL_M, MNL_K, MNL_D
    X = _quantize(rng.standard_normal((n + m, K, d)))
    gumbel = rng.gumbel(size=(n + m, K + 1))
    y = _mnl_choices(X[:n], MNL_THETA, gumbel[:n])
    # The surrogate shares the labeled rows' taste shocks, so its hard
    # labels agree with the truth more often than chance.
    f = _mnl_choices(X, 0.8 * MNL_THETA, gumbel)
    inp = Inputs(arrays={"X_lab": X[:n], "y": y, "X_pool": X[n:], "f_lab": f[:n], "f_pool": f[n:]})
    names = [f"x_{k + 1}_{j + 1}" for k in range(K) for j in range(d)]
    flat = X.reshape(n + m, K * d)
    features = [".6f"] * (K * d)
    spec = [
        ("labeled", ["choice"] + names, [y] + list(flat[:n].T), ["d"] + features),
        ("pred_labeled", ["f"], [f[:n]], ["d"]),
        ("unlabeled", names, list(flat[n:].T), features),
        ("pred_unlabeled", ["f"], [f[n:]], ["d"]),
    ]
    for key, header, columns, fmts in spec:
        path = os.path.join(root, f"{key}.csv")
        _write_csv(path, header, columns, fmts)
        inp.files[key] = path
    return inp


def _scenario_seed(workload: str, seed: int) -> int:
    return int(np.random.SeedSequence([seed, _WORKLOAD_TAGS[workload]]).generate_state(1)[0])


def make_sim_oracle(seed: int, root: str) -> Inputs:
    scenario = {
        "world": REFERENCE_WORLD,
        "n": ORACLE["n"],
        "m": ORACLE["m"],
        "seed": _scenario_seed("sim-oracle", seed),
        "allocation_curve": {"grid_step": ORACLE["grid_step"], "replicates": ORACLE["replicates"]},
    }
    path = os.path.join(root, "scenario.json")
    _write_json(path, scenario)
    return Inputs(files={"scenario": path}, params=scenario)


def make_sim_fresh(seed: int, root: str) -> Inputs:
    scenario_seed = _scenario_seed("sim-fresh", seed)
    scenario = {
        "world": DRIFTING_WORLD,
        "n": FRESH["n"],
        "m": FRESH["m"],
        "seed": scenario_seed,
        "comparison": FRESH["comparison"],
        "bootstrap": FRESH["bootstrap"],
        "external": FRESH["external"],
    }
    inp = Inputs(params={"scenario": scenario, "rampup": dict(RAMPUP, seed=scenario_seed % 2**31)})
    for key, obj in (("scenario", scenario), ("world", DRIFTING_WORLD)):
        path = os.path.join(root, f"{key}.json")
        _write_json(path, obj)
        inp.files[key] = path
    return inp


MAKERS = {
    "csv-mean": make_csv_mean,
    "csv-mnl": make_csv_mnl,
    "sim-oracle": make_sim_oracle,
    "sim-fresh": make_sim_fresh,
}
