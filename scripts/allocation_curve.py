#!/usr/bin/env python3
"""Sweep the labeled split on a synthetic world and compare with the solver.

Example:
    python3 scripts/allocation_curve.py --world configs/reference_world.json \
        --n 4000 --m 40000 --replicates 100 --seed 18
"""

import argparse

import numpy as np

from ftppi.allocate import solve_optimal_allocation
from ftppi.cli import _load_json_file, run_guarded
from ftppi.core import RngSeed
from ftppi.simulate import brute_force_allocation, world_from_dict


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--world", required=True, help="world JSON file")
    ap.add_argument("--n", type=int, default=4000, help="labeled budget")
    ap.add_argument("--m", type=int, default=40_000, help="unlabeled pool size")
    ap.add_argument("--grid-step", type=float, default=0.05)
    ap.add_argument("--replicates", type=int, default=100)
    ap.add_argument("--seed", type=int, default=18)
    args = ap.parse_args()

    world = world_from_dict(_load_json_file(args.world, "world"))

    solved = solve_optimal_allocation(world.law, args.n, sigma_sq=world.var_y)
    curve = brute_force_allocation(
        world, args.n, args.m,
        grid_step=args.grid_step, replicates=args.replicates, seed=RngSeed(args.seed),
    )
    best = int(np.argmin(curve.variances))

    print(f"world law: a={world.law.a} alpha={world.law.alpha} b={world.law.b}")
    print(f"solver: s*={solved.s_star_int} fraction={solved.fraction:.4f} "
          f"feasible={solved.feasible}")
    print()
    print(f"{'fraction':>9}  {'mc variance':>12}")
    for i, (frac, var) in enumerate(zip(curve.fractions, curve.variances)):
        marker = "  <- grid argmin" if i == best else ""
        print(f"{frac:>9.2f}  {var:>12.6g}{marker}")
    gap = abs(curve.fractions[best] - solved.fraction)
    print()
    print(f"grid argmin is {gap:.4f} from the solver fraction "
          f"(one grid step = {args.grid_step})")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_guarded(main))
