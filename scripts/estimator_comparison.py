#!/usr/bin/env python3
"""Compare the rectified estimator against its baselines on one world.

Example:
    python3 scripts/estimator_comparison.py --world configs/reference_world.json \
        --n 2000 --m 20000 --replicates 500
"""

import argparse

from ftppi.cli import _load_json_file, run_guarded
from ftppi.core import RngSeed
from ftppi.simulate import run_estimator_comparison, world_from_dict


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--world", required=True, help="world JSON file")
    ap.add_argument("--n", type=int, default=2000, help="labeled budget")
    ap.add_argument("--m", type=int, default=20_000, help="unlabeled pool size")
    ap.add_argument("--replicates", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args()

    world = world_from_dict(_load_json_file(args.world, "world"))

    report = run_estimator_comparison(
        world, args.n, args.m, replicates=args.replicates, seed=RngSeed(args.seed)
    )

    print(f"true mean {world.true_mean}, split s*={report.s_star} of n={report.n}, "
          f"{report.replicates} replicates")
    print()
    print(f"{'method':<11} {'mean':>10} {'rmse':>10} {'mae':>10} {'variance':>12}")
    for row in report.rows:
        print(f"{row.method:<11} {row.mean_estimate:>10.4f} {row.rmse:>10.4f} "
              f"{row.mae:>10.4f} {row.variance:>12.6g}")
    print()
    print(f"variance reduction vs sample mean: {report.variance_reduction:.3f}")
    print(f"equivalent sample savings:         {report.sample_savings:.3f}")
    print(f"analytic prediction:               {report.analytic_variance_reduction:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_guarded(main))
