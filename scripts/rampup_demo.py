#!/usr/bin/env python3
"""Run the staged ramp-up once and print the trace and final interval.

Example:
    python3 scripts/rampup_demo.py --world configs/reference_world.json \
        --n 10000 --m 100000 --schedule 100,250,500,1000,2000 --n-v 1000
"""

import argparse
import json

from ftppi.cli import run_guarded
from ftppi.core import RngSeed
from ftppi.rampup import RampUpPlan, rampup_final_estimate, run_rampup
from ftppi.simulate import SimTrainer, generate_world_data, world_from_dict


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--world", required=True, help="world JSON file")
    ap.add_argument("--n", type=int, default=10_000, help="labeled budget")
    ap.add_argument("--m", type=int, default=100_000, help="unlabeled pool size")
    ap.add_argument("--schedule", default="100,250,500,1000,2000")
    ap.add_argument("--n-v", type=int, default=1000, help="measurement holdout size")
    ap.add_argument("--delta", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args()

    with open(args.world, encoding="utf-8") as fh:
        world = world_from_dict(json.load(fh))
    seed = RngSeed(args.seed)
    labeled, unlabeled = generate_world_data(world, args.n, args.m, seed.child(1))
    trainer = SimTrainer(world, seed.child(2))
    plan = RampUpPlan(
        schedule=tuple(int(tok) for tok in args.schedule.split(",")), n_v=args.n_v
    )

    trace = run_rampup(labeled, plan, trainer, seed.child(3))
    print(f"{'stage':>5} {'size':>6} {'resid var':>10} {'s_hat':>8}  decision")
    for rec in trace.records:
        s_hat = f"{rec.s_hat:8.0f}" if rec.s_hat is not None else "       -"
        print(f"{rec.stage:>5} {rec.size:>6} {rec.residual_variance:>10.4f} "
              f"{s_hat}  {rec.decision}")
    if not trace.completed:
        print(f"aborted: {trace.error}")
        return 1

    report = rampup_final_estimate(trace, labeled, unlabeled, trainer, args.delta)
    print()
    print(f"stopped at stage {trace.stop_stage} with {trace.s_final} tuning labels; "
          f"{report.n_ppi} labels left for rectification")
    print(f"estimate {report.estimate:.4f}  "
          f"[{report.ci_low:.4f}, {report.ci_high:.4f}]  (true mean {world.true_mean})")
    return 0


if __name__ == "__main__":
    raise SystemExit(run_guarded(main))
