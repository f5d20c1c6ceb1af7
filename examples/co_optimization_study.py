#!/usr/bin/env python
"""Co-optimization study: locality-only vs shared-awareness brokerage.

§3.1 of the paper observes that PanDA's "send the job to its data"
heuristic can overload compute at data-rich sites, and §7 calls for
adaptive strategies where PanDA and Rucio share performance awareness.
This example runs the same seeded campaign on two rungs of the
co-optimization ladder (:mod:`repro.coopt`): ``baseline``, the
locality heuristic, and ``aware``, the broker fed by awareness folded
from the degraded telemetry stream.  It reports the trade: queuing
delay, success rate, load balance across sites, remote movement
volume, and the §3.1 shift in failure composition.

Usage::

    python examples/co_optimization_study.py [--days 1.5] [--seed 11]
"""

from __future__ import annotations

import argparse

from repro.coopt import ControlLoop
from repro.core.analysis.errors import compare_error_mixes
from repro.reporting.tables import render_table
from repro.scenarios.runtime import HarnessConfig
from repro.workload.generator import WorkloadConfig

#: ladder rung -> the broker it stands for
RUNGS = {"baseline": "locality", "aware": "coopt"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--tasks-per-hour", type=float, default=8.0)
    args = parser.parse_args()

    cfg = HarnessConfig(
        seed=args.seed,
        workload=WorkloadConfig(
            duration=args.days * 86400.0,
            analysis_tasks_per_hour=args.tasks_per_hour,
            production_tasks_per_hour=1.0,
            background_transfers_per_hour=60.0,
        ),
    )
    print(f"Running the same {args.days:g}-day campaign under both brokers ...")
    loops = {policy: ControlLoop(cfg, policy) for policy in RUNGS}
    for loop in loops.values():
        loop.run()
    base, aware = loops["baseline"].result, loops["aware"].result

    rows = [
        [
            f"{RUNGS[r.policy]} ({r.policy})",
            r.n_jobs,
            f"{r.success_rate:.1%}",
            f"{r.queue_mean:.0f}s",
            f"{r.queue_p95:.0f}s",
            f"{r.remote_bytes / 1e12:.2f} TB",
            f"{r.load_imbalance:.4f}",
        ]
        for r in (base, aware)
    ]
    print(render_table(
        ["broker", "jobs", "success", "mean queue", "p95 queue",
         "remote volume", "load imbalance"],
        rows,
    ))

    speedup = base.queue_mean / aware.queue_mean if aware.queue_mean else 1.0
    gain = 1.0 - aware.load_imbalance / base.load_imbalance if base.load_imbalance else 0.0
    print(f"\nqueue speedup (locality/coopt) : {speedup:.2f}x")
    print(f"load-balance gain              : {gain:+.0%}")

    shift = compare_error_mixes(
        loops["baseline"].harness.panda.terminal_jobs(),
        loops["aware"].harness.panda.terminal_jobs(),
    )
    print("\nfailure composition (locality -> coopt):")
    print(shift.summary())
    print(
        "\nReading: co-optimization trades extra remote movement for\n"
        "smoother site loads — exactly the §3.1 tension ('minimizing input\n"
        "data movement reduces network traffic but can overload compute\n"
        "resources at a single site')."
    )


if __name__ == "__main__":
    main()
