#!/usr/bin/env python
"""Quickstart: simulate a campaign, match jobs to transfers, print the
paper's headline tables.

Runs a 2-day (default) PanDA/Rucio campaign on the 111-site WLCG-like
grid, degrades the telemetry the way production metadata is degraded,
runs Exact/RM1/RM2 matching, and prints Table 1, Table 2, and the §5.1
headline statistics.

Usage::

    python examples/quickstart.py [--days 2] [--seed 2025]
"""

from __future__ import annotations

import argparse

from repro.core.analysis.summary import (
    activity_breakdown,
    headline_stats,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.reporting.tables import render_activity_table, render_method_tables
from repro.scenarios.eightday import EightDayConfig, EightDayStudy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=2.0, help="campaign length")
    parser.add_argument("--seed", type=int, default=2025)
    args = parser.parse_args()

    print(f"Simulating a {args.days:g}-day campaign (seed {args.seed}) ...")
    study = EightDayStudy(EightDayConfig(seed=args.seed, days=args.days)).run()

    harness = study.harness
    print(f"  sites            : {harness.topology.n_sites}")
    print(f"  jobs completed   : {harness.collector.n_jobs}")
    print(f"  transfer events  : {harness.collector.n_transfers}")

    telemetry = study.telemetry
    print(f"  degraded records : {len(telemetry.transfers)} transfers "
          f"({telemetry.n_transfers_with_taskid} with jeditaskid), "
          f"{len(telemetry.files)} file rows, {len(telemetry.jobs)} job rows")

    report = study.matching_report()
    stats = headline_stats(report)
    print("\n== §5.1 headline (exact matching) ==")
    print(f"  matched transfers : {stats.n_matched_transfers} "
          f"({stats.transfer_match_pct:.2f}% of transfers with jeditaskid)")
    print(f"  matched jobs      : {stats.n_matched_jobs} "
          f"({stats.job_match_pct:.2f}% of user jobs)")
    print(f"  transfer share of queue time: mean {stats.mean_transfer_pct:.2f}%, "
          f"geomean {stats.geomean_transfer_pct:.3f}%")

    print("\n== Table 1: matched transfers by activity ==")
    print(render_activity_table(activity_breakdown(report["exact"], study.source.columns)))

    print("\n== Table 2: matching methods compared ==")
    print(render_method_tables(
        method_comparison_transfers(report),
        method_comparison_jobs(report),
        report.n_transfers_with_taskid,
        report.n_jobs,
    ))


if __name__ == "__main__":
    main()
