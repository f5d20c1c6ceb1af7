#!/usr/bin/env python
"""Anomaly hunt: reproduce the paper's case studies automatically.

Runs a campaign, RM2-matches jobs to transfers, then hunts for the
§5.4 anomaly classes — sequential/under-utilized staging (Fig 10),
failed jobs with queue+wall-spanning transfers (Fig 11), redundant
transfer sets with UNKNOWN-site reconstruction (Fig 12 / Table 3) —
prints ASCII timelines for the best exemplar of each, and ends with
prioritised mitigation advice.

Usage::

    python examples/anomaly_hunt.py [--days 3] [--seed 7]
"""

from __future__ import annotations

import argparse

from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.analysis.timeline import (
    find_failed_with_overlap,
    find_high_staging_success,
    find_sequential_underutilized,
)
from repro.core.anomaly.inference import inference_accuracy
from repro.core.anomaly.report import build_anomaly_report
from repro.coopt.policies import advise
from repro.reporting.figures import render_timeline
from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.units import bytes_to_human


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    print(f"Simulating {args.days:g} days (seed {args.seed}) ...")
    study = EightDayStudy(EightDayConfig(seed=args.seed, days=args.days)).run()
    telemetry = study.telemetry
    matches = study.matching_report()["rm2"].matched_jobs()
    print(f"  RM2-matched jobs: {len(matches)}")

    print("\n== Fig 10 analogue: staging-dominated successful job ==")
    fig10 = find_high_staging_success(matches, min_fraction=0.4)
    if fig10:
        print(render_timeline(fig10[0]))
        seq = find_sequential_underutilized(matches, min_spread=2.0)
        print(f"\n  sequential under-utilized jobs in campaign: {len(seq)}")
        if seq:
            print(f"  worst throughput spread: {seq[0].throughput_spread():.1f}x")
    else:
        print("  (none found at this scale — increase --days)")

    print("\n== Fig 11 analogue: failed job with spanning transfer ==")
    fig11 = find_failed_with_overlap(matches)
    if fig11:
        print(render_timeline(fig11[0]))
    else:
        print("  (none found at this scale — increase --days)")

    print("\n== Full anomaly report ==")
    matrix = build_transfer_matrix(
        study.source.columns, study.harness.topology.site_names())
    report = build_anomaly_report(matches, telemetry.transfers, matrix=matrix)
    print(report)

    if report.redundant:
        g = report.redundant[0]
        print(f"\n  Fig 12 analogue: {g.lfn} copied {g.n_copies}x to "
              f"{g.destination} (wasted {bytes_to_human(g.wasted_bytes)})")
    if report.inferences:
        acc = inference_accuracy(report.inferences, telemetry.ground_truth.true_sites)
        print(f"  UNKNOWN-site inferences: {len(report.inferences)} "
              f"(accuracy vs ground truth: {acc:.0%})")
        for inf in report.inferences[:3]:
            print(f"    {inf}")

    print("\n== Mitigation advice (§7 directions, actionable) ==")
    for advice in advise(report):
        print(f"  {advice}")


if __name__ == "__main__":
    main()
