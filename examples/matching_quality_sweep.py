#!/usr/bin/env python
"""Matching quality vs metadata quality — an experiment the paper could
not run.

§5.5 concludes that better analysis will mostly come from better
metadata.  Because the simulator keeps ground truth, we can quantify
that: sweep the degradation intensity (site-label loss, size
imprecision, identifier loss) from pristine to worse-than-production
and measure each matcher's precision/recall at every level.

Usage::

    python examples/matching_quality_sweep.py [--days 1.5] [--seed 3] [--workers 4]
"""

from __future__ import annotations

import argparse

from repro.core.matching import RM3Matcher
from repro.core.matching.evaluation import evaluate_against_truth
from repro.core.matching.pipeline import MatchingPipeline
from repro.exec.executor import make_executor
from repro.metastore.packsource import PackSource
from repro.reporting.tables import render_table
from repro.rucio.activities import TransferActivity
from repro.scenarios.runtime import HarnessConfig, SimulationHarness
from repro.telemetry.degradation import DegradationConfig, MetadataDegrader
from repro.workload.generator import WorkloadConfig


def scaled_config(intensity: float) -> DegradationConfig:
    """Scale every defect probability of the default config."""
    base = DegradationConfig()

    def scale(d):
        return {k: min(1.0, v * intensity) for k, v in d.items()}

    return DegradationConfig(
        p_drop_transfer=min(1.0, base.p_drop_transfer * intensity),
        p_drop_file=min(1.0, base.p_drop_file * intensity),
        p_drop_jeditaskid=scale(base.p_drop_jeditaskid),
        p_unknown_destination=scale(base.p_unknown_destination),
        p_unknown_source=scale(base.p_unknown_source),
        p_size_imprecise=scale(base.p_size_imprecise),
        p_drop_jeditaskid_default=min(1.0, base.p_drop_jeditaskid_default * intensity),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workers", type=int, default=1,
                        help="processes for the matching executor")
    args = parser.parse_args()
    executor = make_executor(args.workers)

    print(f"Simulating {args.days:g} days once (seed {args.seed}) ...")
    harness = SimulationHarness(HarnessConfig(
        seed=args.seed,
        workload=WorkloadConfig(
            duration=args.days * 86400.0,
            analysis_tasks_per_hour=10.0,
            production_tasks_per_hour=1.0,
            background_transfers_per_hour=60.0,
        ),
    ))
    harness.run()
    t0, t1 = harness.window
    known = harness.known_site_names()

    rows = []
    for intensity in (0.0, 0.5, 1.0, 2.0, 4.0):
        degrader = MetadataDegrader(
            scaled_config(intensity), harness.rngs.get(f"sweep-{intensity}"))
        telemetry = degrader.degrade(harness.collector, harness.panda.tasks)
        source = PackSource.from_records(
            telemetry.jobs, telemetry.files, telemetry.transfers
        )
        pipeline = MatchingPipeline(source, known_sites=known)
        report = pipeline.run(t0, t1, executor=executor)
        rm3_report = pipeline.run(
            t0, t1, matchers=[RM3Matcher(known)], executor=executor)
        jobs = source.user_jobs_completed_in(t0, t1)
        transfers = source.transfers_started_in(t0, t1)
        for rep in (report, rm3_report):
            for method in rep.methods:
                ev = evaluate_against_truth(
                    rep[method], telemetry.ground_truth, jobs, transfers)
                rows.append([
                    f"{intensity:g}x", method,
                    rep[method].n_matched_jobs,
                    f"{ev.pair_precision:.3f}",
                    f"{ev.pair_recall:.3f}",
                    f"{ev.pair_f1:.3f}",
                ])

    print("\n== matcher quality vs degradation intensity ==")
    print(render_table(
        ["degradation", "method", "matched jobs", "precision", "recall", "f1"],
        rows))
    print(
        "\nReading: at 0x (pristine metadata) exact matching recovers nearly\n"
        "all linkage; production-grade degradation (1x) collapses recall to\n"
        "a few tens of percent while precision stays high — supporting the\n"
        "paper's §5.5 position that metadata quality, not algorithmics, is\n"
        "the binding constraint.  The scored rm3 matcher claws much of that\n"
        "recall back by joining without byte-exact sizes and thresholding a\n"
        "per-candidate likelihood instead (DESIGN.md §14)."
    )


if __name__ == "__main__":
    main()
