"""Beyond the paper — matcher precision/recall against ground truth.

The paper cannot validate its matching (production telemetry has no
truth labels); the simulator can.  This benchmark scores Exact/RM1/RM2
on the 8-day campaign: exact matching should be (near-)perfectly
precise, and relaxation should trade precision for recall
monotonically.

It also grades the scored RM3 matcher (DESIGN.md §14) on a
*degradation-severity ladder*: the same campaign's raw telemetry is
re-degraded at several severities and every matcher is re-run against
each, producing the precision/recall curves committed in
``benchmarks/results/matching_quality.json``.  The CI gate lives here:
RM3 at its committed default threshold must dominate RM2 on pair F1 at
one or more severities, and its recall must be non-increasing along
the threshold curve.
"""

import numpy as np
from conftest import write_comparison

from repro.core.matching import (
    DEFAULT_RM3_THRESHOLD,
    ExactMatcher,
    RM1Matcher,
    RM2Matcher,
    RM3Matcher,
    evaluate_against_truth,
    recover_unknown_sites,
)
from repro.core.matching.pipeline import MatchingPipeline
from repro.core.matching.subset import SubsetMatcher
from repro.metastore.packsource import PackSource

#: Degradation multipliers for the precision/recall ladder: half,
#: nominal (§4.3 as configured), and double severity.
SEVERITIES = [0.5, 1.0, 2.0]

#: RM3 decision thresholds traced per severity (the committed default
#: must be in the curve so the gate and the curve grade one matcher).
RM3_THRESHOLDS = [0.1, 0.2, DEFAULT_RM3_THRESHOLD, 0.5, 0.65, 0.8]


def _pair_metrics(ev) -> dict:
    return {
        "pair_precision": round(ev.pair_precision, 3),
        "pair_recall": round(ev.pair_recall, 3),
        "pair_f1": round(ev.pair_f1, 3),
        "asserted_pairs": ev.n_asserted_pairs,
        "visible_true_pairs": ev.n_true_pairs_visible,
    }


def test_matching_quality_vs_truth(benchmark, eightday, eightday_report):
    telemetry = eightday.telemetry
    t0, t1 = eightday.harness.window
    jobs = eightday.source.user_jobs_completed_in(t0, t1)
    transfers = eightday.source.transfers_started_in(t0, t1)

    # Also score the subset-sum refinement the paper calls NP-hard and
    # skips (§4.2) — feasible at real candidate-set sizes — and RM3 at
    # its committed default threshold.  Running them through the
    # study's shared pipeline reuses the window artifacts already
    # materialized for the Exact/RM1/RM2 report.
    known = eightday.harness.known_site_names()
    extra_report = eightday.pipeline.run(
        t0, t1, matchers=[SubsetMatcher(known), RM3Matcher(known)])

    def evaluate_all():
        out = {
            m: evaluate_against_truth(
                eightday_report[m], telemetry.ground_truth, jobs, transfers)
            for m in eightday_report.methods
        }
        for m in extra_report.methods:
            out[m] = evaluate_against_truth(
                extra_report[m], telemetry.ground_truth, jobs, transfers)
        return out

    evals = benchmark(evaluate_all)

    assert evals["exact"].pair_precision >= 0.95
    assert (evals["exact"].pair_recall
            <= evals["rm1"].pair_recall
            <= evals["rm2"].pair_recall)
    assert evals["rm2"].pair_recall < 1.0  # degradation caps recall
    # the subset refinement dominates plain exact matching
    assert evals["subset"].pair_recall >= evals["exact"].pair_recall
    assert evals["subset"].pair_precision >= 0.9
    # the scored matcher recovers join-level losses the ladder cannot
    assert evals["rm3"].pair_recall >= evals["rm2"].pair_recall
    assert evals["rm3"].pair_precision >= 0.9

    write_comparison(
        "matching_quality",
        paper={"note": "no ground truth available to the paper"},
        measured={
            "default_window": {
                m: _pair_metrics(e) for m, e in evals.items()
            },
            "severity_ladder": _severity_ladder(eightday),
            "rm3_default_threshold": DEFAULT_RM3_THRESHOLD,
        },
        notes="Extension: scoring Algorithm 1, RM1/RM2, subset-sum, and "
              "the scored RM3 matcher against the simulator's known "
              "job-transfer linkage, across degradation severities.",
    )


def _severity_ladder(eightday) -> dict:
    """Re-degrade the campaign at each severity and grade all matchers.

    Uses a severity-independent rng stream (seed+17) so each rung
    differs only in the configured defect rates, not in the draw
    sequence seeded elsewhere in the study.
    """
    from repro.telemetry.degradation import MetadataDegrader

    harness = eightday.harness
    known = harness.known_site_names()
    t0, t1 = harness.window

    ladder = {}
    for severity in SEVERITIES:
        degrader = MetadataDegrader(
            harness.config.degradation.scaled(severity),
            np.random.default_rng(harness.config.seed + 17),
        )
        tele = degrader.degrade(harness.collector, harness.panda.tasks)
        source = PackSource.from_records(tele.jobs, tele.files, tele.transfers)
        jobs = source.user_jobs_completed_in(t0, t1)
        transfers = source.transfers_started_in(t0, t1)

        matchers = [ExactMatcher(known), RM1Matcher(known), RM2Matcher(known)]
        for th in RM3_THRESHOLDS:
            m = RM3Matcher(known, threshold=th)
            m.name = f"rm3@{th}"
            matchers.append(m)
        report = MatchingPipeline(source, known_sites=known).run(
            t0, t1, matchers=matchers)

        rung = {"methods": {}, "rm3_curve": [], "site_recovery": {}}
        for name in report.methods:
            ev = evaluate_against_truth(
                report[name], tele.ground_truth, jobs, transfers)
            rung["methods"][name] = _pair_metrics(ev)
            if name.startswith("rm3@"):
                rung["rm3_curve"].append({
                    "threshold": float(name.split("@", 1)[1]),
                    **_pair_metrics(ev),
                })
        for name in ("rm2", f"rm3@{DEFAULT_RM3_THRESHOLD}"):
            rec = recover_unknown_sites(report[name], tele.ground_truth)
            rung["site_recovery"][name] = {
                "n_recoverable": rec.n_recoverable,
                "n_correct": rec.n_correct,
                "accuracy": round(rec.accuracy, 3),
            }
        ladder[str(severity)] = rung

    _assert_ladder_gates(ladder)
    return ladder


def _assert_ladder_gates(ladder: dict) -> None:
    """The committed RM3 contract, enforced on every run."""
    default_name = f"rm3@{DEFAULT_RM3_THRESHOLD}"
    wins = 0
    for severity, rung in ladder.items():
        rm2 = rung["methods"]["rm2"]
        rm3 = rung["methods"][default_name]
        if rm3["pair_f1"] > rm2["pair_f1"]:
            wins += 1
        # recall is non-increasing as the decision threshold rises
        curve = sorted(rung["rm3_curve"], key=lambda p: p["threshold"])
        recalls = [p["pair_recall"] for p in curve]
        assert recalls == sorted(recalls, reverse=True), (
            f"severity {severity}: RM3 recall not monotone in threshold")
    assert wins >= 1, (
        "RM3 at its default threshold must beat RM2 on pair F1 at one "
        "or more degradation severities")
