"""Command-line interface.

``python -m repro <command>`` exposes the main workflows:

* ``simulate`` — run a campaign, print population statistics;
* ``match`` — campaign + Exact/RM1/RM2 matching, print Tables 1-2;
* ``analyze`` — the full §5 analysis batch (headline, Fig-9 sweep,
  temporal profiles, site dashboards), fanned across the persistent
  worker pool when ``--workers`` > 1;
* ``sweep`` — window-sensitivity curve via the (optionally parallel)
  sweep executor;
* ``stream`` — replay the campaign window through the streaming
  dataplane (``repro.stream``) in micro-batches and verify the
  accumulated matches are bit-identical to the batch pipeline;
* ``anomalies`` — campaign + anomaly report + mitigation advice;
* ``scale`` — walk the 10x scale ladder (3.6k → 36k → … → ~1M jobs)
  and write per-rung throughput / peak-RSS / shard-count artifacts;
* ``serve`` — run the multi-tenant match service (``repro.serve``)
  under one open-loop Poisson session, print latency / shed / hit
  statistics;
* ``serve-bench`` — drive the service through a ladder of offered
  loads and write the p50/p95/p99 + shed-rate saturation artifact;
* ``growth`` — print the Fig 2 cumulative-volume series;
* ``export`` — dump degraded telemetry and matching results to files.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.analysis.summary import (
    activity_breakdown,
    headline_stats,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.core.anomaly.inference import inference_accuracy
from repro.core.anomaly.report import build_anomaly_report
from repro.coopt.policies import advise
from repro.reporting.export import rows_to_csv, to_json_file
from repro.reporting.tables import render_activity_table, render_method_tables, render_table
from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.scenarios.growth import GrowthModel
from repro.units import EB, bytes_to_human


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--days", type=float, default=2.0, help="campaign length (days)")
    p.add_argument("--seed", type=int, default=2025, help="root random seed")
    p.add_argument("--intensity", type=float, default=1.0, help="arrival-rate scale")
    p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="processes for the matching executor (1 = serial; results "
             "are identical either way)")
    p.add_argument(
        "--obs", action="store_true",
        help="collect spans and metrics while running and print a "
             "per-stage summary to stderr (results are unaffected)")
    p.add_argument(
        "--methods", default="exact,rm1,rm2", metavar="LIST",
        help="comma-separated matching methods for match/stream "
             "(exact, rm1, rm2, rm3, subset; default %(default)s)")
    p.add_argument(
        "--rm3-threshold", type=float, default=None, metavar="P",
        help="decision threshold for the rm3 scored matcher "
             "(default: the committed calibration)")


def _study(args) -> EightDayStudy:
    from repro.obs import Obs

    cfg = EightDayConfig(seed=args.seed, days=args.days, intensity=args.intensity)
    obs = Obs.collecting() if getattr(args, "obs", False) else None
    args.obs_bundle = obs
    print(f"simulating {args.days:g} days (seed {args.seed}) ...", file=sys.stderr)
    return EightDayStudy(cfg, obs=obs).run()


def _matchers(args, study: EightDayStudy):
    """Matcher instances for ``--methods``, or None for the default ladder.

    Returning None keeps the study's cached default report usable; an
    explicit list always runs fresh (see ``EightDayStudy.matching_report``).
    """
    from repro.exec.executor import make_matchers

    names = [s.strip() for s in args.methods.split(",") if s.strip()]
    if names == ["exact", "rm1", "rm2"] and args.rm3_threshold is None:
        return None
    return make_matchers(
        names,
        known_sites=study.harness.known_site_names(),
        rm3_threshold=args.rm3_threshold,
    )


def cmd_simulate(args) -> int:
    study = _study(args)
    harness = study.harness
    telemetry = study.telemetry
    print(f"sites                : {harness.topology.n_sites}")
    print(f"jobs completed       : {harness.collector.n_jobs}")
    print(f"transfer events      : {harness.collector.n_transfers}")
    print(f"tape recalls         : {harness.tape.completed if harness.tape else 0}")
    print(f"degraded transfers   : {len(telemetry.transfers)} "
          f"({telemetry.n_transfers_with_taskid} with jeditaskid)")
    print(f"degraded file rows   : {len(telemetry.files)}")
    print(f"success fraction     : {harness.panda.success_fraction():.1%}")
    return 0


def cmd_match(args) -> int:
    study = _study(args)
    report = study.matching_report(workers=args.workers, matchers=_matchers(args, study))
    headline_method = "exact" if "exact" in report.methods else report.methods[0]
    stats = headline_stats(report, method=headline_method)
    t0, t1 = study.harness.window
    columns = study.pipeline.artifacts(t0, t1).columns
    print(f"matched transfers : {stats.n_matched_transfers} "
          f"({stats.transfer_match_pct:.2f}% of taskid transfers)")
    print(f"matched jobs      : {stats.n_matched_jobs} "
          f"({stats.job_match_pct:.2f}% of user jobs)")
    print(f"transfer-time in queue: mean {stats.mean_transfer_pct:.2f}% "
          f"geomean {stats.geomean_transfer_pct:.3f}%\n")
    if "exact" in report.methods:
        print(render_activity_table(activity_breakdown(report["exact"], columns)))
        print()
    print(render_method_tables(
        method_comparison_transfers(report),
        method_comparison_jobs(report),
        report.n_transfers_with_taskid,
        report.n_jobs,
    ))
    return 0


def cmd_analyze(args) -> int:
    from repro.core.analysis.sites import hottest_sites
    from repro.core.analysis.thresholds import StatusCombo
    from repro.exec import make_executor

    study = _study(args)
    with make_executor(args.workers) as ex:
        results = study.analyses(executor=ex)
    stats = results["headline"]
    print(f"matched jobs      : {stats.n_matched_jobs} "
          f"({stats.job_match_pct:.2f}% of user jobs)")
    print(f"matched transfers : {stats.n_matched_transfers} "
          f"({stats.transfer_match_pct:.2f}% of taskid transfers)")
    print(f"transfer-time in queue: mean {stats.mean_transfer_pct:.2f}% "
          f"geomean {stats.geomean_transfer_pct:.3f}%\n")

    sweep = results["thresholds"]
    header = ["status combo"] + [f"<={t:g}%" for t in sweep.thresholds]
    rows = [[combo.value] + [str(n) for n in sweep.cumulative[combo]]
            for combo in StatusCombo]
    print(render_table(header, rows))
    print(f"\ntop queuing jobs  : {len(results['top_local'])} local, "
          f"{len(results['top_remote'])} remote")

    volume, submissions = results["volume"], results["submissions"]
    print(f"transfer volume   : gini {volume.temporal_gini():.3f}  "
          f"peak/mean {volume.peak_to_mean():.2f}")
    print(f"job submissions   : gini {submissions.temporal_gini():.3f}  "
          f"peak/mean {submissions.peak_to_mean():.2f}\n")

    hot = hottest_sites(results["sites"], by="p95_queue", top=5)
    print(render_table(
        ["site (by p95 queue)", "jobs", "fail rate", "p95 queue (h)"],
        [[b.site, str(b.n_jobs), f"{b.failure_rate:.1%}", f"{b.p95_queue / 3600.0:.2f}"]
         for b in hot]))
    return 0


def cmd_sweep(args) -> int:
    from repro.core.matching.windows import growing_window_curve, saturation_ratio
    from repro.exec.executor import make_executor

    study = _study(args)
    executor = make_executor(args.workers)
    t0, t1 = study.harness.window
    curve = growing_window_curve(
        study.pipeline, t0, t1, n_points=args.points, executor=executor)
    rows = [
        [f"{p.length / 86400.0:.2f}", str(p.n_jobs), str(p.n_matched_jobs),
         f"{p.job_match_rate:.2%}", str(p.n_matched_transfers)]
        for p in curve
    ]
    print(render_table(
        ["window (days)", "jobs", "matched jobs", "match rate", "matched transfers"],
        rows))
    print(f"\nhalf-window saturation: {saturation_ratio(curve):.3f}  "
          f"(workers={args.workers})")
    return 0


def cmd_stream(args) -> int:
    study = _study(args)
    matchers = _matchers(args, study)
    processor = study.stream(
        batch_seconds=args.batch_hours * 3600.0, lateness=args.lateness,
        matchers=matchers,
    )
    metrics = processor.metrics()
    print(f"micro-batches        : {metrics.n_batches} "
          f"({args.batch_hours:g}h event-time spans)")
    print(f"events processed     : {metrics.n_events} "
          f"({metrics.n_job_events} jobs, {metrics.n_transfer_events} transfers)")
    print(f"sustained throughput : {metrics.events_per_sec:,.0f} events/s "
          f"(ingest {metrics.ingest_s:.2f}s match {metrics.match_s:.2f}s "
          f"fold {metrics.fold_s:.2f}s)")
    print(f"late events          : {metrics.n_late_events}  "
          f"pending jobs at EOS  : {metrics.n_pending_jobs}")
    stream_report = processor.report()
    for method, n in metrics.total_matched.items():
        print(f"matched jobs [{method:5s}] : {n}")

    stats = processor.headline()
    print(f"\nrunning headline     : {stats.n_matched_transfers} matched "
          f"transfers ({stats.transfer_match_pct:.2f}%), mean transfer-time "
          f"{stats.mean_transfer_pct:.2f}% of queue")

    batch_report = study.matching_report(workers=args.workers, matchers=matchers)
    identical = all(
        stream_report[m].matched_pairs() == batch_report[m].matched_pairs()
        and stream_report[m] == batch_report[m]
        for m in batch_report.methods
    )
    print(f"streaming vs batch   : "
          f"{'bit-identical' if identical else 'DIVERGED'}")
    return 0 if identical else 1


def cmd_anomalies(args) -> int:
    study = _study(args)
    telemetry = study.telemetry
    matches = study.matching_report(workers=args.workers)["rm2"].matched_jobs()
    matrix = build_transfer_matrix(
        study.source.columns, study.harness.topology.site_names())
    report = build_anomaly_report(matches, telemetry.transfers, matrix=matrix)
    print(report)
    if report.inferences:
        acc = inference_accuracy(report.inferences, telemetry.ground_truth.true_sites)
        print(f"inference accuracy vs ground truth: {acc:.0%}")
    print()
    for a in advise(report):
        print(a)
    return 0


def cmd_profile(args) -> int:
    """Run the campaign under full observability and write trace artifacts.

    Executes matching, the §5 analysis batch, and a streaming replay
    with an enabled :class:`~repro.obs.Obs` bundle, then writes a
    Chrome-trace file (``trace.json``, load in ``chrome://tracing`` or
    Perfetto) and a flat metrics/span snapshot (``metrics.json``) to
    ``--out`` and prints the per-stage wall-time table.
    """
    import os

    from repro.obs import Obs
    from repro.reporting import (
        render_stage_summary,
        write_chrome_trace,
        write_metrics_json,
    )

    obs = Obs.collecting()
    cfg = EightDayConfig(seed=args.seed, days=args.days, intensity=args.intensity)
    print(f"simulating {args.days:g} days (seed {args.seed}) ...", file=sys.stderr)
    study = EightDayStudy(cfg, obs=obs).run()
    report = study.matching_report(workers=args.workers)
    study.analyses(workers=args.workers)
    processor = study.stream(batch_seconds=args.batch_hours * 3600.0)

    # A small closed-loop run so control-loop spans ("coopt" category)
    # appear in the same trace as matching/analysis/streaming.
    from repro.scenarios.coopt import CoOptConfig, run_policy

    run_policy(CoOptConfig(seed=args.seed, days=0.25, epoch_hours=2.0),
               "full", obs=obs)

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.json")
    metrics_path = os.path.join(args.out, "metrics.json")
    n_events = write_chrome_trace(trace_path, obs.tracer)
    write_metrics_json(metrics_path, obs)

    print(render_stage_summary(obs.tracer, top=args.top))
    print(f"\nmatched jobs (rm2)   : {report['rm2'].n_matched_jobs}")
    print(f"stream batches       : {processor.metrics().n_batches}")
    print(f"wrote {n_events} trace events to {trace_path}")
    print(f"wrote metrics snapshot to {metrics_path}")
    return 0


def cmd_report(args) -> int:
    from repro.reporting.markdown import write_markdown_report

    n = write_markdown_report(args.results, args.out)
    print(f"rendered {n} experiment(s) to {args.out}")
    return 0 if n else 1


def cmd_growth(args) -> int:
    model = GrowthModel()
    rows = [
        [str(p.year), bytes_to_human(p.ingested), bytes_to_human(p.cumulative),
         f"{p.cumulative / EB:.3f}"]
        for p in model.series()
    ]
    print(render_table(["year", "ingested", "cumulative", "EB"], rows))
    return 0


def cmd_coopt(args) -> int:
    """Run the closed co-optimization loop (one policy, or the sweep).

    ``--sweep`` walks the registered policy ladder across the given
    degradation severities and prints the delta table; otherwise a
    single policy runs once and its summary is printed.  With
    ``--obs``, control-loop spans and per-decision counters are
    collected and (when ``--out`` is given) written to
    ``<out>/metrics.json`` next to the sweep rows.
    """
    import os

    from repro.obs import Obs
    from repro.scenarios.coopt import CoOptConfig, run_policy, run_sweep

    obs = Obs.collecting() if getattr(args, "obs", False) else None
    args.obs_bundle = obs
    severities = [float(s) for s in args.severities.split(",") if s.strip()]
    cfg = CoOptConfig(
        seed=args.seed,
        days=args.days,
        epoch_hours=args.epoch_hours,
        severities=severities,
    )
    payload: dict
    if args.sweep:
        print(
            f"sweeping {len(list(cfg.policies))} policies x "
            f"{len(severities)} severities ({args.days:g} days, seed {args.seed}) ...",
            file=sys.stderr,
        )
        sweep = run_sweep(cfg, obs=obs)
        print(sweep.table())
        payload = {"config": {"seed": cfg.seed, "days": cfg.days,
                              "epoch_hours": cfg.epoch_hours,
                              "severities": severities},
                   "rows": sweep.rows()}
    else:
        result = run_policy(cfg, args.policy, severities[0], obs=obs)
        print(result.summary())
        payload = {"config": {"seed": cfg.seed, "days": cfg.days,
                              "epoch_hours": cfg.epoch_hours,
                              "severity": severities[0]},
                   "rows": [result.row()]}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        to_json_file(os.path.join(args.out, "coopt.json"), payload)
        print(f"wrote sweep rows to {args.out}/coopt.json", file=sys.stderr)
        if obs is not None:
            from repro.reporting import write_metrics_json

            metrics_path = os.path.join(args.out, "metrics.json")
            write_metrics_json(metrics_path, obs)
            print(f"wrote decision counters to {metrics_path}", file=sys.stderr)
    return 0


def cmd_scale(args) -> int:
    """Walk the scale ladder and write per-rung dataplane artifacts.

    Each rung synthesizes a full 8-day window at 10x the previous
    rung's job count, runs Exact/RM1/RM2 matching plus the §5 headline
    analyses, and records throughput, peak RSS, and shard counts.
    ``--full`` appends the paper-scale rung (~1M jobs, ~6.5M
    transfers).
    """
    from repro.scenarios.scale import PAPER_RUNG, scale_ladder

    rungs = [int(r) for r in args.rungs.split(",") if r.strip()]
    if args.full and PAPER_RUNG not in rungs:
        rungs.append(PAPER_RUNG)
    shard_seconds = args.shard_hours * 3600.0
    shared_memory = False if args.no_shm else None
    payload = scale_ladder(
        rungs=rungs,
        seed=args.seed,
        days=args.days,
        shard_seconds=shard_seconds,
        workers=args.workers,
        shared_memory=shared_memory,
    )
    to_json_file(args.out, payload)
    print(f"{'jobs':>9}  {'gen s':>7}  {'match s':>7}  {'jobs/s':>9}  "
          f"{'peak MB':>8}  {'shards':>6}  mode")
    for row in payload["rungs"]:
        shards = max(row["shards"].values()) if row["shards"] else 1
        print(f"{row['n_jobs']:>9,}  {row['generate_seconds']:>7.2f}  "
              f"{row['match_seconds']:>7.2f}  {row['match_jobs_per_sec']:>9,.0f}  "
              f"{row['peak_rss_mb']:>8.0f}  {shards:>6}  {row['seed_mode']}")
    print(f"wrote {len(payload['rungs'])} rung(s) to {args.out}")
    return 0


def cmd_export(args) -> int:
    study = _study(args)
    telemetry = study.telemetry
    report = study.matching_report(workers=args.workers)
    n = rows_to_csv(f"{args.out}/transfers.csv", telemetry.transfers)
    m = rows_to_csv(f"{args.out}/jobs.csv", telemetry.jobs)
    k = rows_to_csv(f"{args.out}/files.csv", telemetry.files)
    to_json_file(f"{args.out}/matching.json", {
        method: {
            "matched_jobs": report[method].n_matched_jobs,
            "matched_transfers": report[method].n_matched_transfers,
            "pairs": report[method].matched_pairs(),
        }
        for method in report.methods
    })
    print(f"wrote {n} transfers, {m} jobs, {k} file rows, and matching.json to {args.out}")
    return 0


def cmd_serve(args) -> int:
    """Run the multi-tenant match service against one open-loop session."""
    import asyncio
    import json

    from repro.serve import (
        AdmissionPolicy,
        LoadSpec,
        MatchService,
        ServeConfig,
        Workload,
        default_tenants,
        run_workload,
    )

    study = _study(args)
    t0, t1 = study.harness.window
    tenants = default_tenants(args.tenants)
    service = MatchService(
        study.source,
        known_sites=study.harness.known_site_names(),
        tenants=tenants,
        config=ServeConfig(
            max_workers=args.serve_workers,
            policy=AdmissionPolicy(
                rate=args.tenant_rate if args.tenant_rate > 0 else None,
                queue_depth=args.queue_depth,
            ),
            verify_every=args.verify_every,
        ),
    )
    spec = LoadSpec.make(
        tenants,
        rate=args.rate,
        duration=args.duration,
        long_fraction=args.long_fraction,
        seed=args.seed,
    )
    workload = Workload(spec, t0, t1)
    arrivals = workload.schedule()
    print(f"serving {len(arrivals)} requests from {len(tenants)} tenants "
          f"at {args.rate:g} req/s ...", file=sys.stderr)

    async def session():
        async with service:
            return await run_workload(service, arrivals)

    stats = asyncio.run(session())
    print(json.dumps(stats.summary(), indent=2, default=float))
    if args.verify_every:
        print(f"verified {service.verify_samples} sampled responses, "
              f"{service.verify_violations} violations", file=sys.stderr)
    return 1 if service.verify_violations else 0


def cmd_serve_bench(args) -> int:
    """Saturation ladder: latency/throughput/shed-rate per offered load."""
    from repro.serve.bench import (
        BenchConfig,
        format_report,
        run_serve_bench,
        write_results,
    )

    rates = tuple(float(r) for r in args.rates.split(","))
    config = BenchConfig(
        days=args.days,
        seed=args.seed,
        intensity=args.intensity,
        tenants=args.tenants,
        max_workers=args.serve_workers,
        queue_depth=args.queue_depth,
        rates=rates,
        duration=args.duration,
        long_fraction=args.long_fraction,
        verify_every=args.verify_every,
    )
    print(f"simulating {args.days:g} days, then {len(rates)} load levels "
          f"x {args.duration:g}s ...", file=sys.stderr)
    results = run_serve_bench(config)
    print(format_report(results))
    path = write_results(results, args.out)
    print(f"wrote {path}", file=sys.stderr)
    return 1 if results["verify"]["violations"] else 0


def _add_serve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tenants", type=int, default=8,
                   help="number of tenants (default %(default)s)")
    p.add_argument("--serve-workers", type=int, default=4, metavar="N",
                   help="service compute threads (default %(default)s)")
    p.add_argument("--queue-depth", type=int, default=24,
                   help="per-tenant fair-queue bound (default %(default)s)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="seconds of load per level (default %(default)s)")
    p.add_argument("--long-fraction", type=float, default=0.1,
                   help="fraction of full-window analysis requests "
                        "(default %(default)s)")
    p.add_argument("--verify-every", type=int, default=0, metavar="N",
                   help="recompute every Nth admitted request directly and "
                        "compare (0 = off)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PanDA/Rucio co-analysis reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, extra in (
        ("simulate", cmd_simulate, None),
        ("match", cmd_match, None),
        ("analyze", cmd_analyze, None),
        ("sweep", cmd_sweep, "points"),
        ("stream", cmd_stream, "stream"),
        ("anomalies", cmd_anomalies, None),
        ("export", cmd_export, "out"),
    ):
        p = sub.add_parser(name, help=fn.__doc__)
        _add_campaign_args(p)
        if extra == "out":
            p.add_argument("--out", default="repro_export", help="output directory")
        if extra == "points":
            p.add_argument("--points", type=int, default=6,
                           help="growing-window points in the sweep")
        if extra == "stream":
            p.add_argument("--batch-hours", type=float, default=6.0,
                           metavar="HOURS",
                           help="micro-batch event-time span in hours "
                                "(default %(default)s)")
            p.add_argument("--lateness", type=float, default=0.0,
                           help="allowed event-time disorder in seconds "
                                "before a job window closes")
        p.set_defaults(fn=fn)

    co = sub.add_parser(
        "coopt",
        help="run the closed co-optimization control loop — one policy, "
             "or the full ladder x severity sweep with --sweep")
    co.add_argument("--sweep", action="store_true",
                    help="run every registered policy across --severities "
                         "and print the baseline-delta table")
    co.add_argument("--policy", default="full",
                    help="policy to run without --sweep (default %(default)s)")
    co.add_argument("--days", type=float, default=0.5,
                    help="campaign length in days (default %(default)s)")
    co.add_argument("--seed", type=int, default=11, help="root random seed")
    co.add_argument("--epoch-hours", type=float, default=2.0, metavar="HOURS",
                    help="control-loop decision epoch (default %(default)s)")
    co.add_argument("--severities", default="1.0",
                    help="comma-separated degradation severities "
                         "(default %(default)s)")
    co.add_argument("--obs", action="store_true",
                    help="collect control-loop spans and decision counters")
    co.add_argument("--out", default="",
                    help="directory for coopt.json (+ metrics.json with "
                         "--obs); empty = don't write")
    co.set_defaults(fn=cmd_coopt)

    pr = sub.add_parser(
        "profile",
        help="run matching + analyses + streaming under the tracer and "
             "write Chrome-trace / metrics artifacts")
    _add_campaign_args(pr)
    pr.add_argument("--out", default="repro_profile",
                    help="artifact directory (default %(default)s)")
    pr.add_argument("--batch-hours", type=float, default=6.0, metavar="HOURS",
                    help="streaming micro-batch span (default %(default)s)")
    pr.add_argument("--top", type=int, default=20,
                    help="rows in the stage summary table (0 = all)")
    pr.set_defaults(fn=cmd_profile)

    sc = sub.add_parser(
        "scale",
        help="walk the 10x scale ladder and write per-rung throughput, "
             "peak-RSS, and shard-count artifacts")
    sc.add_argument("--rungs", default="3600,36000",
                    help="comma-separated rung sizes in jobs "
                         "(default %(default)s)")
    sc.add_argument("--full", action="store_true",
                    help="append the paper-scale rung (~1M jobs, "
                         "~6.5M transfers)")
    sc.add_argument("--seed", type=int, default=2025, help="root random seed")
    sc.add_argument("--days", type=float, default=8.0,
                    help="window length in days (default %(default)s)")
    sc.add_argument("--workers", type=int, default=1, metavar="N",
                    help="processes for the matching executor")
    sc.add_argument("--shard-hours", type=float, default=24.0,
                    metavar="HOURS",
                    help="time-shard width for the jobs/transfers indices "
                         "(default %(default)s)")
    sc.add_argument("--no-shm", action="store_true",
                    help="seed parallel workers by pickling instead of "
                         "shared-memory pack attach (results identical)")
    sc.add_argument("--out", default="benchmarks/results/scale_ladder.json",
                    help="artifact path (default %(default)s)")
    sc.set_defaults(fn=cmd_scale)

    sv = sub.add_parser(
        "serve",
        help="run the multi-tenant match service under one open-loop "
             "Poisson session and print latency/shed/hit statistics")
    _add_campaign_args(sv)
    _add_serve_args(sv)
    sv.add_argument("--rate", type=float, default=80.0,
                    help="aggregate offered load in req/s (default %(default)s)")
    sv.add_argument("--tenant-rate", type=float, default=0.0,
                    help="per-tenant admission rate cap in req/s "
                         "(0 = unlimited)")
    sv.set_defaults(fn=cmd_serve)

    sb = sub.add_parser(
        "serve-bench",
        help="drive the service through a ladder of offered loads and "
             "write the p50/p95/p99 + shed-rate saturation artifact")
    sb.add_argument("--days", type=float, default=1.5,
                    help="campaign length in days (default %(default)s)")
    sb.add_argument("--seed", type=int, default=2025, help="root random seed")
    sb.add_argument("--intensity", type=float, default=1.0,
                    help="arrival-rate scale for the simulated campaign")
    _add_serve_args(sb)
    sb.add_argument("--rates", default="40,160,2400",
                    help="comma-separated offered loads in req/s; the top "
                         "rung should sit past saturation "
                         "(default %(default)s)")
    sb.add_argument("--out", default="benchmarks/results/serve_latency.json",
                    help="artifact path (default %(default)s)")
    sb.set_defaults(fn=cmd_serve_bench, verify_every=23)

    g = sub.add_parser("growth", help="print the Fig 2 volume series")
    g.set_defaults(fn=cmd_growth)

    r = sub.add_parser("report", help="render benchmark artifacts to markdown")
    r.add_argument("--results", default="benchmarks/results",
                   help="artifact directory written by the benchmarks")
    r.add_argument("--out", default="EXPERIMENT_RESULTS.md", help="output file")
    r.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rc = args.fn(args)
    obs = getattr(args, "obs_bundle", None)
    if obs is not None and args.fn is not cmd_profile:
        from repro.reporting import render_stage_summary

        print("\n" + render_stage_summary(obs.tracer, top=15), file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
