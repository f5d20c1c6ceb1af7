#!/usr/bin/env python
"""Site operations view: dashboards, live monitoring, incident response.

Runs a campaign with a mid-window incident at a busy site, then shows
what an operator would see: per-site dashboards (failure rates, queue
percentiles, data flows), the streaming anomaly monitor's alert feed,
and the provenance view of which storage fed the failed work.

Usage::

    python examples/site_operations.py [--days 1.5] [--seed 23]
"""

from __future__ import annotations

import argparse

from repro.core.analysis.provenance import build_provenance_graph, site_feed_stats, summarize
from repro.core.analysis.sites import build_dashboards, hottest_sites, importers_and_exporters
from repro.core.anomaly.monitor import StreamingAnomalyMonitor
from repro.grid.incidents import Incident, IncidentInjector
from repro.reporting.tables import render_table
from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.units import bytes_to_human


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=1.5)
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--incident-site", default="BNL-ATLAS")
    args = parser.parse_args()

    print(f"Simulating {args.days:g} days with an incident at {args.incident_site} ...")
    study = EightDayStudy(EightDayConfig(seed=args.seed, days=args.days))
    injector = IncidentInjector(study.harness.engine, study.harness.topology)
    injector.schedule(Incident(
        args.incident_site,
        start=args.days * 86400.0 * 0.25,
        end=args.days * 86400.0 * 0.75,
        kind="compute",
        severity=0.25,
    ))
    study.run()
    telemetry = study.telemetry

    print("\n== Site dashboards (hottest by failure rate) ==")
    boards = build_dashboards(study.source.columns)
    rows = []
    for b in hottest_sites(boards, by="failure_rate", top=8):
        rows.append([
            b.site, b.n_jobs, f"{b.failure_rate:.0%}",
            f"{b.mean_queue:.0f}s", f"{b.p95_queue:.0f}s",
            bytes_to_human(b.bytes_in), bytes_to_human(b.bytes_out),
            b.dominant_error_family.value,
        ])
    print(render_table(
        ["site", "jobs", "fail", "mean q", "p95 q", "in", "out", "errors"], rows))

    importers, exporters = importers_and_exporters(boards, top=3)
    print("\n  top importers:", ", ".join(
        f"{b.site} ({bytes_to_human(b.net_flow)})" for b in importers))
    print("  top exporters:", ", ".join(
        f"{b.site} ({bytes_to_human(-b.net_flow)})" for b in exporters))

    print("\n== Streaming monitor (alerts as matched jobs arrive) ==")
    monitor = StreamingAnomalyMonitor()
    matches = study.matching_report()["rm2"].matched_jobs()
    for m in matches:
        monitor.observe_match(m)
    for t in telemetry.transfers:
        monitor.observe_transfer(t)
    print(monitor.summary())
    for alert in monitor.alerts[:5]:
        print(f"  {alert}")

    print("\n== Provenance of matched work ==")
    graph = build_provenance_graph(matches)
    s = summarize(graph)
    print(f"  {s.n_jobs} jobs fed by {s.n_source_sites} source sites; "
          f"top source carries {s.top_source_share:.0%} of served bytes "
          f"(mean {s.mean_sources_per_job:.1f} sources/job)")
    stats = site_feed_stats(graph)
    for site, (jobs, volume) in sorted(stats.items(), key=lambda kv: -kv[1][1])[:5]:
        print(f"    {site:<16s} fed {jobs:3d} jobs, {bytes_to_human(volume)}")

    if injector.applied:
        inc = injector.applied[0]
        b = boards.get(inc.site)
        if b is not None:
            print(f"\n== Incident recap: {inc.site} lost "
                  f"{1 - inc.severity:.0%} capacity for "
                  f"{inc.duration / 3600.0:.1f}h ==")
            print(f"  site failure rate {b.failure_rate:.0%} vs grid "
                  f"{sum(x.n_failed for x in boards.values()) / max(1, sum(x.n_jobs for x in boards.values())):.0%}")


if __name__ == "__main__":
    main()
