"""The scale ladder: walking the dataplane up to paper scale.

Each *rung* synthesizes an 8-day telemetry window (10x the previous
rung's job count), runs the full match ladder (Exact / RM1 / RM2) and
the §5 analysis summaries over it, and records throughput, memory, and
shard-count artifacts.  The top rung is the paper's §5.5 window itself:
~1M jobs and ~6.5M transfers, end to end.

``python -m repro scale`` drives this and writes
``benchmarks/results/scale_ladder.json``; the CI smoke gate pins the
36k rung's throughput floor and memory ceiling
(``benchmarks/bench_scale_ladder.py``).
"""

from __future__ import annotations

import dataclasses
import resource
import time
from typing import List, Optional, Sequence

from repro.core.analysis.summary import (
    headline_stats,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.exec.executor import make_executor
from repro.exec.plan import WindowPlan
from repro.obs import get_obs
from repro.workload.scale import ScaleConfig, ScaleDataset, synthesize

#: The default ladder: 10x rungs from study scale toward §5.5 scale.
DEFAULT_RUNGS = (3_600, 36_000, 360_000)

#: The paper-scale rung (§5.5: 966k user jobs, 6.8M transfers).
PAPER_RUNG = 1_000_000


def _peak_rss_mb() -> float:
    """Process peak RSS in MiB (monotone over the process lifetime)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _current_rss_mb() -> float:
    """Instantaneous RSS in MiB (``/proc``; 0.0 where unavailable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * (resource.getpagesize() / (1024.0 * 1024.0))
    except (OSError, ValueError, IndexError):
        return 0.0


def run_rung(
    config: ScaleConfig,
    workers: int = 1,
    shared_memory: Optional[bool] = None,
    analyses: bool = True,
) -> dict:
    """Synthesize one rung, match it, analyze it; return the artifact row."""
    with get_obs().tracer.span("scale.rung", cat="scenario") as sp:
        sp.set("n_jobs", config.n_jobs)
        t = time.perf_counter()
        ds: ScaleDataset = synthesize(config)
        gen_s = time.perf_counter() - t

        plan = WindowPlan(*ds.window)
        executor = make_executor(workers=workers, shared_memory=shared_memory)
        t = time.perf_counter()
        with executor:
            report = executor.execute(ds.source, [plan], known_sites=ds.known_sites)[0]
        match_s = time.perf_counter() - t

        analyze_s = 0.0
        headline = None
        if analyses:
            t = time.perf_counter()
            stats = headline_stats(report, method="exact")
            transfer_rows = method_comparison_transfers(report)
            job_rows = method_comparison_jobs(report)
            analyze_s = time.perf_counter() - t
            headline = {
                "n_matched_jobs": stats.n_matched_jobs,
                "n_matched_transfers": stats.n_matched_transfers,
                "transfer_rows": [dataclasses.asdict(r) for r in transfer_rows],
                "job_rows": [dataclasses.asdict(r) for r in job_rows],
            }

        matched = {m: report[m].n_matched_jobs for m in report.methods}
        row = {
            "n_jobs": ds.n_jobs,
            "n_user_jobs": ds.n_user_jobs,
            "n_files": ds.n_files,
            "n_transfers": ds.n_transfers,
            "n_transfers_with_taskid": ds.n_transfers_with_taskid,
            "shard_seconds": config.shard_seconds,
            "shards": ds.source.shard_counts(),
            "workers": workers,
            "seed_mode": getattr(executor, "seed_mode", "serial") or "serial",
            "generate_seconds": round(gen_s, 3),
            "match_seconds": round(match_s, 3),
            "analyze_seconds": round(analyze_s, 3),
            "match_jobs_per_sec": round(ds.n_user_jobs / match_s, 1) if match_s else 0.0,
            "match_transfers_per_sec": (
                round(ds.n_transfers / match_s, 1) if match_s else 0.0
            ),
            "matched_jobs": matched,
            "expected_matches": ds.expected_matches,
            "rss_mb": round(_current_rss_mb(), 1),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
        }
        if headline is not None:
            row["headline"] = headline
        sp.set("match_seconds", row["match_seconds"])
        sp.set("peak_rss_mb", row["peak_rss_mb"])
        for method, n in matched.items():
            if n != ds.expected_matches.get(method, n):
                raise AssertionError(
                    f"rung {config.n_jobs}: {method} matched {n}, "
                    f"expected {ds.expected_matches[method]}"
                )
        return row


def scale_ladder(
    rungs: Sequence[int] = DEFAULT_RUNGS,
    seed: int = 2025,
    days: float = 8.0,
    shard_seconds: float = 86400.0,
    workers: int = 1,
    shared_memory: Optional[bool] = None,
    analyses: bool = True,
) -> dict:
    """Walk the rungs; return the ``scale_ladder.json`` payload."""
    rows: List[dict] = []
    for n_jobs in rungs:
        config = ScaleConfig(
            n_jobs=int(n_jobs), seed=seed, days=days, shard_seconds=shard_seconds
        )
        rows.append(
            run_rung(
                config,
                workers=workers,
                shared_memory=shared_memory,
                analyses=analyses,
            )
        )
    return {
        "paper": {
            "window_days": 8,
            "n_user_jobs": 966_000,
            "n_transfers": 6_800_000,
            "note": "§5.5 scale anchors; the top rung meets or exceeds both.",
        },
        "config": {
            "seed": seed,
            "days": days,
            "shard_seconds": shard_seconds,
            "workers": workers,
        },
        "rungs": rows,
    }
