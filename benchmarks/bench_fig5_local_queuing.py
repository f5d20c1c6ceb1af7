"""Fig 5 — top-40 local-transfer jobs with >=10% of queue time in transfer.

Paper: all-local matched jobs ranked by queuing time; failed jobs are
over-represented among high transfer-time-percentage cases; no
significant correlation between transferred volume and queuing time;
the worst job exceeded 10,000 s of absolute transfer time (83% share).

Reproduced claims: a non-empty top list exists; failure rate within the
list exceeds the overall matched-job failure rate, and size/queue
correlation stays weak.
"""

from conftest import write_comparison

from repro.core.analysis.queuing import (
    correlation_size_vs_time,
    timing_table,
    timings_for_result,
)


def test_fig5_local_queuing_breakdown(benchmark, eightday_report):
    result = eightday_report["exact"]
    timings = timings_for_result(result)
    top = benchmark(timing_table(result).top_jobs, "local", 10.0, 40)

    assert top, "expected local jobs with >=10% transfer-time share"
    assert all(t.transfer_pct >= 10.0 for t in top)
    assert [t.queuing_time for t in top] == sorted(
        (t.queuing_time for t in top), reverse=True)

    overall_failed = sum(1 for t in timings if t.status == "failed") / len(timings)
    top_failed = sum(1 for t in top if t.status == "failed") / len(top)
    corr = correlation_size_vs_time(top)

    assert abs(corr) < 0.8, "volume must not explain queuing time"

    write_comparison(
        "fig5_local_queuing",
        paper={
            "selection": "top 40 all-local jobs, transfer >=10% of queue",
            "finding": "failed jobs over-represented; no size/queue correlation",
            "worst_transfer_seconds": ">10,000",
        },
        measured={
            "n_selected": len(top),
            "overall_failure_rate": round(overall_failed, 3),
            "top_failure_rate": round(top_failed, 3),
            "failure_enriched": bool(top_failed >= overall_failed),
            "size_queue_correlation": round(corr, 3),
            "worst": {
                "pandaid": top[0].pandaid,
                "queuing_s": round(top[0].queuing_time, 1),
                "transfer_s": round(top[0].transfer_time, 1),
                "transfer_pct": round(top[0].transfer_pct, 1),
                "label": top[0].label,
            },
            "rows": [
                {
                    "pandaid": t.pandaid,
                    "label": t.label,
                    "queuing_s": round(t.queuing_time, 1),
                    "transfer_pct": round(t.transfer_pct, 1),
                    "bytes": t.transfer_bytes,
                }
                for t in top[:10]
            ],
        },
    )
