"""Tests for queuing analysis (Figs 5-6) and summaries (Tables 1-2)."""

import pytest

from repro.core.analysis.queuing import (
    JobTransferTiming,
    compute_timing,
    correlation_size_vs_time,
    geomean_transfer_pct,
    mean_transfer_pct,
    timings_for_result,
)
from repro.core.analysis.summary import (
    activity_breakdown,
    headline_stats,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.core.matching.base import JobMatch, TransferClass

from tests.helpers import make_job, make_transfer
from tests.oracle import top_jobs_breakdown


def timing(pct: float, status="finished", taskstatus="finished",
           cls=TransferClass.ALL_LOCAL, queue=1000.0) -> JobTransferTiming:
    return JobTransferTiming(
        pandaid=1, status=status, taskstatus=taskstatus,
        queuing_time=queue, transfer_time=queue * pct / 100.0,
        transfer_bytes=10**9, transfer_class=cls, n_transfers=2,
    )


class TestComputeTiming:
    def test_union_within_queue(self):
        job = make_job(creation=0.0, start=100.0, end=200.0)
        transfers = [
            make_transfer(row_id=1, start=10.0, end=30.0),
            make_transfer(row_id=2, start=20.0, end=40.0),  # overlaps
            make_transfer(row_id=3, start=150.0, end=160.0),  # inside wall
        ]
        t = compute_timing(JobMatch(job=job, transfers=transfers))
        assert t.queuing_time == 100.0
        assert t.transfer_time == 30.0  # union of [10,40] clipped
        assert t.transfer_pct == pytest.approx(30.0)

    def test_unstarted_job_none(self):
        job = make_job(start=None, end=None)
        assert compute_timing(JobMatch(job=job, transfers=[])) is None

    def test_label_encoding(self):
        assert timing(5).label == "D/D"
        assert timing(5, status="failed").label == "F/D"
        assert timing(5, taskstatus="failed").label == "D/F"

    def test_other_time(self):
        t = timing(25.0, queue=400.0)
        assert t.other_time == 300.0


class TestTopJobs:
    def test_filters_and_sorts(self):
        ts = [
            timing(50, queue=100.0),
            timing(5, queue=5000.0),       # below min pct -> excluded
            timing(20, queue=2000.0),
            timing(30, queue=500.0, cls=TransferClass.ALL_REMOTE),
        ]
        top = top_jobs_breakdown(ts, "local", min_transfer_pct=10.0, top=40)
        assert [t.queuing_time for t in top] == [2000.0, 100.0]

    def test_remote_selection(self):
        ts = [timing(30, cls=TransferClass.ALL_REMOTE), timing(30)]
        top = top_jobs_breakdown(ts, "remote")
        assert len(top) == 1
        assert top[0].transfer_class is TransferClass.ALL_REMOTE

    def test_top_cap(self):
        ts = [timing(20, queue=float(q)) for q in range(100, 200)]
        assert len(top_jobs_breakdown(ts, "local", top=40)) == 40


class TestAggregates:
    def test_mean_and_geomean(self):
        ts = [timing(10), timing(40)]
        assert mean_transfer_pct(ts) == pytest.approx(25.0)
        assert geomean_transfer_pct(ts) == pytest.approx(20.0)

    def test_geomean_handles_zero(self):
        ts = [timing(0), timing(10)]
        assert geomean_transfer_pct(ts) > 0

    def test_empty(self):
        assert mean_transfer_pct([]) == 0.0
        assert geomean_transfer_pct([]) == 0.0

    def test_correlation_weak_on_study(self, small_report):
        """Fig 5 discussion: volume does not determine queuing time.

        Small-sample correlations fluctuate by seed; the reproduced
        claim is the absence of near-deterministic dependence.
        """
        ts = timings_for_result(small_report["exact"])
        assert abs(correlation_size_vs_time(ts)) < 0.8

    def test_correlation_empty(self):
        assert correlation_size_vs_time([]) == 0.0


class TestSummariesOnStudy:
    def test_table1_total_row(self, small_report, small_study):
        rows = activity_breakdown(small_report["exact"], small_study.source.columns)
        assert rows[-1].activity == "Total"
        assert rows[-1].matched == sum(r.matched for r in rows[:-1])
        assert rows[-1].total == small_report.n_transfers_with_taskid

    def test_table2a_totals(self, small_report):
        rows = method_comparison_transfers(small_report)
        by = {r.method: r for r in rows}
        for m in small_report.methods:
            assert by[m].total == small_report[m].n_matched_transfers

    def test_table2b_totals(self, small_report):
        rows = method_comparison_jobs(small_report)
        by = {r.method: r for r in rows}
        for m in small_report.methods:
            assert by[m].total == small_report[m].n_matched_jobs

    def test_headline(self, small_report):
        h = headline_stats(small_report)
        assert 0 < h.job_match_pct < 100
        assert 0 < h.transfer_match_pct < 100
        assert h.mean_transfer_pct >= h.geomean_transfer_pct
