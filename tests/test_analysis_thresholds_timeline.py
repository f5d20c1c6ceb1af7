"""Tests for the Fig 9 threshold sweep and Fig 10-12 timelines."""

import pytest

from repro.core.analysis.queuing import JobTransferTiming
from repro.core.analysis.thresholds import StatusCombo, threshold_sweep_result
from repro.core.analysis.timeline import (
    build_timeline,
    find_failed_with_overlap,
    find_high_staging_success,
    find_sequential_underutilized,
)
from repro.core.matching.base import JobMatch, TransferClass

from tests.helpers import make_job, make_transfer
from tests.oracle import threshold_sweep


def timing(pct, status="finished", taskstatus="finished"):
    return JobTransferTiming(
        pandaid=1, status=status, taskstatus=taskstatus,
        queuing_time=100.0, transfer_time=pct, transfer_bytes=1,
        transfer_class=TransferClass.ALL_LOCAL, n_transfers=1,
    )


class TestStatusCombo:
    @pytest.mark.parametrize("job,task,expected", [
        ("finished", "finished", StatusCombo.JOB_OK_TASK_OK),
        ("failed", "finished", StatusCombo.JOB_FAIL_TASK_OK),
        ("finished", "failed", StatusCombo.JOB_OK_TASK_FAIL),
        ("failed", "failed", StatusCombo.JOB_FAIL_TASK_FAIL),
    ])
    def test_classification(self, job, task, expected):
        assert StatusCombo.of(timing(5, job, task)) is expected


class TestThresholdSweep:
    def test_cumulative_counts(self):
        ts = [timing(0.5), timing(1.5), timing(30.0), timing(80.0, status="failed")]
        sweep = threshold_sweep(ts, thresholds=[1, 2, 50, 100])
        ok = StatusCombo.JOB_OK_TASK_OK
        assert sweep.below(ok, 1) == 1
        assert sweep.below(ok, 2) == 2
        assert sweep.below(ok, 50) == 3
        assert sweep.below(ok, 100) == 3
        assert sweep.above(StatusCombo.JOB_FAIL_TASK_OK, 50) == 1

    def test_cumulative_monotone(self):
        ts = [timing(float(p)) for p in range(0, 100, 7)]
        sweep = threshold_sweep(ts)
        for combo in StatusCombo:
            series = sweep.cumulative[combo]
            assert series == sorted(series)

    def test_tail_total(self):
        ts = [timing(80.0), timing(90.0, status="failed"), timing(10.0)]
        sweep = threshold_sweep(ts, thresholds=[75, 100])
        assert sweep.tail_total(75) == 2

    def test_success_fraction(self):
        ts = [timing(1), timing(1), timing(1, status="failed")]
        sweep = threshold_sweep(ts)
        assert sweep.success_fraction() == pytest.approx(2 / 3)

    def test_failure_enrichment(self):
        ts = [timing(1.0)] * 8 + [timing(90.0, status="failed")] * 2
        sweep = threshold_sweep(ts, thresholds=[75, 100])
        assert sweep.failure_enrichment(75) > 1.0

    def test_tail_requires_grid_to_100(self):
        sweep = threshold_sweep([timing(5)], thresholds=[10, 50])
        with pytest.raises(ValueError):
            sweep.above(StatusCombo.JOB_OK_TASK_OK, 10)

    def test_study_tail_is_failure_enriched(self, small_report):
        """Fig 9's core finding on simulated data."""
        sweep = threshold_sweep_result(small_report["exact"])
        assert 0.6 < sweep.success_fraction() < 0.95
        if sweep.tail_total(75) >= 3:
            assert sweep.failure_enrichment(75) > 1.0


def match_with(transfers, **job_kw) -> JobMatch:
    job = make_job(**job_kw)
    return JobMatch(job=job, transfers=transfers)


class TestTimeline:
    def test_relative_axes(self):
        m = match_with(
            [make_transfer(start=10.0, end=60.0)],
            creation=0.0, start=100.0, end=400.0,
        )
        tl = build_timeline(m)
        assert tl.queuing_time == 100.0 and tl.wall_time == 300.0
        assert tl.transfers[0].rel_start == 10.0
        assert tl.transfers[0].rel_end == 60.0

    def test_missing_times_none(self):
        m = match_with([], start=None, end=None)
        assert build_timeline(m) is None

    def test_throughput_spread(self):
        m = match_with([
            make_transfer(row_id=1, size=1000, start=0.0, end=1.0),    # 1000 B/s
            make_transfer(row_id=2, size=1000, start=1.0, end=101.0),  # 10 B/s
        ])
        tl = build_timeline(m)
        assert tl.throughput_spread() == pytest.approx(100.0)

    def test_sequential_detection(self):
        seq = match_with([
            make_transfer(row_id=1, start=0.0, end=10.0),
            make_transfer(row_id=2, start=10.0, end=20.0),
        ])
        par = match_with([
            make_transfer(row_id=1, start=0.0, end=10.0),
            make_transfer(row_id=2, start=3.0, end=13.0),
        ])
        assert build_timeline(seq).transfers_are_sequential()
        assert not build_timeline(par).transfers_are_sequential()

    def test_sequential_tolerance_equality_edge(self):
        """Overlap of exactly ``tolerance`` counts as sequential (closed
        semantics); one epsilon more does not.  The overlap is measured
        directly (e1 - s2 > tolerance), so the edge no longer depends
        on the magnitude of the absolute timestamps."""
        exactly = match_with([
            make_transfer(row_id=1, start=0.0, end=10.0),
            make_transfer(row_id=2, start=9.0, end=20.0),   # overlap == 1.0
        ])
        over = match_with([
            make_transfer(row_id=1, start=0.0, end=10.0),
            make_transfer(row_id=2, start=8.5, end=20.0),   # overlap == 1.5
        ])
        assert build_timeline(exactly).transfers_are_sequential(tolerance=1.0)
        assert not build_timeline(over).transfers_are_sequential(tolerance=1.0)
        # Large offsets: near 2**53 the float spacing is 2.0, so the old
        # shifted bound ``s2 < e1 - tolerance`` rounded (base+2) - 1 back
        # down to base and reported a 2-second overlap as sequential.
        # Direct subtraction measures the overlap exactly.
        base = 2.0**53
        shifted = match_with([
            make_transfer(row_id=1, start=base, end=base + 2.0),
            make_transfer(row_id=2, start=base, end=base + 4.0),
        ])
        assert not build_timeline(shifted).transfers_are_sequential(tolerance=1.0)

    def test_spanning_detection(self):
        m = match_with(
            [make_transfer(start=50.0, end=1500.0)],
            creation=0.0, start=1000.0, end=2000.0,
        )
        tl = build_timeline(m)
        assert len(tl.transfers_spanning_execution()) == 1

    def test_queue_transfer_fraction(self):
        m = match_with(
            [make_transfer(start=0.0, end=83.0)],
            creation=0.0, start=100.0, end=200.0,
        )
        assert build_timeline(m).queue_transfer_fraction() == pytest.approx(0.83)


class TestCaseStudySelectors:
    def test_fig10_selector(self):
        good = match_with(
            [make_transfer(row_id=1, start=0.0, end=40.0),
             make_transfer(row_id=2, start=40.0, end=90.0)],
            creation=0.0, start=100.0, end=200.0,
        )
        out = find_high_staging_success([good], min_fraction=0.5)
        assert len(out) == 1
        assert out[0].queue_transfer_fraction() >= 0.5

    def test_fig10_excludes_failed(self):
        bad = match_with(
            [make_transfer(row_id=1, start=0.0, end=40.0),
             make_transfer(row_id=2, start=40.0, end=90.0)],
            creation=0.0, start=100.0, end=200.0, status="failed",
        )
        assert find_high_staging_success([bad]) == []

    def test_fig11_selector(self):
        failed = match_with(
            [make_transfer(start=50.0, end=1500.0)],
            creation=0.0, start=1000.0, end=2000.0, status="failed",
        )
        ok = match_with(
            [make_transfer(start=50.0, end=1500.0)],
            creation=0.0, start=1000.0, end=2000.0,
        )
        out = find_failed_with_overlap([failed, ok])
        assert [t.pandaid for t in out] == [failed.job.pandaid]

    def test_sequential_underutilized_selector(self):
        m = match_with([
            make_transfer(row_id=1, size=10000, start=0.0, end=1.0),
            make_transfer(row_id=2, size=10000, start=1.0, end=101.0),
        ])
        out = find_sequential_underutilized([m], min_spread=5.0)
        assert len(out) == 1
