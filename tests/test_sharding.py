"""Shard-parity tests for the one time-sharded index (``PackSource``).

``PackSource`` partitions job endtimes and transfer starttimes into
per-slice sorted ``(values, ids)`` shards.  The load-bearing
requirement is that sharding is a *representation* change, never a
semantic one: at slice widths of one, one half and one seventh of the
window, window materialization and match reports must equal the
brute-force record scan's (``tests.oracle.RecordSource``), and the streaming
replay must equal the batch report at every width — including windows
that straddle shard seams.  The hypothesis suite drives that property
over random populations; the unit tests cover key assignment, routing,
and tail-shard appends.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching.pipeline import MatchingPipeline
from repro.metastore.packsource import PackSource, _TimeShards
from repro.stream import EventLog, StreamProcessor
from repro.telemetry.degradation import DegradedTelemetry
from repro.telemetry.groundtruth import GroundTruth

from tests.helpers import make_file, make_job, make_transfer
from tests.oracle import RecordSource

WINDOW = 7 * 86400.0
KNOWN_SITES = {"SITE-A", "SITE-B"}
#: Slice widths giving 1, 2 and 7 shards over the window.
SHARD_SECONDS = (WINDOW, WINDOW / 2, WINDOW / 7)


def _jobs(*ends, first_pandaid=1):
    return [
        make_job(pandaid=first_pandaid + i, jeditaskid=100 + i, end=e, site="SITE-A")
        for i, e in enumerate(ends)
    ]


# -- key assignment and routing ---------------------------------------------------


class TestTimeShards:
    def test_shard_key_floors_by_slice(self):
        shards = _TimeShards(np.array([0.0, 99.9, 100.0, 250.0, -1.0]), 100.0).shards
        assert sorted(shards) == [-1, 0, 1, 2]
        assert shards[0][1].tolist() == [0, 1]
        assert shards[1][1].tolist() == [2]
        assert shards[2][1].tolist() == [3]
        assert shards[-1][1].tolist() == [4]

    def test_nan_values_are_not_indexed(self):
        # NaN stands for a missing timestamp (``None`` on the record),
        # which no range query can return.
        shards = _TimeShards(np.array([np.nan, 50.0, np.nan]), 100.0)
        assert sorted(shards.shards) == [0]
        assert shards.ids_in(-math.inf, math.inf).tolist() == [1]

    def test_route_range_returns_overlapped_run(self):
        shards = _TimeShards(np.array([10.0, 150.0, 250.0, 350.0]), 100.0)
        assert shards.route(150.0, 250.0) == [1, 2]
        # Boundary value 200.0 lives in shard 2 only, but t0=200 must
        # not drop shard 2; t1=200 must not include it spuriously.
        assert shards.route(200.0, 400.0) == [2, 3]
        assert shards.route(100.0, 200.0) == [1]

    def test_route_range_unbounded_sides(self):
        shards = _TimeShards(np.array([10.0, 150.0, 250.0]), 100.0)
        assert shards.route(-math.inf, 150.0) == [0, 1]
        assert shards.route(150.0, math.inf) == [1, 2]
        assert shards.route(-math.inf, math.inf) == [0, 1, 2]
        assert shards.route(math.inf, math.inf) == []
        assert shards.route(-math.inf, -math.inf) == []


# -- population strategy ----------------------------------------------------------


@st.composite
def population(draw):
    """A small telemetry snapshot with matchable structure.

    Jobs spread across the whole window (so any multi-shard config
    splits them); a drawn subset of each job's files gets a matching
    transfer, plus taskid-less background transfers that must never
    join.
    """
    jobs, files, transfers = [], [], []
    row_id = 1
    n_tasks = draw(st.integers(min_value=1, max_value=4))
    for task in range(n_tasks):
        taskid = 100 + task
        label = draw(st.sampled_from(["user", "managed"]))
        for j in range(draw(st.integers(min_value=1, max_value=3))):
            pandaid = 1000 + task * 10 + j
            end = draw(st.floats(min_value=1.0, max_value=WINDOW - 1.0,
                                 allow_nan=False))
            site = draw(st.sampled_from(["SITE-A", "SITE-B", "UNKNOWN"]))
            n_files = draw(st.integers(min_value=1, max_value=3))
            jobs.append(make_job(pandaid=pandaid, jeditaskid=taskid, site=site,
                                 end=end, nin=n_files * 1000, label=label))
            for k in range(n_files):
                lfn = f"t{task}j{j}f{k}"
                files.append(make_file(pandaid=pandaid, jeditaskid=taskid,
                                       lfn=lfn, size=1000))
                if draw(st.booleans()):
                    start = max(end - draw(st.floats(min_value=1.0,
                                                     max_value=3600.0)), 0.5)
                    transfers.append(make_transfer(
                        row_id=row_id, lfn=lfn, size=1000, src=site, dst=site,
                        start=start, end=start + 10.0, jeditaskid=taskid))
                    row_id += 1
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        start = draw(st.floats(min_value=0.0, max_value=WINDOW - 1.0,
                               allow_nan=False))
        transfers.append(make_transfer(
            row_id=row_id, lfn=f"bg{row_id}", start=start, end=start + 5.0,
            jeditaskid=0, activity="Data Consolidation", download=False))
        row_id += 1
    return jobs, files, transfers


@st.composite
def window(draw):
    """A sub-window; shard boundaries at k*W/2 and k*W/7 fall inside it
    for most draws, so boundary-straddling is the common case."""
    t0 = draw(st.floats(min_value=0.0, max_value=WINDOW / 2, allow_nan=False))
    t1 = draw(st.floats(min_value=t0 + WINDOW / 4, max_value=WINDOW,
                        allow_nan=False))
    return t0, t1


def _reference(jobs, files, transfers) -> RecordSource:
    return RecordSource(jobs, files, transfers)


def _pack_sources(jobs, files, transfers):
    return [
        PackSource.from_records(jobs, files, transfers, shard_seconds=w)
        for w in SHARD_SECONDS
    ]


# -- the parity property ----------------------------------------------------------


class TestShardParity:
    @given(population(), window())
    @settings(max_examples=40, deadline=None)
    def test_window_materialization_is_identical(self, pop, win):
        t0, t1 = win
        jobs, files, transfers, columns = _reference(*pop).materialize_window(t0, t1)
        for src in _pack_sources(*pop):
            got_jobs, got_files, got_transfers, got_columns = (
                src.materialize_window(t0, t1)
            )
            assert list(got_jobs) == jobs
            assert list(got_files) == files
            assert list(got_transfers) == transfers
            assert np.array_equal(got_columns.jobs.pandaid, columns.jobs.pandaid)
            assert np.array_equal(got_columns.transfers.row_id,
                                  columns.transfers.row_id)

    @given(population(), window())
    @settings(max_examples=25, deadline=None)
    def test_match_reports_are_identical(self, pop, win):
        t0, t1 = win
        base = MatchingPipeline(_reference(*pop), known_sites=KNOWN_SITES).run(t0, t1)
        for src in _pack_sources(*pop):
            r = MatchingPipeline(src, known_sites=KNOWN_SITES).run(t0, t1)
            for m in base.methods:
                assert r[m].matched_pairs() == base[m].matched_pairs()
                assert r[m] == base[m]
            assert r == base

    @given(population())
    @settings(max_examples=15, deadline=None)
    def test_streaming_accumulation_is_identical(self, pop):
        jobs, files, transfers = pop
        telemetry = DegradedTelemetry(jobs, files, transfers,
                                      ground_truth=GroundTruth())
        log = EventLog.from_telemetry(telemetry, 0.0, WINDOW)
        proc = StreamProcessor(0.0, WINDOW, known_sites=KNOWN_SITES)
        proc.run(log.micro_batches(batch_seconds=WINDOW / 5))
        streamed = proc.report()
        for src in _pack_sources(*pop):
            batch = MatchingPipeline(src, known_sites=KNOWN_SITES).run(0.0, WINDOW)
            assert streamed == batch

    def test_shard_counts_reports_partitioning(self):
        src = PackSource.from_records(
            _jobs(10.0, WINDOW / 2 + 10.0),
            [make_file(pandaid=1)],
            [make_transfer(row_id=1, start=10.0)],
            shard_seconds=WINDOW / 2,
        )
        counts = src.shard_counts()
        assert counts["jobs"] == 2
        assert counts["files"] == 1  # files are looked up by pandaid, unsharded
        assert counts["transfers"] == 1

    def test_sharded_ingest_lands_in_tail_shard_only(self):
        src = PackSource.from_records(
            _jobs(10.0, 150.0), [], [make_transfer(row_id=1, start=20.0)],
            shard_seconds=100.0,
        )
        jobs_before = dict(src._job_shards.shards)
        transfers_before = dict(src._transfer_shards.shards)
        src.ingest_batch(jobs=_jobs(180.0, first_pandaid=3))
        after = src._job_shards.shards
        assert sorted(after) == [0, 1]
        assert after[0][0] is jobs_before[0][0]
        assert after[0][1] is jobs_before[0][1]
        assert after[1][1].tolist() == [1, 2]  # the tail shard took the row
        assert all(
            src._transfer_shards.shards[k] is v for k, v in transfers_before.items()
        )
        assert [j.pandaid for j in src.jobs_completed_in(100.0, 200.0)] == [2, 3]
