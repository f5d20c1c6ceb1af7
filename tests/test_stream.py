"""Tests for the streaming ingest + incremental matching subsystem.

The load-bearing requirement is **bit-identical accumulation**: after a
streaming replay of a window — in any delivery order, at any micro-batch
size, with any sufficient lateness bound — the accumulated state equals
the reference batch report (``tests/oracle.py``) via dataclass ``==``,
for Exact/RM1/RM2.
The hypothesis suite drives exactly that property; the unit tests cover
the building blocks (event log, watermark, the store's micro-batch
``ingest_batch``, folds, metrics, the live collector tap).
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching.base import BaseMatcher
from repro.core.matching.pipeline import MatchingPipeline
from repro.exec import ArtifactCache, WindowPlan, default_matchers
from repro.grid.presets import build_mini
from repro.metastore.packsource import PackSource
from repro.obs import Obs, use_obs
from repro.scenarios.runtime import HarnessConfig, SimulationHarness
from repro.stream import (
    EventKind,
    EventLog,
    IncrementalMatcher,
    StreamingCollector,
    StreamProcessor,
    WatermarkTracker,
    replay_window,
)
from repro.workload.generator import WorkloadConfig

from tests import oracle
from tests.helpers import make_file, make_job, make_transfer, matching_triple

# -- shared material --------------------------------------------------------------
#
# One 24-hour mini-campaign, streamed live through StreamingCollector.
# Small enough to simulate in under a second, big enough to produce
# real matches (dozens per method) — every replay-parity test below
# reuses its event log and batch report.


@pytest.fixture(scope="module")
def live_harness() -> SimulationHarness:
    cfg = HarnessConfig(
        seed=11,
        workload=WorkloadConfig(
            duration=24 * 3600.0,
            analysis_tasks_per_hour=6.0,
            production_tasks_per_hour=0.5,
            background_transfers_per_hour=30.0,
        ),
        drain=12 * 3600.0,
    )
    harness = SimulationHarness(
        cfg, topology=build_mini(seed=11), collector_factory=StreamingCollector
    )
    harness.run()
    return harness


@pytest.fixture(scope="module")
def live_log(live_harness) -> EventLog:
    return live_harness.collector.log


@pytest.fixture(scope="module")
def live_batch(live_harness, live_log):
    """The oracle's batch report over exactly the log's records."""
    source = oracle.RecordSource(
        [e.record for e in live_log if e.kind is EventKind.JOB],
        [f for e in live_log if e.kind is EventKind.JOB for f in e.files],
        [e.record for e in live_log if e.kind is EventKind.TRANSFER],
    )
    return oracle.build_report(
        source,
        WindowPlan(*live_harness.window),
        default_matchers(live_harness.known_site_names()),
    )


def _disorder_bound(events) -> float:
    """Max lateness any transfer in this delivery order exhibits."""
    seen = float("-inf")
    bound = 0.0
    for e in events:
        if e.kind is EventKind.TRANSFER:
            seen = max(seen, e.time)
            bound = max(bound, seen - e.time)
    return bound


def _stream(live_harness, events, batches, lateness=0.0) -> StreamProcessor:
    t0, t1 = live_harness.window
    proc = StreamProcessor(
        t0, t1, known_sites=live_harness.known_site_names(), lateness=lateness
    )
    proc.run(batches)
    return proc


# -- watermark --------------------------------------------------------------------


class TestWatermarkTracker:
    def test_starts_at_minus_inf(self):
        w = WatermarkTracker()
        assert w.watermark == float("-inf")
        assert w.max_event_time == float("-inf")
        assert not w.closed

    def test_watermark_trails_max_by_lateness(self):
        w = WatermarkTracker(lateness=5.0)
        w.observe(10.0)
        assert w.max_event_time == 10.0
        assert w.watermark == 5.0
        assert w.lag == 5.0

    def test_watermark_is_monotone(self):
        w = WatermarkTracker()
        w.observe(10.0)
        w.observe(3.0)  # out-of-order event cannot move it backwards
        assert w.watermark == 10.0

    def test_late_and_close_predicates(self):
        w = WatermarkTracker(lateness=5.0)
        w.observe(10.0)
        assert w.is_late(4.9)
        assert not w.is_late(5.0)
        assert w.can_close(5.0)
        assert not w.can_close(5.1)

    def test_close_flushes_everything(self):
        w = WatermarkTracker(lateness=100.0)
        w.observe(10.0)
        w.close()
        assert w.closed
        assert w.watermark == float("inf")
        assert w.lag == 0.0
        assert w.can_close(1e18)

    def test_rejects_negative_lateness(self):
        with pytest.raises(ValueError):
            WatermarkTracker(lateness=-1.0)

    def test_lag_is_zero_before_first_event(self):
        # Regression: both terms are -inf pre-event and the raw
        # subtraction is NaN; the defined pre-event lag is 0.0.
        w = WatermarkTracker(lateness=5.0)
        assert w.lag == 0.0
        assert not np.isnan(w.lag)
        assert not w.has_observed
        w.observe(10.0)
        assert w.has_observed
        assert w.lag == 5.0


# -- event log --------------------------------------------------------------------


class TestEventLog:
    def _telemetry(self, live_harness):
        return live_harness.telemetry()

    def test_seqs_are_snapshot_positions(self, live_harness):
        """Sequence numbers equal bulk-ingest doc ids, even after the
        time sort and even for kinds whose earlier rows were filtered."""
        tele = self._telemetry(live_harness)
        t0, t1 = live_harness.window
        log = EventLog.from_telemetry(tele, t0, t1)
        for ev in log:
            snapshot = tele.jobs if ev.kind is EventKind.JOB else tele.transfers
            assert snapshot[ev.seq] is ev.record

    def test_events_are_time_ordered(self, live_harness):
        tele = self._telemetry(live_harness)
        t0, t1 = live_harness.window
        log = EventLog.from_telemetry(tele, t0, t1)
        times = [e.time for e in log]
        assert times == sorted(times)

    def test_transfers_sort_before_jobs_at_equal_time(self):
        job = make_job(pandaid=1, end=100.0)
        transfer = make_transfer(row_id=1, start=100.0, end=150.0)
        log = EventLog.from_telemetry(
            type("T", (), {"jobs": [job], "files": [], "transfers": [transfer]})(),
            0.0,
            1000.0,
        )
        assert [e.kind for e in log] == [EventKind.TRANSFER, EventKind.JOB]

    def test_window_bounds_trim_like_preselection(self):
        jobs = [make_job(pandaid=1, end=50.0), make_job(pandaid=2, end=150.0),
                make_job(pandaid=3, end=None)]
        transfers = [make_transfer(row_id=1, start=50.0, end=60.0),
                     make_transfer(row_id=2, start=99.9, end=110.0),
                     make_transfer(row_id=3, start=100.0, end=110.0)]
        tele = type("T", (), {"jobs": jobs, "files": [], "transfers": transfers})()
        log = EventLog.from_telemetry(tele, 0.0, 100.0)
        assert {(e.kind, e.record.pandaid if e.kind is EventKind.JOB
                 else e.record.row_id) for e in log} == {
            (EventKind.JOB, 1), (EventKind.TRANSFER, 1), (EventKind.TRANSFER, 2),
        }

    def test_job_events_carry_their_file_rows(self, live_harness):
        tele = self._telemetry(live_harness)
        t0, t1 = live_harness.window
        log = EventLog.from_telemetry(tele, t0, t1)
        by_pid = {}
        for f in tele.files:
            by_pid.setdefault(f.pandaid, []).append(f)
        job_events = [e for e in log if e.kind is EventKind.JOB]
        assert job_events
        for ev in job_events:
            assert list(ev.files) == by_pid.get(ev.record.pandaid, [])

    def test_count_batches_partition_the_log(self, live_log):
        batches = list(live_log.micro_batches(batch_events=97))
        assert sum(len(b) for b in batches) == len(live_log)
        assert all(len(b) <= 97 for b in batches)
        assert all(len(b) == 97 for b in batches[:-1])
        flat = [e for b in batches for e in b]
        assert flat == list(live_log)

    def test_time_batches_partition_and_bound_spans(self, live_log):
        span = 2 * 3600.0
        batches = list(live_log.micro_batches(batch_seconds=span))
        assert [e for b in batches for e in b] == list(live_log)
        assert all(b for b in batches)
        # the log is time-ordered, so every batch covers < one span
        for b in batches:
            assert b[-1].time - b[0].time < span

    def test_batching_requires_exactly_one_mode(self, live_log):
        with pytest.raises(ValueError):
            list(live_log.micro_batches())
        with pytest.raises(ValueError):
            list(live_log.micro_batches(batch_seconds=10.0, batch_events=5))
        with pytest.raises(ValueError):
            list(live_log.micro_batches(batch_events=0))
        with pytest.raises(ValueError):
            list(live_log.micro_batches(batch_seconds=0.0))


# -- the store's micro-batch ingest ------------------------------------------------


def _bulk_source(jobs=(), files=(), transfers=()) -> PackSource:
    return PackSource.from_records(list(jobs), list(files), list(transfers))


class TestIngestBatch:
    def _chunks(self, seq, n):
        return [seq[i : i + n] for i in range(0, len(seq), n)]

    def test_matches_bulk_ingest(self, live_harness):
        """The first query may come before any batch, midway, or only
        after the last: the answers equal the bulk store's each time."""
        tele = live_harness.telemetry()
        bulk = _bulk_source(tele.jobs, tele.files, tele.transfers)
        t0, t1 = live_harness.window
        pandaids = [j.pandaid for j in bulk.user_jobs_completed_in(t0, t1)]

        def answers(source):
            return (
                list(source.user_jobs_completed_in(t0, t1)),
                list(source.transfers_started_in(t0, t1)),
                list(source.files_of_jobs(pandaids)),
            )

        expected = answers(bulk)
        batches = list(zip(
            self._chunks(tele.jobs, 7) + [[]] * 99,
            self._chunks(tele.files, 19) + [[]] * 99,
            self._chunks(tele.transfers, 23) + [[]] * 99,
        ))
        for first_query in (0, len(batches) // 2, len(batches)):
            inc = _bulk_source()
            for k, (jobs, files, transfers) in enumerate(batches):
                if k == first_query:
                    answers(inc)
                inc.ingest_batch(jobs=jobs, files=files, transfers=transfers)
            assert answers(inc) == expected

    def test_extends_packs_in_place(self):
        source = _bulk_source(transfers=[make_transfer(row_id=1, start=1.0)])
        packs = source.column_packs()
        source.ingest_batch(transfers=[make_transfer(row_id=2, start=2.0)])
        extended = source.column_packs()
        assert len(extended.transfers.starttime) == 2
        # the append extended the columns; the old packs are untouched
        assert extended is not packs
        assert len(packs.transfers) == 1
        np.testing.assert_array_equal(extended.transfers.row_id, [1, 2])

    def test_pack_extension_matches_full_lower(self, live_harness):
        tele = live_harness.telemetry()
        bulk = _bulk_source(tele.jobs, tele.files, tele.transfers)
        inc = _bulk_source()
        inc.ingest_batch(
            jobs=tele.jobs[:5], files=tele.files[:9], transfers=tele.transfers[:11]
        )
        inc.ingest_batch(
            jobs=tele.jobs[5:], files=tele.files[9:], transfers=tele.transfers[11:]
        )
        a, b = inc.column_packs(), bulk.column_packs()
        np.testing.assert_array_equal(a.jobs.pandaid, b.jobs.pandaid)
        np.testing.assert_array_equal(a.transfers.starttime, b.transfers.starttime)
        # string codes are interner-local; compare the decoded values
        assert [inc.interner.decode(c) for c in a.files.lfn] == [
            bulk.interner.decode(c) for c in b.files.lfn
        ]
        assert [inc.interner.decode(c) for c in a.transfers.lfn] == [
            bulk.interner.decode(c) for c in b.transfers.lfn
        ]

    def test_invalidates_artifact_cache(self):
        job = make_job(end=2000.0)
        source = _bulk_source(
            jobs=[job], files=[make_file()], transfers=[make_transfer()]
        )
        cache = ArtifactCache(source)
        plan = WindowPlan(0.0, 10_000.0)
        stale = cache.get(plan)
        source.ingest_batch(jobs=[make_job(pandaid=2, jeditaskid=200, end=2100.0)])
        fresh = cache.get(plan)
        assert fresh is not stale
        assert len(fresh.jobs) == 2
        assert cache.misses == 2

    def test_append_bumps_generation(self):
        source = _bulk_source(transfers=[make_transfer(row_id=1)])
        gen = source.generation
        source.ingest_batch()
        assert source.generation == gen  # an empty batch changes nothing
        source.ingest_batch(transfers=[make_transfer(row_id=2)])
        assert source.generation > gen


# -- the stream holds no store ---------------------------------------------------


class TestStorelessReplay:
    def test_replay_opens_no_ingest_span(self, live_harness, live_log, live_batch):
        """The stream keeps accepted events in its own pending state:
        a replay appends to no store."""
        bundle = Obs.collecting()
        with use_obs(bundle):
            proc = _stream(
                live_harness, None, live_log.micro_batches(batch_seconds=2 * 3600.0)
            )
        assert proc.report() == live_batch
        names = {s.name for s in bundle.tracer.spans}
        assert "stream.batch" in names
        assert "metastore.ingest_batch" not in names

    def test_out_of_window_events_are_still_counted(self):
        """The matcher drops events outside [t0, t1) (and non-user
        jobs), but the metrics count every event it was handed."""
        log = EventLog()
        log.append_job(make_job(pandaid=1, end=2000.0))  # accepted
        log.append_job(make_job(pandaid=2, end=9000.0))  # ends after t1
        log.append_job(make_job(pandaid=3, end=500.0))  # ends before t0
        log.append_job(make_job(pandaid=4, end=2500.0, label="managed"))
        log.append_transfer(make_transfer(row_id=1, start=1500.0))  # accepted
        log.append_transfer(make_transfer(row_id=2, start=10.0))
        log.append_transfer(make_transfer(row_id=3, start=6000.0))
        proc = StreamProcessor(1000.0, 5000.0)
        proc.process(log.events[:3])
        proc.process(log.events[3:])
        proc.finish()
        m = proc.metrics()
        assert (m.n_events, m.n_job_events, m.n_transfer_events) == (7, 4, 3)
        assert (proc.matcher.n_jobs, proc.matcher.n_transfers) == (1, 1)


# -- collector window query -------------------------------------------------------


class TestTransfersInWindow:
    def test_parity_with_linear_scan(self, live_harness):
        collector = live_harness.collector
        events = collector.transfer_events
        t0, t1 = live_harness.window
        for lo, hi in [(t0, t1), (t0 + 3600.0, t0 + 7200.0), (t1, t1 + 10.0)]:
            expected = [e for e in events if lo <= e.starttime < hi]
            assert collector.transfers_in_window(lo, hi) == expected

    def test_append_invalidates_sorted_order(self):
        from repro.telemetry.collector import TelemetryCollector

        class _Ev:
            def __init__(self, s):
                self.starttime = s

        collector = TelemetryCollector(catalog=None)
        for s in (5.0, 1.0, 3.0):
            collector.on_transfer(_Ev(s))
        assert [e.starttime for e in collector.transfers_in_window(0.0, 10.0)] == [
            5.0, 1.0, 3.0,
        ]
        collector.on_transfer(_Ev(2.0))
        assert [e.starttime for e in collector.transfers_in_window(0.0, 4.0)] == [
            1.0, 3.0, 2.0,
        ]


# -- streaming vs batch parity ----------------------------------------------------


class TestStreamingParity:
    def test_in_order_replay_is_bit_identical(self, live_harness, live_log, live_batch):
        proc = _stream(
            live_harness, None, live_log.micro_batches(batch_seconds=2 * 3600.0)
        )
        stream = proc.report()
        assert set(stream.results) == {"exact", "rm1", "rm2"}
        for m in stream.results:
            assert stream[m].matched_pairs() == live_batch[m].matched_pairs()
            assert stream[m] == live_batch[m]
        assert stream == live_batch
        assert any(stream[m].matches for m in stream.results)

    def test_single_batch_replay(self, live_harness, live_log, live_batch):
        proc = _stream(live_harness, None, [list(live_log)])
        assert proc.report() == live_batch

    def test_full_study_stream_matches_batch(self, small_study, small_report):
        proc = small_study.stream(batch_seconds=6 * 3600.0)
        assert proc.report() == small_report

    def test_jobs_finalized_exactly_once(self, live_harness, live_log):
        t0, t1 = live_harness.window
        proc = StreamProcessor(t0, t1, known_sites=live_harness.known_site_names())
        deltas = [proc.process(b) for b in live_log.micro_batches(batch_events=150)]
        deltas.append(proc.finish())
        final = proc.results()
        for method in final:
            finalized = [f for d in deltas for f in d.matches[method]]
            seqs = [f.seq for f in finalized]
            assert len(seqs) == len(set(seqs))  # no double finalization
            # union of deltas, replayed in seq order == accumulated state
            assert [
                f.match for f in sorted(finalized, key=lambda f: f.seq)
            ] == final[method].matches
        # watermark is monotone over deltas
        marks = [d.watermark for d in deltas]
        assert marks == sorted(marks)

    def test_metrics_account_every_event(self, live_harness, live_log):
        proc = _stream(live_harness, None, live_log.micro_batches(batch_events=200))
        m = proc.metrics()
        assert m.n_events == len(live_log)
        assert m.n_job_events + m.n_transfer_events == m.n_events
        assert m.n_pending_jobs == 0  # finish() flushed everything
        assert m.watermark == float("inf")
        assert m.n_late_events == 0  # in-order replay is never late
        assert m.total_matched == {
            name: len(r.matches) for name, r in proc.results().items()
        }
        assert m.events_per_sec > 0

    def test_process_after_finish_raises(self, live_harness):
        proc = _stream(live_harness, None, [])
        with pytest.raises(RuntimeError):
            proc.process([])
        with pytest.raises(RuntimeError):
            proc.finish()

    def test_duplicate_job_records_stay_two_matches(self):
        """One job record object ingested twice closes as two jobs, as
        in the batch report (see test_columnar's duplicate case)."""
        job, files, transfers = matching_triple()
        tele = SimpleNamespace(jobs=[job, job], files=files + files, transfers=transfers)
        t0, t1 = 0.0, 10_000.0
        source = PackSource.from_records(tele.jobs, tele.files, tele.transfers)
        batch = MatchingPipeline(source).run(t0, t1)
        assert [len(batch[m].matches) for m in batch.methods] == [2, 2, 2]
        proc = replay_window(tele, t0, t1, batch_seconds=50.0)
        assert proc.report() == batch

    def test_rejects_non_columnar_matcher(self):
        class Weird(BaseMatcher):
            name = "weird"

            def time_ok(self, job, transfer):  # pragma: no cover
                return True

        with pytest.raises(TypeError):
            IncrementalMatcher(0.0, 1.0, matchers=[Weird()])

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batch_events=st.integers(min_value=1, max_value=400),
        extra_lateness=st.floats(min_value=0.0, max_value=7200.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_shuffled_replay_is_bit_identical(
        self, live_harness, live_log, live_batch, seed, batch_events, extra_lateness
    ):
        """THE property: any delivery order, any micro-batch size, any
        lateness at least the order's disorder bound → the accumulated
        state equals the batch report, dataclass-``==`` identical."""
        events = list(live_log)
        random.Random(seed).shuffle(events)
        lateness = _disorder_bound(events) + extra_lateness
        proc = _stream(
            live_harness,
            None,
            (events[i : i + batch_events] for i in range(0, len(events), batch_events)),
            lateness=lateness,
        )
        stream = proc.report()
        for m in stream.results:
            assert stream[m].matched_pairs() == live_batch[m].matched_pairs()
        assert stream == live_batch

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_insufficient_lateness_is_observable(
        self, live_harness, live_log, live_batch, seed
    ):
        """With zero lateness under shuffle, divergence is allowed — but
        the violation must show up in the late-event counter, and the
        stream's matches must be a subset of the batch's (closing early
        can only miss transfers, never invent them)."""
        events = list(live_log)
        random.Random(seed).shuffle(events)
        if _disorder_bound(events) == 0.0:  # pathological: still in order
            return
        proc = _stream(
            live_harness,
            None,
            (events[i : i + 100] for i in range(0, len(events), 100)),
            lateness=0.0,
        )
        assert proc.metrics().n_late_events > 0
        stream = proc.report()
        for m in stream.results:
            assert set(stream[m].matched_pairs()) <= set(live_batch[m].matched_pairs())


# -- folds ------------------------------------------------------------------------


class TestFolds:
    @pytest.fixture(scope="class")
    def streamed(self, live_harness, live_log):
        return _stream(
            live_harness, None, live_log.micro_batches(batch_seconds=3 * 3600.0)
        )

    def test_summary_fold_matches_batch_headline(self, streamed, live_batch):
        assert streamed.headline() == oracle.headline_stats(live_batch, "exact")

    def test_threshold_fold_matches_batch_sweep(self, streamed, live_batch):
        expected = oracle.threshold_sweep(oracle.timings(live_batch["exact"]))
        assert streamed.folds["thresholds"].snapshot() == expected

    def test_queuing_fold_matches_batch_tallies(self, streamed, live_batch):
        fold = streamed.folds["queuing"]
        assert fold.jobs_by_class() == oracle.jobs_by_class(live_batch["exact"])
        assert fold.local_remote_split() == oracle.local_remote_split(live_batch["exact"])

    def test_headline_requires_summary_fold(self, live_harness):
        from repro.stream import FoldSet

        t0, t1 = live_harness.window
        proc = StreamProcessor(t0, t1, folds=FoldSet({}))
        with pytest.raises(KeyError):
            proc.headline()


# -- the live tap -----------------------------------------------------------------


class TestStreamingCollector:
    def test_live_log_streams_to_batch_parity(self, live_harness, live_log, live_batch):
        """The live-collected log, streamed, equals the batch pipeline
        over the same records — and actually matches something."""
        proc = _stream(
            live_harness, None, live_log.micro_batches(batch_events=250)
        )
        assert proc.report() == live_batch
        assert any(len(r.matches) > 0 for r in proc.results().values())

    def test_collector_is_a_droppin_telemetry_collector(self, live_harness):
        collector = live_harness.collector
        assert isinstance(collector, StreamingCollector)
        # the base-class sinks still accumulated ground truth
        assert collector.n_jobs > 0
        assert collector.n_transfers > 0
        # one job event per completed job, one transfer event per
        # (lossless) transfer record
        job_events = [e for e in collector.log if e.kind is EventKind.JOB]
        assert len(job_events) == collector.n_jobs
        transfer_events = [
            e for e in collector.log if e.kind is EventKind.TRANSFER
        ]
        assert len(transfer_events) == collector.n_transfers

    def test_live_events_are_sequenced_in_arrival_order(self, live_log):
        for kind in EventKind:
            seqs = [e.seq for e in live_log if e.kind is kind]
            assert seqs == list(range(len(seqs)))
