"""Window-boundary regression tests (``repro.window``).

Every window cut in the repo — collector bisect, the brute-force
record scan the store is checked against (``tests.oracle.RecordSource``),
sharded PackSource searchsorted cuts, event-log trimming, and stream
ingest — must agree on the half-open convention ``[t0, t1)``:
records exactly at t0 are IN, records exactly at t1 are OUT.  These
tests pin that agreement with records placed exactly on the
boundaries (and, for the sharded source, exactly on shard seams, where
a float product ``(k + 1) * slice`` can round onto a record's value).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metastore.packsource import PackSource
from repro.stream import EventLog, StreamProcessor
from repro.telemetry.collector import TelemetryCollector
from repro.window import in_window

from tests.helpers import make_file, make_job, make_transfer
from tests.oracle import RecordSource

T0, T1 = 1000.0, 2000.0

#: (tag, event time, expected membership in [T0, T1))
BOUNDARY_TIMES = [
    (1, T0 - 0.5, False),   # just before the window
    (2, T0, True),          # exactly at t0 -> IN
    (3, (T0 + T1) / 2, True),
    (4, T1 - 0.5, True),    # just inside the far edge
    (5, T1, False),         # exactly at t1 -> OUT
    (6, T1 + 0.5, False),
]

EXPECTED = {tag for tag, _, keep in BOUNDARY_TIMES if keep}


def boundary_jobs():
    return [make_job(pandaid=tag, end=t) for tag, t, _ in BOUNDARY_TIMES]


def boundary_transfers():
    return [make_transfer(row_id=tag, start=t) for tag, t, _ in BOUNDARY_TIMES]


def test_in_window_is_half_open():
    assert in_window(T0, T0, T1)
    assert not in_window(T1, T0, T1)
    assert not in_window(T0 - 1e-9, T0, T1)
    assert in_window(T1 - 1e-9, T0, T1)
    assert not in_window(T0, T0, T0)  # empty window contains nothing


def test_collector_bisect_matches_convention():
    collector = TelemetryCollector(catalog=None)
    for tag, t, _ in BOUNDARY_TIMES:
        collector.on_transfer(SimpleNamespace(starttime=t, tag=tag))
        collector.on_job_done(SimpleNamespace(pandaid=tag, end_time=t))
    assert {e.tag for e in collector.transfers_in_window(T0, T1)} == EXPECTED
    assert {j.pandaid for j in collector.jobs_completed_in_window(T0, T1)} == EXPECTED


def test_record_reference_matches_convention():
    source = RecordSource(boundary_jobs(), [], boundary_transfers())
    jobs, _, transfers, _ = source.materialize_window(T0, T1)
    assert {j.pandaid for j in jobs} == EXPECTED
    assert {t.row_id for t in transfers} == EXPECTED


def test_sharded_pack_source_matches_convention():
    # shard_seconds=500 puts T0 and T1 exactly on shard seams: routing
    # may over-select shards, but the per-shard searchsorted cut must
    # still produce the exact half-open membership.
    source = PackSource.from_records(
        boundary_jobs(), [], boundary_transfers(), shard_seconds=500.0
    )
    assert {j.pandaid for j in source.jobs_completed_in(T0, T1)} == EXPECTED
    assert {t.row_id for t in source.transfers_started_in(T0, T1)} == EXPECTED
    jobs, _, transfers, _ = source.materialize_window(T0, T1)
    assert {j.pandaid for j in jobs} == EXPECTED
    assert {t.row_id for t in transfers} == EXPECTED


def _reference_window(jobs, transfers, t0, t1):
    """(jobs, transfers) of the brute-force scan, any job label."""
    found = RecordSource(jobs, [], transfers).materialize_window(t0, t1, False)
    return found[0], found[2]


@pytest.mark.parametrize(
    "slice_seconds, value",
    [
        (0.1, 0.5),  # 0.5 // 0.1 == 4, but 5 * 0.1 == 0.5
        (0.5 * 86400 / 7, 3 * (0.5 * 86400 / 7)),  # half a day in 7 slices
    ],
)
def test_pack_source_keeps_a_record_exactly_at_t0(slice_seconds, value):
    # floor_divide keys ``value`` into shard k while (k + 1) * slice
    # rounds down onto ``value``; routing must not skip shard k for a
    # window that starts at ``value``.
    jobs = [make_job(pandaid=1, end=value)]
    transfers = [make_transfer(row_id=1, start=value)]
    source = PackSource.from_records(jobs, [], transfers, shard_seconds=slice_seconds)
    t0, t1 = value, value + slice_seconds
    assert [j.pandaid for j in _reference_window(jobs, transfers, t0, t1)[0]] == [1]
    assert [j.pandaid for j in source.jobs_completed_in(t0, t1)] == [1]
    assert [t.row_id for t in source.transfers_started_in(t0, t1)] == [1]


@st.composite
def seam_population(draw):
    """A slice width and record times, many of them float products
    ``m * width`` — the values rounding can put on a shard seam."""
    width = draw(st.floats(min_value=1e-3, max_value=1e5,
                           allow_nan=False, allow_infinity=False))
    times = draw(st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=64).map(lambda m: m * width),
            st.floats(min_value=0.0, max_value=64 * width,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=8,
    ))
    return width, times


@given(seam_population(), st.integers(min_value=0), st.floats(min_value=0.0, max_value=8.0))
@settings(max_examples=200, deadline=None)
def test_window_starting_on_a_record_matches_reference(pop, pick, span):
    width, times = pop
    jobs = [make_job(pandaid=i + 1, end=t) for i, t in enumerate(times)]
    transfers = [make_transfer(row_id=i + 1, start=t) for i, t in enumerate(times)]
    source = PackSource.from_records(jobs, [], transfers, shard_seconds=width)
    t0 = times[pick % len(times)]
    t1 = t0 + span * width
    ref_jobs, ref_transfers = _reference_window(jobs, transfers, t0, t1)
    assert list(source.jobs_completed_in(t0, t1)) == ref_jobs
    assert list(source.transfers_started_in(t0, t1)) == ref_transfers


def test_event_log_trim_matches_convention():
    telemetry = SimpleNamespace(
        jobs=boundary_jobs(), files=[], transfers=boundary_transfers()
    )
    events = list(EventLog.from_telemetry(telemetry, T0, T1))
    jobs = {e.record.pandaid for e in events if hasattr(e.record, "pandaid")}
    transfers = {e.record.row_id for e in events if hasattr(e.record, "row_id")}
    assert jobs == EXPECTED and transfers == EXPECTED


def test_stream_ingest_matches_convention():
    # An untrimmed log (no bounds) hits the processor's own ingest
    # filter, which must apply the same convention.
    telemetry = SimpleNamespace(
        jobs=boundary_jobs(), files=[], transfers=boundary_transfers()
    )
    events = list(EventLog.from_telemetry(telemetry))
    processor = StreamProcessor(T0, T1, known_sites={"SITE-A"})
    processor.run([events])
    report = processor.report()
    assert report.n_jobs == len(EXPECTED)
    assert report.n_transfers == len(EXPECTED)
