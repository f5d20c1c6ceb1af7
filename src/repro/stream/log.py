"""Append-only event log of sequenced telemetry records.

The streaming counterpart of a :class:`DegradedTelemetry` snapshot: a
single ordered sequence of *record-level* events — one per completed
job (carrying its PanDA file rows) and one per transfer row.  Two
producers feed it:

* **replay** — :meth:`EventLog.from_telemetry` projects a snapshot into
  events ordered by event time (job endtime / transfer starttime), for
  deterministic micro-batch replay of a finished campaign;
* **live** — :class:`StreamingCollector` taps the simulation harness's
  telemetry sinks and appends events as they happen, projecting ground
  truth through a (by default lossless) :class:`MetadataDegrader`.

Every event carries a per-kind sequence number assigned in *snapshot /
arrival* order.  That sequence is the parity anchor: the incremental
matcher keys all of its internal ordering on it, so replaying events in
any delivery order reproduces the batch pipeline's ingestion-order
semantics exactly (see DESIGN.md §9).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.panda.job import Job
from repro.rucio.catalog import DidCatalog
from repro.rucio.transfer import TransferEvent
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.degradation import (
    DegradationConfig,
    DegradedTelemetry,
    MetadataDegrader,
)
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord
from repro.window import in_window


class EventKind(enum.Enum):
    """What a stream event describes."""

    JOB = "job"
    TRANSFER = "transfer"


@dataclass(frozen=True)
class StreamEvent:
    """One sequenced telemetry event.

    ``seq`` counts per kind in snapshot/arrival order; ``time`` is the
    event time the watermark tracks (job endtime / transfer starttime).
    Job events carry the job's PanDA file rows — in the real pipeline
    they land in the file table together with the job's archive row.
    """

    kind: EventKind
    seq: int
    time: float
    record: object  # JobRecord | TransferRecord
    files: Tuple[FileRecord, ...] = ()


class EventLog:
    """Append-only, sequenced event sequence."""

    def __init__(self) -> None:
        self.events: List[StreamEvent] = []
        self._job_seq = 0
        self._transfer_seq = 0

    def append_job(self, record: JobRecord, files: Sequence[FileRecord] = ()) -> StreamEvent:
        ev = StreamEvent(
            kind=EventKind.JOB,
            seq=self._job_seq,
            time=record.endtime if record.endtime is not None else float("-inf"),
            record=record,
            files=tuple(files),
        )
        self._job_seq += 1
        self.events.append(ev)
        return ev

    def append_transfer(self, record: TransferRecord) -> StreamEvent:
        ev = StreamEvent(
            kind=EventKind.TRANSFER,
            seq=self._transfer_seq,
            time=record.starttime,
            record=record,
        )
        self._transfer_seq += 1
        self.events.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[StreamEvent]:
        return iter(self.events)

    @classmethod
    def from_telemetry(
        cls,
        telemetry: DegradedTelemetry,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> "EventLog":
        """Project a snapshot into an event-time-ordered log.

        Sequence numbers are assigned in *snapshot* order before the
        time sort — they are exactly the doc ids a bulk ingest of the
        same snapshot would produce, which is what makes streaming
        replay bit-identical to the batch pipeline.  Jobs without an
        endtime never close a window (and can never match: condition
        (1) needs an endtime), so they are left out of the log; window
        bounds, when given, trim jobs and transfers the batch
        pre-selection would not retrieve either.
        """
        log = cls()
        files_by_pid: dict = {}
        for f in telemetry.files:
            files_by_pid.setdefault(f.pandaid, []).append(f)

        staged: List[Tuple[float, int, StreamEvent]] = []
        for j in telemetry.jobs:
            seq = log._job_seq
            log._job_seq += 1
            if j.endtime is None:
                continue
            if t0 is not None and not in_window(j.endtime, t0, t1):
                continue
            ev = StreamEvent(
                kind=EventKind.JOB,
                seq=seq,
                time=j.endtime,
                record=j,
                files=tuple(files_by_pid.get(j.pandaid, ())),
            )
            staged.append((ev.time, 1, ev))
        for t in telemetry.transfers:
            seq = log._transfer_seq
            log._transfer_seq += 1
            if t0 is not None and not in_window(t.starttime, t0, t1):
                continue
            ev = StreamEvent(
                kind=EventKind.TRANSFER, seq=seq, time=t.starttime, record=t
            )
            staged.append((ev.time, 0, ev))
        # Transfers sort before jobs at equal times (rank 0 vs 1):
        # a job window closing at time T must see every transfer that
        # could still pass `starttime < T`.
        staged.sort(key=lambda s: (s[0], s[1], s[2].seq))
        log.events = [ev for _, _, ev in staged]
        return log

    def micro_batches(
        self,
        batch_seconds: Optional[float] = None,
        batch_events: Optional[int] = None,
    ) -> Iterator[List[StreamEvent]]:
        """Deterministic micro-batches, by event-time span or by count.

        Time-based batching cuts at fixed boundaries from the first
        event's time onward; events are taken in log order, so a late
        (out-of-order) event simply lands in the batch that is open
        when it arrives — exactly the situation the watermark tracker
        exists to absorb.
        """
        if (batch_seconds is None) == (batch_events is None):
            raise ValueError("pass exactly one of batch_seconds / batch_events")
        if not self.events:
            return
        if batch_events is not None:
            if batch_events < 1:
                raise ValueError("batch_events must be >= 1")
            for i in range(0, len(self.events), batch_events):
                yield self.events[i : i + batch_events]
            return
        if batch_seconds <= 0:
            raise ValueError("batch_seconds must be > 0")
        base = self.events[0].time
        boundary = base + batch_seconds
        batch: List[StreamEvent] = []
        for ev in self.events:
            while ev.time >= boundary and batch:
                yield batch
                batch = []
                boundary += batch_seconds
            if ev.time >= boundary:  # empty span(s): just advance
                boundary += batch_seconds * (
                    np.floor((ev.time - boundary) / batch_seconds) + 1
                )
            batch.append(ev)
        if batch:
            yield batch


class StreamingCollector(TelemetryCollector):
    """Live tap: a collector that also feeds an :class:`EventLog`.

    Drop-in for :class:`TelemetryCollector` via the harness's
    ``collector_factory`` hook — the simulation's FTS/PanDA sinks are
    unchanged, but every ground-truth event is additionally projected
    to a record (through ``degrader``, lossless by default) and
    appended to ``log`` at the moment it happens.  Task status is
    recorded as it stands at completion time ("finished" when the task
    is not tracked), matching what a live archive poll would see.
    """

    def __init__(
        self,
        catalog: DidCatalog,
        log: Optional[EventLog] = None,
        degrader: Optional[MetadataDegrader] = None,
    ) -> None:
        super().__init__(catalog)
        self.log = log if log is not None else EventLog()
        self.degrader = degrader or MetadataDegrader(
            DegradationConfig.lossless(), np.random.default_rng(0)
        )
        self._events_by_job: dict = {}

    def on_transfer(self, event: TransferEvent) -> None:
        super().on_transfer(event)
        if event.pandaid:
            self._events_by_job.setdefault(event.pandaid, []).append(event)
        rec = self.degrader.degrade_transfer(event)
        if rec is not None:
            self.log.append_transfer(rec)

    def on_job_done(self, job: Job) -> None:
        super().on_job_done(job)
        rec = self.degrader.job_record(job, None)
        files = self.degrader.file_records(
            job, self, self._events_by_job.get(job.pandaid, [])
        )
        self.log.append_job(rec, files)
