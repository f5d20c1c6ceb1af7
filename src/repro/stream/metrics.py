"""Per-stage streaming metrics.

The processor keeps cheap running counters and timers; ``snapshot()``
freezes them into an immutable :class:`StreamMetrics` — the monitoring
surface a live deployment would scrape (events/sec, watermark lag,
pending-set size, delta sizes, per-stage seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class StreamMetrics:
    """One frozen view of a stream processor's health."""

    n_batches: int
    n_events: int
    n_job_events: int
    n_transfer_events: int
    #: transfers that violated the lateness bound at arrival
    n_late_events: int
    n_pending_jobs: int
    n_closed_jobs: int
    watermark: float
    max_event_time: float
    watermark_lag: float
    #: matches finalized in the most recent delta, per method
    last_delta: Dict[str, int]
    #: matches finalized so far, per method
    total_matched: Dict[str, int]
    ingest_s: float
    match_s: float
    fold_s: float

    @property
    def elapsed_s(self) -> float:
        return self.ingest_s + self.match_s + self.fold_s

    @property
    def events_per_sec(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.n_events / self.elapsed_s


@dataclass
class _MetricsAccumulator:
    """Mutable counters behind :class:`StreamMetrics` snapshots."""

    n_batches: int = 0
    n_events: int = 0
    n_late_events: int = 0
    n_closed_jobs: int = 0
    last_delta: Dict[str, int] = field(default_factory=dict)
    total_matched: Dict[str, int] = field(default_factory=dict)
    ingest_s: float = 0.0
    match_s: float = 0.0
    fold_s: float = 0.0

    def snapshot(
        self,
        n_job_events: int,
        n_transfer_events: int,
        n_pending_jobs: int,
        watermark: float,
        max_event_time: float,
        lag: float,
    ) -> StreamMetrics:
        return StreamMetrics(
            n_batches=self.n_batches,
            n_events=self.n_events,
            n_job_events=n_job_events,
            n_transfer_events=n_transfer_events,
            n_late_events=self.n_late_events,
            n_pending_jobs=n_pending_jobs,
            n_closed_jobs=self.n_closed_jobs,
            watermark=watermark,
            max_event_time=max_event_time,
            watermark_lag=lag,
            last_delta=dict(self.last_delta),
            total_matched=dict(self.total_matched),
            ingest_s=self.ingest_s,
            match_s=self.match_s,
            fold_s=self.fold_s,
        )
