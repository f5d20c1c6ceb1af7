"""Incremental Algorithm-1 matching over an event stream.

:class:`IncrementalMatcher` maintains per-strategy match state while
events arrive in micro-batches, and :class:`StreamProcessor` drives it
together with the watermark tracker, the analysis folds, and the
metrics accumulator.  The contract is **bit-identical accumulation**:
after the stream is exhausted, :meth:`StreamProcessor.report` equals
the batch pipeline's :class:`MatchingReport` for the same window —
``==`` on the dataclasses, not approximate — for every matcher whose
filters the columnar kernels lower (Exact, RM1, RM2).

How parity survives arbitrary delivery orders and batch sizes:

* the stream holds no store: accepted events stay in the matcher's
  pending state, and all *matching* order is keyed on each event's
  source sequence number, never on arrival order;
* a job only closes once the transfer watermark passes its endtime, so
  its candidate set is complete at close time (any transfer observed
  later starts at or after the watermark and would fail the strict
  ``starttime < endtime`` filter);
* each close builds a delta :class:`ColumnarIndex` over exactly the
  closed jobs (sequence order), their file rows (per-job snapshot
  order), and the sequence-sorted union of their key-matching
  transfers, lowered from the records the matcher already holds
  through its own interner — the same kernels as the batch
  pipeline, over the same per-job candidate enumeration order;
* final results re-assemble each method's accumulated matches in job
  sequence order, which is exactly the batch window's job order.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.columnar.engine import ColumnarIndex, supports_columnar
from repro.columnar.interner import StringInterner
from repro.core.matching.base import BaseMatcher, JobMatch, MatchingReport, MatchResult
from repro.exec.executor import default_matchers
from repro.obs import get_obs
from repro.stream.folds import FoldSet
from repro.stream.log import EventKind, EventLog, StreamEvent
from repro.stream.metrics import StreamMetrics, _MetricsAccumulator
from repro.stream.watermark import WatermarkTracker
from repro.window import in_window

_SEQ = attrgetter("seq")


@dataclass(frozen=True)
class Finalized:
    """One newly finalized job match, tagged with its source sequence."""

    seq: int
    match: JobMatch


@dataclass
class MatchDelta:
    """What one micro-batch changed."""

    batch_id: int
    watermark: float
    n_events: int
    n_jobs_closed: int
    #: method -> newly finalized matches, in job-sequence order
    matches: Dict[str, List[Finalized]]

    def pairs(self, method: str) -> List[Tuple[int, int]]:
        """(pandaid, row_id) pairs finalized by this delta."""
        out: List[Tuple[int, int]] = []
        seen = set()
        for f in self.matches.get(method, ()):
            for t in f.match.transfers:
                pair = (f.match.job.pandaid, t.row_id)
                if pair not in seen:
                    seen.add(pair)
                    out.append(pair)
        return out

    @property
    def sizes(self) -> Dict[str, int]:
        return {m: len(v) for m, v in self.matches.items()}


class IncrementalMatcher:
    """Per-strategy incremental state for one analysis window."""

    def __init__(
        self,
        t0: float,
        t1: float,
        matchers: Optional[Sequence[BaseMatcher]] = None,
        known_sites: Optional[set] = None,
        user_jobs_only: bool = True,
    ) -> None:
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.matchers = (
            list(matchers) if matchers is not None else default_matchers(known_sites)
        )
        for m in self.matchers:
            if not supports_columnar(m):
                raise TypeError(
                    f"matcher {m.name!r} ({type(m).__name__}) overrides "
                    "predicate hooks the columnar kernels cannot lower"
                )
        #: Dictionary encoding shared by every close's delta lowering.
        self.interner = StringInterner()
        #: No matcher reads RM3's size-relaxed join.
        self._sized_only = not any(type(m).size_tolerant_join for m in self.matchers)
        self.user_jobs_only = user_jobs_only
        #: job seq -> the job event of a window that has not closed yet
        self._pending: Dict[int, StreamEvent] = {}
        self._heap: List[Tuple[float, int]] = []  # (endtime, job seq)
        #: (jeditaskid, lfn) -> transfer events, seq-sorted
        self._tkey: Dict[Tuple[int, str], List[StreamEvent]] = {}
        #: method -> {job seq -> JobMatch}, the accumulated final state
        self._final: Dict[str, Dict[int, JobMatch]] = {m.name: {} for m in self.matchers}
        self.n_jobs = 0
        self.n_transfers = 0
        self.n_transfers_with_taskid = 0
        #: every ingested event by kind, in the window or not
        self.n_job_events = 0
        self.n_transfer_events = 0

    # -- ingest ----------------------------------------------------------------

    def ingest(self, events: Sequence[StreamEvent]) -> List[float]:
        """Append one micro-batch; returns accepted transfer event times.

        Window/label filtering mirrors the batch pre-selection: jobs
        must end inside [t0, t1) (and carry the user label when
        ``user_jobs_only``), transfers must start inside it.  Accepted
        events stay in the pending state, keyed by sequence, for later
        delta closes.
        """
        jobs: List[StreamEvent] = []
        transfers: List[StreamEvent] = []
        n_transfer_events = 0
        for e in events:
            if e.kind is EventKind.TRANSFER:
                n_transfer_events += 1
                t = e.record
                if not in_window(t.starttime, self.t0, self.t1):
                    continue
                transfers.append(e)
            else:
                j = e.record
                if j.endtime is None or not in_window(j.endtime, self.t0, self.t1):
                    continue
                if self.user_jobs_only and j.prodsourcelabel != "user":
                    continue
                jobs.append(e)
        self.n_transfer_events += n_transfer_events
        self.n_job_events += len(events) - n_transfer_events

        for e in jobs:
            self._pending[e.seq] = e
            heapq.heappush(self._heap, (e.record.endtime, e.seq))
        self.n_jobs += len(jobs)

        times: List[float] = []
        for e in transfers:
            t = e.record
            if t.jeditaskid > 0:  # joinable, and the has_jeditaskid count
                insort(self._tkey.setdefault((t.jeditaskid, t.lfn), []), e, key=_SEQ)
                self.n_transfers_with_taskid += 1
            self.n_transfers += 1
            times.append(t.starttime)
        return times

    # -- close ----------------------------------------------------------------

    def close_ready(self, watermark: float) -> Tuple[int, Dict[str, List[Finalized]]]:
        """Finalize every pending job with ``endtime <= watermark``.

        One delta :class:`ColumnarIndex` covers all jobs closing
        together: jobs in sequence order, their files in per-job
        snapshot order, and the seq-sorted union of transfers sharing a
        (jeditaskid, lfn) key with any of their files — a superset cut
        that preserves the batch join's candidate enumeration order
        exactly, so the kernels produce the batch pipeline's matches.
        It lowers those records through the matcher's interner, so a
        close costs O(closing jobs + their candidates), however long
        the stream has run.  Each match maps back to its job's sequence
        through its row in the delta index, so two closing jobs sharing
        one record object stay two matches.  Each method's matches come
        from :meth:`ColumnarIndex.job_matches`, which skips the
        per-call check and tracing of :meth:`ColumnarIndex.run`.
        """
        ready: List[int] = []
        while self._heap and self._heap[0][0] <= watermark:
            _, seq = heapq.heappop(self._heap)
            ready.append(seq)
        if not ready:
            return 0, {m.name: [] for m in self.matchers}
        ready.sort()
        closing = [self._pending.pop(seq) for seq in ready]

        # A job with no (jeditaskid, lfn) key hit has no candidates under
        # any method — close it without building kernel input at all.
        # Candidate enumeration is per job (its own file keys), so
        # excluding candidate-less jobs cannot change anyone's matches.
        # Each transfer sits under exactly one key, so taking every key
        # once takes every candidate transfer once.
        active: List[StreamEvent] = []
        cand: List[StreamEvent] = []
        seen_keys: set = set()
        for p in closing:
            taskid = p.record.jeditaskid
            found = False
            for frec in p.files:
                if frec.jeditaskid != taskid:
                    continue
                key = (taskid, frec.lfn)
                run = self._tkey.get(key)
                if run:
                    found = True
                    if key not in seen_keys:
                        seen_keys.add(key)
                        cand.extend(run)
            if found:
                active.append(p)
        if not active:
            return len(closing), {m.name: [] for m in self.matchers}

        cand.sort(key=_SEQ)  # transfer sequence order == batch storage order
        index = ColumnarIndex(
            [p.record for p in active],
            [f for p in active for f in p.files],
            [e.record for e in cand],
            interner=self.interner,
        )
        if not len(index.cand_job) and self._sized_only:
            # Attributes or sizes ruled out every key hit: no matcher
            # that reads the sized join can match anything here.
            return len(closing), {m.name: [] for m in self.matchers}

        out: Dict[str, List[Finalized]] = {}
        for matcher in self.matchers:
            # The matchers were checked once, at construction.
            finalized = [
                Finalized(seq=active[row].seq, match=jm)
                for row, jm in index.job_matches(matcher)
            ]
            self._final[matcher.name].update(
                (f.seq, f.match) for f in finalized
            )
            out[matcher.name] = finalized
        return len(closing), out

    # -- accumulated results ----------------------------------------------------

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    def results(self) -> Dict[str, MatchResult]:
        """Accumulated per-method results, in batch job order."""
        out: Dict[str, MatchResult] = {}
        for m in self.matchers:
            acc = self._final[m.name]
            out[m.name] = MatchResult(
                method=m.name,
                matches=[acc[seq] for seq in sorted(acc)],
                n_jobs_considered=self.n_jobs,
                n_transfers_considered=self.n_transfers_with_taskid,
            )
        return out

    def report(self) -> MatchingReport:
        """The accumulated state as a batch-shaped :class:`MatchingReport`."""
        return MatchingReport(
            window=(self.t0, self.t1),
            n_jobs=self.n_jobs,
            n_transfers=self.n_transfers,
            n_transfers_with_taskid=self.n_transfers_with_taskid,
            results=self.results(),
        )


class StreamProcessor:
    """Micro-batch driver: ingest → watermark → close → fold → metrics."""

    def __init__(
        self,
        t0: float,
        t1: float,
        known_sites: Optional[set] = None,
        matchers: Optional[Sequence[BaseMatcher]] = None,
        lateness: float = 0.0,
        user_jobs_only: bool = True,
        folds: Optional[FoldSet] = None,
    ) -> None:
        self.matcher = IncrementalMatcher(
            t0,
            t1,
            matchers=matchers,
            known_sites=known_sites,
            user_jobs_only=user_jobs_only,
        )
        self.tracker = WatermarkTracker(lateness)
        self.folds = folds if folds is not None else FoldSet.default()
        self._acc = _MetricsAccumulator()
        self._acc.total_matched = {m.name: 0 for m in self.matcher.matchers}
        self._batch_id = 0
        self._finished = False

    def process(self, events: Sequence[StreamEvent]) -> MatchDelta:
        """One micro-batch through the whole dataplane."""
        if self._finished:
            raise RuntimeError("stream already finished")
        events = list(events)
        obs = get_obs()
        with obs.tracer.span("stream.batch", cat="stream") as sp:
            t_start = perf_counter()
            times = self.matcher.ingest(events)
            late = sum(1 for t in times if self.tracker.is_late(t))
            for t in times:
                self.tracker.observe(t)
            t_ingested = perf_counter()
            n_closed, finalized = self.matcher.close_ready(self.tracker.watermark)
            t_matched = perf_counter()
            delta = self._emit(finalized, n_closed, len(events))
            self.folds.update(delta)
            t_folded = perf_counter()
            sp.set("batch_id", delta.batch_id)
            sp.set("n_events", len(events))
            sp.set("n_closed", n_closed)
            sp.set("n_late", late)

        acc = self._acc
        acc.n_batches += 1
        acc.n_events += len(events)
        acc.n_late_events += late
        acc.ingest_s += t_ingested - t_start
        acc.match_s += t_matched - t_ingested
        acc.fold_s += t_folded - t_matched
        self._observe_metrics(obs, late, len(events))
        return delta

    def finish(self) -> MatchDelta:
        """End of stream: flush every still-pending job window."""
        if self._finished:
            raise RuntimeError("stream already finished")
        self._finished = True
        obs = get_obs()
        with obs.tracer.span("stream.finish", cat="stream") as sp:
            t_start = perf_counter()
            self.tracker.close()
            n_closed, finalized = self.matcher.close_ready(self.tracker.watermark)
            t_matched = perf_counter()
            delta = self._emit(finalized, n_closed, 0)
            self.folds.update(delta)
            t_folded = perf_counter()
            sp.set("n_closed", n_closed)
        self._acc.n_batches += 1
        self._acc.match_s += t_matched - t_start
        self._acc.fold_s += t_folded - t_matched
        self._observe_metrics(obs, 0, 0)
        return delta

    def _observe_metrics(self, obs, late: int, n_events: int) -> None:
        """Fold the stream's health counters into the obs registry.

        The watermark-lag gauge skips the pre-event state (the tracker
        reports a ``-inf`` watermark until the first transfer arrives;
        see :meth:`WatermarkTracker.lag`).
        """
        if not obs.enabled:
            return
        obs.metrics.counter("stream.events").inc(n_events)
        obs.metrics.counter("stream.late_events").inc(late)
        if self.tracker.has_observed:
            obs.metrics.gauge("stream.watermark_lag").set(self.tracker.lag)
        obs.metrics.gauge("stream.pending_jobs").set(self.matcher.n_pending)

    def _emit(
        self, finalized: Dict[str, List[Finalized]], n_closed: int, n_events: int
    ) -> MatchDelta:
        delta = MatchDelta(
            batch_id=self._batch_id,
            watermark=self.tracker.watermark,
            n_events=n_events,
            n_jobs_closed=n_closed,
            matches=finalized,
        )
        self._batch_id += 1
        acc = self._acc
        acc.n_closed_jobs += n_closed
        acc.last_delta = delta.sizes
        for m, v in finalized.items():
            acc.total_matched[m] = acc.total_matched.get(m, 0) + len(v)
        return delta

    def run(self, batches) -> "StreamProcessor":
        """Drain an iterable of micro-batches, then flush."""
        for batch in batches:
            self.process(batch)
        self.finish()
        return self

    # -- outputs ----------------------------------------------------------------

    def report(self) -> MatchingReport:
        return self.matcher.report()

    def results(self) -> Dict[str, MatchResult]:
        return self.matcher.results()

    def headline(self):
        """The summary fold's current §5.1 headline snapshot."""
        if "summary" not in self.folds:
            raise KeyError("fold set has no 'summary' fold")
        m = self.matcher
        return self.folds["summary"].snapshot(
            n_jobs=m.n_jobs,
            n_transfers=m.n_transfers,
            n_transfers_with_taskid=m.n_transfers_with_taskid,
        )

    def metrics(self) -> StreamMetrics:
        return self._acc.snapshot(
            n_job_events=self.matcher.n_job_events,
            n_transfer_events=self.matcher.n_transfer_events,
            n_pending_jobs=self.matcher.n_pending,
            watermark=self.tracker.watermark,
            max_event_time=self.tracker.max_event_time,
            lag=self.tracker.lag,
        )


def replay_window(
    telemetry,
    t0: float,
    t1: float,
    known_sites: Optional[set] = None,
    matchers: Optional[Sequence[BaseMatcher]] = None,
    batch_seconds: Optional[float] = None,
    batch_events: Optional[int] = None,
    lateness: float = 0.0,
    folds: Optional[FoldSet] = None,
) -> StreamProcessor:
    """Replay a telemetry snapshot through the streaming dataplane.

    Deterministic micro-batch replay of one analysis window: builds the
    event-time-ordered log, batches it (six-hour spans by default),
    and drains it through a fresh :class:`StreamProcessor`.  The
    returned processor's :meth:`~StreamProcessor.report` is
    bit-identical to the batch pipeline over the same window;
    ``matchers`` (default Exact/RM1/RM2) must all lower to the columnar
    kernels — RM3's per-close delta scoring qualifies.
    """
    if batch_seconds is None and batch_events is None:
        batch_seconds = 6 * 3600.0
    log = EventLog.from_telemetry(telemetry, t0, t1)
    processor = StreamProcessor(
        t0, t1, known_sites=known_sites, matchers=matchers,
        lateness=lateness, folds=folds,
    )
    return processor.run(
        log.micro_batches(batch_seconds=batch_seconds, batch_events=batch_events)
    )
