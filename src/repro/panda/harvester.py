"""Harvester + Pilot: per-site job execution.

One Harvester instance per computing site.  It orchestrates the full
per-job pipeline the paper's timing analysis depends on:

  assigned → [stage-in during queue] → ready → [wait for slot] →
  running (start_time) → payload → [stage-out during wall] →
  finished/failed (end_time)

Two behaviours reproduce the paper's anomalies:

* **stage-in patience** — when staging exceeds a patience draw, the
  pilot starts the payload with a transfer still in flight (the
  queue+wall-spanning transfers of Fig 11), at elevated failure risk;
* **staging-coupled failure** — the failure model receives the
  fraction of queuing time spent transferring, enriching failures among
  high-transfer-time jobs (Fig 9's tail).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.grid.site import Site
from repro.panda.errors import ErrorCode, FailureModel, PandaError
from repro.panda.job import DataAccessMode, Job, JobKind, JobStatus
from repro.rucio.activities import TransferActivity
from repro.rucio.client import RucioClient
from repro.rucio.transfer import TransferEvent
from repro.sim.engine import Engine


def interval_union_length(intervals: List[tuple[float, float]], lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi].

    Used to compute the paper's "file transfer time": the cumulative
    duration during the queuing phase in which at least one associated
    file was actively transferring (§5.1).
    """
    if hi <= lo:
        return 0.0
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for a, b in clipped:
        if cur_start is None:
            cur_start, cur_end = a, b
        elif a <= cur_end:
            cur_end = max(cur_end, b)
        else:
            total += cur_end - cur_start
            cur_start, cur_end = a, b
    if cur_start is not None:
        total += cur_end - cur_start
    return total


class Harvester:
    """Per-site execution orchestrator."""

    def __init__(
        self,
        site: Site,
        engine: Engine,
        rucio: RucioClient,
        failure_model: FailureModel,
        rng: np.random.Generator,
        on_job_done: Callable[[Job], None],
        stagein_patience_mean: float = 1800.0,
        walltime_jitter_sigma: float = 0.25,
        redundant_prefetch_prob: float = 0.04,
    ) -> None:
        self.site = site
        self.engine = engine
        self.rucio = rucio
        self.failure_model = failure_model
        self.rng = rng
        self.on_job_done = on_job_done
        self.stagein_patience_mean = float(stagein_patience_mean)
        self.walltime_jitter_sigma = float(walltime_jitter_sigma)
        self.redundant_prefetch_prob = float(redundant_prefetch_prob)

        self._ready: Deque[Job] = deque()
        #: stage-in transfer events per pandaid (for staging-fraction accounting)
        self._stagein_events: Dict[int, List[TransferEvent]] = {}

    # -- intake --------------------------------------------------------------

    def receive(self, job: Job) -> None:
        """Accept a brokered job and begin preparation."""
        if job.computing_site != self.site.name:
            raise ValueError(
                f"job {job.pandaid} brokered to {job.computing_site}, "
                f"delivered to {self.site.name}"
            )
        job.transition(JobStatus.ASSIGNED)
        if job.access_mode is DataAccessMode.COPY_TO_SCRATCH and job.input_dataset is not None:
            self._begin_stagein(job)
        elif (
            job.kind is JobKind.PRODUCTION
            and job.access_mode is DataAccessMode.DIRECT_LOCAL
            and job.input_file_dids
        ):
            # Production payloads read locally and must wait for the
            # carousel to land their inputs (rule-driven staging).
            self._await_local_data(job)
        else:
            # Analysis direct reads fall back to remote I/O invisibly.
            self._mark_ready(job)

    #: poll cadence while waiting for rule-driven staging
    DATA_POLL_SECONDS = 600.0
    #: give up waiting for inputs after this long
    DATA_WAIT_TIMEOUT = 48 * 3600.0

    def _await_local_data(self, job: Job) -> None:
        deadline = self.engine.now + self.DATA_WAIT_TIMEOUT

        def poll() -> None:
            missing = self.rucio.replicas.missing_at_site(
                job.input_file_dids, self.site.name)
            if not missing:
                self._mark_ready(job)
            elif self.engine.now >= deadline:
                self._fail_before_start(job, PandaError.of(ErrorCode.STAGEIN_TIMEOUT))
            else:
                self.engine.schedule_in(self.DATA_POLL_SECONDS, poll,
                                        label=f"datawait:{job.pandaid}")

        poll()

    # -- stage-in -------------------------------------------------------------

    def _begin_stagein(self, job: Job) -> None:
        patience = float(self.rng.exponential(self.stagein_patience_mean))
        state = {"done": False, "started_early": False}

        if self.rng.random() < self.redundant_prefetch_prob:
            # Occasionally a stage-in is performed twice: an early
            # prefetch whose bookkeeping was lost, followed by the
            # regular copy — the avoidable redundancy of Fig 12, whose
            # first transfer set often surfaces with an UNKNOWN
            # destination in the degraded records.
            def on_prefetched(events: List[TransferEvent]) -> None:
                self._stagein_events.setdefault(job.pandaid, []).extend(events)
                job.true_transfer_ids.extend(e.transfer_id for e in events)

            self.rucio.stage_in(
                job.input_dataset,  # type: ignore[arg-type]
                self.site.name,
                TransferActivity.ANALYSIS_DOWNLOAD,
                pandaid=job.pandaid,
                jeditaskid=job.jeditaskid,
                on_complete=on_prefetched,
                file_dids=job.input_file_dids or None,
            )

        def on_staged(events: List[TransferEvent]) -> None:
            state["done"] = True
            self._stagein_events.setdefault(job.pandaid, []).extend(events)
            job.true_transfer_ids.extend(e.transfer_id for e in events)
            failed = [e for e in events if not e.success]
            if failed and not state["started_early"]:
                self._fail_before_start(job, PandaError.of(ErrorCode.STAGEIN_FAILED))
                return
            if not state["started_early"]:
                self._mark_ready(job)

        def on_patience() -> None:
            # Staging ran long; the pilot gives up waiting and launches
            # the payload with transfers still in flight (Fig 11).
            if not state["done"] and not state["started_early"]:
                state["started_early"] = True
                self._mark_ready(job)

        self.rucio.stage_in(
            job.input_dataset,  # type: ignore[arg-type] - guarded by caller
            self.site.name,
            TransferActivity.ANALYSIS_DOWNLOAD,
            pandaid=job.pandaid,
            jeditaskid=job.jeditaskid,
            on_complete=on_staged,
            file_dids=job.input_file_dids or None,
        )
        self.engine.schedule_in(patience, on_patience, label=f"patience:{job.pandaid}")

    def _fail_before_start(self, job: Job, error: PandaError) -> None:
        """Terminal failure during preparation (never started executing)."""
        now = self.engine.now
        job.start_time = now
        job.end_time = now
        job.error_code = int(error.code)
        job.error_message = error.message
        job.stagein_busy_seconds = self._stagein_busy(job, now)
        job.transition(JobStatus.FAILED)
        self.on_job_done(job)

    # -- re-brokerage (control-loop hooks) --------------------------------------

    @property
    def ready_backlog(self) -> int:
        """Jobs staged and waiting for a slot right now."""
        return len(self._ready)

    def steal_ready(self) -> Optional[Job]:
        """Pop the newest re-brokerable job off the ready queue.

        Only analysis jobs qualify: production direct-local payloads
        were brokered to their data and cannot pull inputs elsewhere.
        Stealing from the tail keeps the head-of-line job (next to get
        a slot) in place, so re-brokerage never delays work that was
        about to start.
        """
        for i in range(len(self._ready) - 1, -1, -1):
            if self._ready[i].kind is JobKind.ANALYSIS:
                job = self._ready[i]
                del self._ready[i]
                return job
        return None

    def readopt(self, job: Job) -> None:
        """Return a stolen job unchanged (re-brokerage chose this site)."""
        self._ready.append(job)
        self._try_start()

    def adopt_rebrokered(self, job: Job, prior_events: Optional[List[TransferEvent]] = None) -> None:
        """Accept a job re-brokered here while READY at another site.

        Copy-to-scratch jobs whose inputs are not available locally go
        back through stage-in (READY → ASSIGNED → READY) — paying the
        re-staging cost is exactly the trade the paper's §5.3 argues
        can still win when the origin site's queue is long.  Prior
        stage-in events ride along so queuing-phase transfer accounting
        spans the whole journey.
        """
        if job.computing_site != self.site.name:
            raise ValueError(
                f"job {job.pandaid} re-brokered to {job.computing_site}, "
                f"delivered to {self.site.name}"
            )
        if prior_events:
            self._stagein_events.setdefault(job.pandaid, []).extend(prior_events)
        needs_staging = (
            job.access_mode is DataAccessMode.COPY_TO_SCRATCH
            and job.input_dataset is not None
            and bool(self.rucio.replicas.missing_at_site(
                job.input_file_dids, self.site.name))
        )
        if needs_staging:
            job.transition(JobStatus.ASSIGNED)
            self._begin_stagein(job)
        else:
            self._ready.append(job)
            self._try_start()

    def release_stagein_events(self, pandaid: int) -> List[TransferEvent]:
        """Hand over (and forget) a job's recorded stage-in events."""
        return self._stagein_events.pop(pandaid, [])

    # -- slot management --------------------------------------------------------

    def _mark_ready(self, job: Job) -> None:
        job.transition(JobStatus.READY)
        self._ready.append(job)
        self._try_start()

    def _try_start(self) -> None:
        while self._ready and self.site.has_free_slot:
            job = self._ready.popleft()
            self._start(job)

    def _start(self, job: Job) -> None:
        now = self.engine.now
        self.site.occupy()
        job.start_time = now
        job.stagein_busy_seconds = self._stagein_busy(job, now)
        job.transition(JobStatus.RUNNING)

        if job.access_mode is DataAccessMode.DIRECT_IO and job.input_dataset is not None:
            # Streaming reads begin with execution and overlap it.
            self.rucio.stage_in(
                job.input_dataset,
                self.site.name,
                TransferActivity.ANALYSIS_DOWNLOAD_DIRECT_IO,
                pandaid=job.pandaid,
                jeditaskid=job.jeditaskid,
                on_complete=lambda events: job.true_transfer_ids.extend(
                    e.transfer_id for e in events
                ),
                file_dids=job.input_file_dids or None,
            )

        duration = job.payload_walltime * float(
            self.rng.lognormal(0.0, self.walltime_jitter_sigma)
        )
        self.engine.schedule_in(duration, lambda: self._payload_done(job), label=f"payload:{job.pandaid}")

    def _stagein_busy(self, job: Job, start_time: float) -> float:
        events = self._stagein_events.get(job.pandaid, [])
        intervals = [(e.starttime, e.endtime) for e in events]
        return interval_union_length(intervals, job.creation_time, start_time)

    # -- completion ----------------------------------------------------------------

    def _payload_done(self, job: Job) -> None:
        queueing = job.queuing_time or 0.0
        staging_fraction = job.stagein_busy_seconds / queueing if queueing > 0 else 0.0
        outcome = self.failure_model.draw_payload_outcome(self.rng, self.site, staging_fraction)

        if outcome.code is not ErrorCode.NONE:
            self._finish(job, outcome)
            return

        if job.uploads_output and job.noutputfilebytes > 0:
            self._begin_stageout(job)
        else:
            self._finish(job, PandaError.of(ErrorCode.NONE))

    def _begin_stageout(self, job: Job) -> None:
        dataset = self.rucio.register_output_dataset(
            job.scope, job.jeditaskid, kind=f"out.{job.pandaid}"
        )
        # One to three output files carrying the planned output volume;
        # sizes must sum exactly to noutputfilebytes (Algorithm 1's
        # upload-side size check compares that total byte-for-byte).
        n_out = int(self.rng.integers(1, min(4, max(2, job.noutputfilebytes))))
        base = job.noutputfilebytes // n_out
        sizes = [base] * n_out
        sizes[0] += job.noutputfilebytes - base * n_out
        files = [
            self.rucio.register_output_file(dataset, int(s), self.site.name, self.engine.now)
            for s in sizes
        ]
        dest = self._upload_destination(job)

        def on_uploaded(events: List[TransferEvent]) -> None:
            job.true_transfer_ids.extend(e.transfer_id for e in events)
            if any(not e.success for e in events):
                self._finish(job, PandaError.of(ErrorCode.STAGEOUT_FAILED))
            else:
                self._finish(job, PandaError.of(ErrorCode.NONE))

        activity = (
            TransferActivity.ANALYSIS_UPLOAD
            if job.kind is JobKind.ANALYSIS
            else TransferActivity.PRODUCTION_UPLOAD
        )
        self.rucio.stage_out(
            files,
            self.site.name,
            dest,
            activity,
            pandaid=job.pandaid,
            jeditaskid=job.jeditaskid,
            on_complete=on_uploaded,
        )

    def _upload_destination(self, job: Job) -> str:
        """Where outputs land: the task's fixed destination when set,
        otherwise usually the local DATADISK, sometimes the user's home
        Tier-1/2 elsewhere."""
        if job.output_destination:
            return job.output_destination
        if self.rng.random() < 0.7:
            return self.site.name
        others = [
            s.name
            for s in self.rucio.topology.real_sites()
            if s.name != self.site.name and s.tier.value <= 2
        ]
        return str(self.rng.choice(others)) if others else self.site.name

    def _finish(self, job: Job, error: PandaError) -> None:
        now = self.engine.now
        job.end_time = now
        job.error_code = int(error.code)
        job.error_message = error.message
        job.transition(JobStatus.FINISHED if error.code is ErrorCode.NONE else JobStatus.FAILED)
        self.site.release()
        self._stagein_events.pop(job.pandaid, None)
        self.on_job_done(job)
        self._try_start()
