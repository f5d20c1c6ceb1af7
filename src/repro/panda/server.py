"""The PanDA server.

Receives submitted jobs into the global queue, runs brokerage after a
short brokerage latency, and dispatches jobs to the chosen site's
Harvester.  Tracks tasks and exposes completion callbacks for the
telemetry collector.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.grid.topology import GridTopology
from repro.panda.brokerage import Broker, BrokerDecision
from repro.panda.errors import FailureModel
from repro.panda.harvester import Harvester
from repro.panda.job import Job, JobKind, JobStatus
from repro.panda.queue import GlobalQueue
from repro.panda.task import JediTask
from repro.rucio.client import RucioClient

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.ids import IdFactory
from repro.sim.engine import Engine


class PandaServer:
    """Central workload manager (lives at Tier-0 in the real system)."""

    def __init__(
        self,
        engine: Engine,
        topology: GridTopology,
        rucio: RucioClient,
        broker: Broker,
        rng: np.random.Generator,
        failure_model: Optional[FailureModel] = None,
        brokerage_latency_mean: float = 60.0,
        retry_limit: int = 0,
        retry_backoff_mean: float = 900.0,
        ids: Optional["IdFactory"] = None,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.rucio = rucio
        self.broker = broker
        self.rng = rng
        self.failure_model = failure_model or FailureModel()
        self.brokerage_latency_mean = float(brokerage_latency_mean)
        #: automatic re-attempts for failed analysis jobs (JEDI-style;
        #: 0 = disabled).  A retry is a brand-new pandaid sharing the
        #: original jeditaskid and input chunk — which is exactly why
        #: retried jobs pollute each other's matching candidates.
        self.retry_limit = int(retry_limit)
        self.retry_backoff_mean = float(retry_backoff_mean)
        self.retries_issued = 0
        self._ids = ids
        #: pandaid -> attempt number (1 = first try)
        self._attempt: Dict[int, int] = {}

        self.queue = GlobalQueue()
        self.tasks: Dict[int, JediTask] = {}
        self.jobs: Dict[int, Job] = {}
        self.decisions: Dict[int, BrokerDecision] = {}
        self._done_callbacks: List[Callable[[Job], None]] = []

        self.harvesters: Dict[str, Harvester] = {
            site.name: Harvester(
                site=site,
                engine=engine,
                rucio=rucio,
                failure_model=self.failure_model,
                rng=rng,
                on_job_done=self._job_done,
            )
            for site in topology.compute_sites()
        }

    # -- registration -----------------------------------------------------------

    def register_task(self, task: JediTask) -> None:
        if task.jeditaskid in self.tasks:
            raise ValueError(f"task {task.jeditaskid} already registered")
        self.tasks[task.jeditaskid] = task

    def on_job_done(self, callback: Callable[[Job], None]) -> None:
        self._done_callbacks.append(callback)

    # -- submission and brokerage --------------------------------------------------

    def submit(self, job: Job) -> None:
        """Accept a new job; brokerage runs after a short latency."""
        if job.pandaid in self.jobs:
            raise ValueError(f"duplicate pandaid {job.pandaid}")
        self.jobs[job.pandaid] = job
        task = self.tasks.get(job.jeditaskid)
        if task is not None and job not in task.jobs:
            task.add_job(job)
        self.queue.push(job)
        latency = float(self.rng.exponential(self.brokerage_latency_mean))
        self.engine.schedule_in(latency, self._brokerage_cycle, label="brokerage")

    def _brokerage_cycle(self) -> None:
        job = self.queue.pop()
        if job is None:
            return
        decision = self.broker.assign(job, self.engine.now)
        job.computing_site = decision.site_name
        self.decisions[job.pandaid] = decision
        self.harvesters[decision.site_name].receive(job)

    def rebroker(self, job: Job, decision: BrokerDecision) -> None:
        """Move a READY job to a new site mid-flight (control loop).

        The caller has already pulled the job off its old Harvester's
        ready queue (:meth:`Harvester.steal_ready`) and re-run
        brokerage; this re-routes it, carrying recorded stage-in events
        along so queuing-phase transfer accounting stays complete.
        """
        old = self.harvesters.get(job.computing_site)
        prior = old.release_stagein_events(job.pandaid) if old is not None else []
        job.computing_site = decision.site_name
        self.decisions[job.pandaid] = decision
        self.harvesters[decision.site_name].adopt_rebrokered(job, prior)

    def _job_done(self, job: Job) -> None:
        for cb in self._done_callbacks:
            cb(job)
        self._maybe_retry(job)

    def _maybe_retry(self, job: Job) -> None:
        """Re-attempt a failed analysis job as a fresh pandaid."""
        if self.retry_limit <= 0 or job.succeeded or job.kind is not JobKind.ANALYSIS:
            return
        attempt = self._attempt.get(job.pandaid, 1)
        if attempt > self.retry_limit:
            return
        backoff = float(self.rng.exponential(self.retry_backoff_mean))
        self.retries_issued += 1

        def submit_retry() -> None:
            retry = Job(
                pandaid=self._next_retry_pandaid(),
                jeditaskid=job.jeditaskid,
                kind=job.kind,
                access_mode=job.access_mode,
                input_dataset=job.input_dataset,
                input_file_dids=list(job.input_file_dids),
                ninputfilebytes=job.ninputfilebytes,
                noutputfilebytes=job.noutputfilebytes,
                creation_time=self.engine.now,
                scope=job.scope,
                priority=job.priority,
                payload_walltime=job.payload_walltime,
                uploads_output=job.uploads_output,
                output_destination=job.output_destination,
            )
            self._attempt[retry.pandaid] = attempt + 1
            self.submit(retry)

        self.engine.schedule_in(backoff, submit_retry, label=f"retry:{job.pandaid}")

    def _next_retry_pandaid(self) -> int:
        """Retries draw fresh pandaids from the shared factory when one
        is wired in (guaranteeing global uniqueness), otherwise from a
        reserved high range."""
        if self._ids is not None:
            return self._ids.next_pandaid()
        self._retry_seq = getattr(self, "_retry_seq", 7_000_000_000) + 1
        return self._retry_seq

    # -- introspection ------------------------------------------------------------

    def terminal_jobs(self) -> List[Job]:
        return [j for j in self.jobs.values() if j.status.is_terminal]

    def running_count(self) -> int:
        return sum(1 for j in self.jobs.values() if j.status is JobStatus.RUNNING)

    def success_fraction(self) -> float:
        terminal = self.terminal_jobs()
        if not terminal:
            return 0.0
        return sum(1 for j in terminal if j.succeeded) / len(terminal)
