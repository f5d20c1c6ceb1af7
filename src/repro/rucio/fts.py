"""FTS-like transfer service.

Executes :class:`TransferRequest`s over the network model: picks a
source replica, waits for link capacity, integrates time-varying
bandwidth into a duration, lands the replica, and emits a ground-truth
:class:`TransferEvent` to the telemetry sink.

Two concurrency mechanisms shape the paper's observations:

* **per-link capacity** — at most ``link_capacity`` simultaneous
  transfers per (source site, destination site) pair; excess requests
  queue FIFO, producing the staging waits of Figs 5-6;
* **per-group parallelism** — a stage-in batch for one job starts at
  most ``parallelism`` of its files concurrently.  Sites whose tooling
  is sequential (``parallelism=1``) serialise their stage-ins, which is
  the bandwidth under-utilization signature of Fig 10.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.grid.topology import GridTopology
from repro.ids import IdFactory
from repro.rucio.replica import ReplicaRegistry, ReplicaState
from repro.rucio.selector import ReplicaSelector
from repro.rucio.transfer import TransferEvent, TransferRequest
from repro.sim.engine import Engine


@dataclass
class TransferGroup:
    """A batch of transfers that complete (or fail) together.

    Used for a job's stage-in/stage-out set.  ``on_complete`` fires once
    every member has finished, receiving the ordered event list.
    """

    group_id: int
    parallelism: int
    on_complete: Optional[Callable[[List[TransferEvent]], None]] = None
    pending: Deque[TransferRequest] = field(default_factory=deque)
    in_flight: int = 0
    events: List[TransferEvent] = field(default_factory=list)
    failed: bool = False

    @property
    def done(self) -> bool:
        return not self.pending and self.in_flight == 0


class TransferService:
    """The transfer execution engine (Rucio conveyor + FTS, collapsed).

    Parameters
    ----------
    engine, topology, replicas:
        Simulation kernel and state.
    sink:
        Callable receiving each ground-truth :class:`TransferEvent`.
    link_capacity:
        Max simultaneous transfers per directed site pair.
    failure_rate:
        Baseline probability that a transfer fails in flight.
    """

    def __init__(
        self,
        engine: Engine,
        topology: GridTopology,
        replicas: ReplicaRegistry,
        ids: IdFactory,
        sink: Callable[[TransferEvent], None],
        rng: np.random.Generator,
        link_capacity: int = 12,
        failure_rate: float = 0.015,
        stuck_rate: float = 0.012,
        stuck_factor: tuple[float, float] = (8.0, 40.0),
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.replicas = replicas
        self.ids = ids
        self.sink = sink
        self.rng = rng
        self.link_capacity = int(link_capacity)
        self.failure_rate = float(failure_rate)
        #: probability a transfer gets *stuck* — crawling at a fraction
        #: of the link rate for its whole life.  A real FTS pathology,
        #: and the mechanism behind the paper's extreme transfer-time
        #: jobs (the 20.5 GB / >30 min transfer of Fig 11, the >75%
        #: transfer-time tail of Fig 9).
        self.stuck_rate = float(stuck_rate)
        self.stuck_factor = stuck_factor
        self.selector = ReplicaSelector(topology, replicas)
        #: minimum share of each link reserved for job-driven transfers;
        #: FTS manages per-activity shares so background rebalancing
        #: cannot starve stage-ins.  Implemented as a cap on background
        #: occupancy per link.
        self.job_share: float = 0.5
        self._background_active: Dict[Tuple[str, str], int] = {}

        self._link_waiting: Dict[Tuple[str, str], Deque[Tuple[TransferRequest, TransferGroup]]] = {}
        self._group_seq = 0
        self.completed = 0
        self.failed = 0

    # -- public API ------------------------------------------------------------

    def submit_group(
        self,
        requests: List[TransferRequest],
        parallelism: int,
        on_complete: Optional[Callable[[List[TransferEvent]], None]] = None,
    ) -> TransferGroup:
        """Submit a batch sharing a parallelism budget (one job's staging)."""
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        self._group_seq += 1
        group = TransferGroup(
            group_id=self._group_seq, parallelism=parallelism, on_complete=on_complete
        )
        now = self.engine.now
        for req in requests:
            req.submitted_at = now
            group.pending.append(req)
        if not requests:
            # Empty batch: complete immediately (all inputs were local).
            if on_complete is not None:
                self.engine.schedule_in(0.0, lambda: on_complete([]), label="empty-group")
            return group
        self._pump_group(group)
        return group

    def submit(self, request: TransferRequest) -> TransferGroup:
        """Submit a standalone transfer (background activity, rule fill)."""
        return self.submit_group([request], parallelism=1)

    # -- internals ---------------------------------------------------------------

    def _pump_group(self, group: TransferGroup) -> None:
        """Start as many of the group's pending transfers as parallelism allows."""
        while group.pending and group.in_flight < group.parallelism:
            req = group.pending.popleft()
            group.in_flight += 1
            self._route(req, group)

    def _route(self, req: TransferRequest, group: TransferGroup) -> None:
        """Resolve the source and either start or enqueue on the link."""
        dest_site = self.topology.rse(req.dest_rse).site_name
        if req.source_rse is None:
            choice = self.selector.choose(req.file_did, dest_site, self.engine.now)
            if choice is None:
                self._finish(req, group, src_rse="", started=self.engine.now, ok=False)
                return
            req.source_rse = choice.source_rse
        src_site = self.topology.rse(req.source_rse).site_name

        network = self.topology.network
        assert network is not None
        at_capacity = network.active_on(src_site, dest_site) >= self.link_capacity
        background_capped = (
            not req.activity.is_job_driven
            and self._background_active.get((src_site, dest_site), 0)
            >= max(1, int(self.link_capacity * (1.0 - self.job_share)))
        )
        if at_capacity or background_capped:
            self._link_waiting.setdefault((src_site, dest_site), deque()).append((req, group))
            return
        self._start(req, group, src_site, dest_site)

    def _start(self, req: TransferRequest, group: TransferGroup, src_site: str, dest_site: str) -> None:
        network = self.topology.network
        assert network is not None
        network.acquire(src_site, dest_site)
        is_background = not req.activity.is_job_driven
        if is_background:
            key = (src_site, dest_site)
            self._background_active[key] = self._background_active.get(key, 0) + 1
        started = self.engine.now
        duration = network.transfer_duration(src_site, dest_site, req.size, started)
        if self.rng.random() < self.stuck_rate:
            lo, hi = self.stuck_factor
            duration *= float(self.rng.uniform(lo, hi))
        fails = bool(self.rng.random() < self.failure_rate)
        if fails:
            # Failures surface partway through the attempted movement.
            duration *= float(self.rng.uniform(0.3, 1.5))

        def complete() -> None:
            network.release(src_site, dest_site)
            if is_background:
                key = (src_site, dest_site)
                self._background_active[key] = max(0, self._background_active.get(key, 1) - 1)
            self._finish(req, group, src_rse=req.source_rse or "", started=started, ok=not fails)
            self._drain_link(src_site, dest_site)

        self.engine.schedule_in(duration, complete, label=f"xfer:{req.request_id}")

    def _background_capped(self, src_site: str, dest_site: str) -> bool:
        cap = max(1, int(self.link_capacity * (1.0 - self.job_share)))
        return self._background_active.get((src_site, dest_site), 0) >= cap

    def _drain_link(self, src_site: str, dest_site: str) -> None:
        """Start waiting transfers now that the link freed a slot.

        One pass over the queue: job-driven transfers start whenever the
        link has room; background ones additionally respect the
        per-activity share cap and otherwise keep their place in line.
        """
        waiting = self._link_waiting.get((src_site, dest_site))
        network = self.topology.network
        assert network is not None
        if not waiting:
            return
        deferred: Deque[Tuple[TransferRequest, TransferGroup]] = deque()
        while waiting and network.active_on(src_site, dest_site) < self.link_capacity:
            req, group = waiting.popleft()
            if not req.activity.is_job_driven and self._background_capped(src_site, dest_site):
                deferred.append((req, group))
                continue
            self._start(req, group, src_site, dest_site)
        deferred.extend(waiting)
        if deferred:
            self._link_waiting[(src_site, dest_site)] = deferred
        else:
            del self._link_waiting[(src_site, dest_site)]

    def _finish(
        self, req: TransferRequest, group: TransferGroup, src_rse: str, started: float, ok: bool
    ) -> None:
        now = self.engine.now
        dest_site = self.topology.rse(req.dest_rse).site_name
        src_site = self.topology.rse(src_rse).site_name if src_rse else ""

        if ok:
            if not req.ephemeral:
                existing = self.replicas.get(req.file_did, req.dest_rse)
                if existing is None:
                    self.replicas.add(
                        req.file_did, req.dest_rse, req.size, state=ReplicaState.AVAILABLE, now=now
                    )
                else:
                    existing.state = ReplicaState.AVAILABLE
            self.completed += 1
        else:
            self.failed += 1

        event = TransferEvent(
            transfer_id=self.ids.next_transferid(),
            lfn=req.file_did.name,
            scope=req.file_did.scope,
            dataset=req.dataset_name,
            proddblock=req.proddblock,
            file_size=req.size,
            source_rse=src_rse,
            dest_rse=req.dest_rse,
            source_site=src_site,
            destination_site=dest_site,
            activity=req.activity,
            submitted_at=req.submitted_at,
            starttime=started,
            endtime=now,
            success=ok,
            pandaid=req.pandaid,
            jeditaskid=req.jeditaskid,
        )
        self.sink(event)
        group.events.append(event)
        if not ok:
            group.failed = True

        group.in_flight -= 1
        self._pump_group(group)
        if group.done and group.on_complete is not None:
            cb, group.on_complete = group.on_complete, None
            cb(group.events)
