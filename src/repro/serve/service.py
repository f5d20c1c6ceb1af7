"""The multi-tenant match/analysis service.

:class:`MatchService` is a long-lived asyncio front end over the
dataplane: one shared metastore
(:class:`~repro.metastore.packsource.PackSource`), one thread-safe
:class:`~repro.exec.artifacts.ArtifactCache`, one cross-tenant memo of
served results, and a bounded pool of compute workers.  The memo and
the artifact cache are both the dataplane's one generation-keyed,
single-flight LRU (:class:`~repro.exec.cache.GenerationCache`).
Request flow::

    submit ──► admission (token bucket + queue bound) ──► shed?
                  │
                  ▼
           memo lookup on the event loop ──► finished: respond at once
                  │                     └──► in flight: await it on
                  │ miss, or sampled              the loop, no worker
                  ▼ for verification
           per-tenant FIFO + stride scheduler (weighted fair order)
                  │
                  ▼
           bounded worker pool ──► memo flight ──► ArtifactCache flight
                  │                        ──► Exact/RM1/RM2 kernels
                  ▼                            and analyses
               response

Only real computations take a worker: a memo hit is answered on the
loop, and a request joining an in-flight computation waits there too,
so fair scheduling orders only the requests that need a worker.  The
loop reads the store generation without the lock; that is safe
because it only grows, ``PackSource`` bumps it after an append is in
place, and an entry keyed by generation g was computed entirely at g.
A loop-served response carries the generation of the key it came
from.

Live ingest runs concurrently with serving: :meth:`ingest` appends
through ``PackSource.ingest_batch`` under the write side of a
reader-writer lock while computing queries hold the read side, so a
computed answer observes exactly one store generation end to end — the
generation its memo key and response carry.  Stale
results can never be served: keys embed the generation, and the memo
evicts dead generations on the next miss.

Compute is CPU-bound Python/NumPy on a pool of threads, which share
the artifact cache and release the GIL inside the kernels.

Built-in verification: with ``verify_every=N`` every Nth admitted
request is sampled at admission and sent to a worker even when its key
is memoized; there it is recomputed directly (fresh artifacts, no
cache, no memo) under the same read-lock hold and compared ``==`` —
the serving layer's bit-identity claim, continuously sampled in
production style rather than asserted once in a test.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.matching.base import LazyMatches
from repro.exec.analysis import ANALYSIS_NAMES, AnalysisSpec, analyze_report
from repro.exec.artifacts import ArtifactCache, WindowArtifacts, build_report
from repro.exec.cache import GenerationCache
from repro.exec.executor import default_matchers
from repro.exec.plan import WindowPlan
from repro.obs import get_obs
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.scheduler import FairScheduler

DEFAULT_METHODS: Tuple[str, ...] = ("exact", "rm1", "rm2")

#: Served-result memo capacity, across tenants, windows and specs.
MEMO_ENTRIES = 512


def bit_identical(a, b) -> bool:
    """Structural equality that treats NumPy arrays as values.

    ``MatchingReport`` compares with plain ``==``, but analysis results
    are dataclasses holding arrays, where ``==`` broadcasts.  This is
    the equality the bit-identity guarantee is stated in: same
    structure, same dtypes, same bits (NaN equals NaN — the arrays are
    byte-identical even where IEEE ``==`` is not reflexive).  A
    kernel-built result's :class:`LazyMatches` compares as the list it
    assembles, so a lazy and an eager result with the same matches are
    identical and their contents are still compared.
    """
    import dataclasses
    import math

    import numpy as np

    if a is b:
        return True
    if isinstance(a, LazyMatches):
        a = a.tolist()
    if isinstance(b, LazyMatches):
        b = b.tolist()
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        if a.shape != b.shape or a.dtype != b.dtype:
            return False
        return bool(np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"))
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        # compare=False fields are lazy caches (MatchResult._frame,
        # ._transfer_ids): whether they are populated depends on what
        # else touched the object, not on its value.
        return all(
            bit_identical(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
            if f.compare
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(bit_identical(v, b[k]) for k, v in a.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(bit_identical(x, y) for x, y in zip(a, b))
    eq = a == b
    if isinstance(eq, np.ndarray):
        return bool(eq.all())
    return bool(eq)


# -- queries and responses ----------------------------------------------------


@dataclass(frozen=True)
class MatchQuery:
    """Window-match request: the Exact/RM1/RM2 report for one window."""

    t0: float
    t1: float
    methods: Tuple[str, ...] = DEFAULT_METHODS
    user_jobs_only: bool = True

    def key(self, generation: int) -> tuple:
        return (generation, "match", self.t0, self.t1, self.user_jobs_only,
                self.methods)


@dataclass(frozen=True)
class AnalysisQuery:
    """One named §5 analysis over one window's matching report."""

    t0: float
    t1: float
    spec: str = "headline"
    method: str = "exact"
    user_jobs_only: bool = True

    def __post_init__(self) -> None:
        if self.spec not in ANALYSIS_NAMES:
            raise ValueError(
                f"unknown analysis {self.spec!r} (known: {', '.join(ANALYSIS_NAMES)})"
            )

    def key(self, generation: int) -> tuple:
        return (generation, "analysis", self.t0, self.t1, self.user_jobs_only,
                self.spec, self.method)

    def match_query(self) -> MatchQuery:
        """The match report this analysis reads (memo-shared)."""
        return MatchQuery(self.t0, self.t1, DEFAULT_METHODS, self.user_jobs_only)


@dataclass
class Response:
    """What a tenant gets back for one submitted query."""

    tenant: str
    status: str                      # "ok" | "shed"
    reason: str = ""                 # shed reason ("rate" | "queue")
    value: object = None
    generation: int = -1
    cached: bool = False
    latency: float = 0.0             # submit → completion, seconds
    queued: float = 0.0              # time spent in the fair queue

    @property
    def ok(self) -> bool:
        return self.status == "ok"


# -- reader-writer lock -------------------------------------------------------


class RWLock:
    """Many readers or one writer, writer-preferring.

    Queries hold the read side for their whole compute so the store
    generation cannot move under them; ingest takes the write side.
    Writer preference keeps ingest from starving while the service is
    saturated with queries.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _Side:
        def __init__(self, lock: "RWLock", write: bool) -> None:
            self.lock, self.write = lock, write

        def __enter__(self):
            (self.lock.acquire_write if self.write else self.lock.acquire_read)()
            return self

        def __exit__(self, *exc) -> bool:
            (self.lock.release_write if self.write else self.lock.release_read)()
            return False

    def read(self) -> "_Side":
        return self._Side(self, write=False)

    def write(self) -> "_Side":
        return self._Side(self, write=True)


# -- the service --------------------------------------------------------------


@dataclass
class ServeConfig:
    """Operational knobs for one :class:`MatchService`."""

    #: bounded compute concurrency (thread pool size / dispatch slots)
    max_workers: int = 4
    #: default per-tenant admission policy (overridable per tenant)
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: recompute every Nth admitted request directly and compare (0 = off)
    verify_every: int = 0

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")


class MatchService:
    """Serve window-match and analysis queries from many tenants.

    Synchronous core + asyncio shell: :meth:`handle` runs one admitted
    query to completion on the calling thread (tests and the direct
    path use it); :meth:`submit` is the async front door that applies
    admission, fair scheduling, and the bounded worker pool.
    """

    def __init__(
        self,
        source,
        known_sites: Optional[set] = None,
        tenants: Optional[Dict[str, float]] = None,
        config: Optional[ServeConfig] = None,
        clock=None,
    ) -> None:
        self.source = source
        self.known_sites = known_sites or set()
        self.config = config or ServeConfig()
        self.cache = ArtifactCache(source)
        self.memo = GenerationCache("serve.memo", MEMO_ENTRIES)
        self.rwlock = RWLock()
        self.admission = AdmissionController(clock=clock)
        self.scheduler = FairScheduler()
        self._tenants: Dict[str, float] = {}
        for tenant, weight in (tenants or {}).items():
            self.register_tenant(tenant, weight)
        self._verify_counter = itertools.count(1)
        self._verify_lock = threading.Lock()
        self.verify_samples = 0
        self.verify_violations = 0
        # asyncio plumbing (populated by start())
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._wake: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._inflight = 0
        self._running = False

    # -- tenants ---------------------------------------------------------------

    def register_tenant(
        self,
        tenant: str,
        weight: float = 1.0,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        self._tenants[tenant] = float(weight)
        self.scheduler.register(tenant, weight)
        self.admission.register(tenant, policy or self.config.policy)

    @property
    def tenants(self) -> Dict[str, float]:
        return dict(self._tenants)

    # -- ingest (the write side) ----------------------------------------------

    def ingest(self, jobs=(), files=(), transfers=()) -> int:
        """Append telemetry while serving; queries never see a torn state."""
        with self.rwlock.write():
            n = self.source.ingest_batch(jobs=jobs, files=files, transfers=transfers)
        obs = get_obs()
        if obs.enabled:
            obs.metrics.counter("serve.ingested_records").inc(n)
        return n

    # -- synchronous serving core ---------------------------------------------

    def handle(self, tenant: str, query) -> Response:
        """Run one admitted query to completion on this thread."""
        value, generation, cached = self._compute(query)
        return Response(
            tenant=tenant,
            status="ok",
            value=value,
            generation=generation,
            cached=cached,
        )

    def _compute(self, query, verify: Optional[bool] = None) -> Tuple[object, int, bool]:
        """Serve ``query`` from the memo or compute it, under the read lock.

        ``verify`` is the sampling decision :meth:`submit` made at
        admission; the synchronous :meth:`handle` passes none and
        samples here.
        """
        with self.rwlock.read():
            generation = self.source.generation
            key = query.key(generation)
            value, cached = self.memo.get_or_compute(
                key, lambda: self._execute(query)
            )
            if verify is None:
                verify = self._sampled()
            if verify:
                self._verify(query, value)
        return value, generation, cached

    def _spec(self, query: AnalysisQuery) -> AnalysisSpec:
        if query.spec == "matrix":  # needs the site axis + UNKNOWN bucket
            from repro.telemetry.records import UNKNOWN_SITE

            names = sorted(set(self.known_sites) | {UNKNOWN_SITE})
            return AnalysisSpec.make(
                query.spec, method=query.method, site_names=tuple(names)
            )
        return AnalysisSpec(name=query.spec, method=query.method)

    def _matchers(self, methods: Sequence[str]):
        by_name = {m.name: m for m in default_matchers(self.known_sites)}
        unknown = [m for m in methods if m not in by_name]
        if unknown:
            raise ValueError(f"unknown matcher(s): {', '.join(unknown)}")
        return [by_name[m] for m in methods]

    def _execute(self, query):
        """Uncached compute of one query (called under the memo flight)."""
        plan = WindowPlan(query.t0, query.t1, query.user_jobs_only)
        if isinstance(query, MatchQuery):
            return build_report(self.cache.get(plan), self._matchers(query.methods))
        # Analysis: share the window's full match report through the
        # memo (the same entry a MatchQuery for this window would use),
        # then run just the requested spec over it.
        mq = query.match_query()
        report, _ = self.memo.get_or_compute(
            mq.key(self.source.generation), lambda: self._execute(mq)
        )
        artifacts = self.cache.get(plan)
        return analyze_report(report, artifacts, [self._spec(query)])[query.spec]

    # -- verification ----------------------------------------------------------

    def _sampled(self) -> bool:
        """Count one request; True for every ``verify_every``-th."""
        every = self.config.verify_every
        return bool(every) and next(self._verify_counter) % every == 0

    def _direct(self, query):
        """Ground-truth recompute: no artifact cache, no memo, no pool."""
        plan = WindowPlan(query.t0, query.t1, query.user_jobs_only)
        artifacts = WindowArtifacts.materialize(self.source, plan)
        if isinstance(query, MatchQuery):
            return build_report(artifacts, self._matchers(query.methods))
        report = build_report(artifacts, self._matchers(DEFAULT_METHODS))
        return analyze_report(report, artifacts, [self._spec(query)])[query.spec]

    def _verify(self, query, value) -> None:
        direct = self._direct(query)
        same = bit_identical(direct, value)
        with self._verify_lock:
            self.verify_samples += 1
            if not same:
                self.verify_violations += 1
        obs = get_obs()
        if obs.enabled:
            obs.metrics.counter(
                "serve.verify", outcome="ok" if same else "violation"
            ).inc()

    # -- asyncio shell ---------------------------------------------------------

    async def start(self) -> "MatchService":
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="serve"
        )
        self._wake = asyncio.Event()
        self._running = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def stop(self) -> None:
        if not self._running:
            return
        await self.drain()
        self._running = False
        self._wake.set()
        await self._dispatcher
        self._pool.shutdown(wait=True)

    async def __aenter__(self) -> "MatchService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def drain(self) -> None:
        """Wait for every queued and in-flight request to complete."""
        while len(self.scheduler) or self._inflight:
            await asyncio.sleep(0.001)

    async def submit(self, tenant: str, query) -> Response:
        """The async front door: admission → memo → fair queue → workers.

        An admitted request whose key the memo holds is answered on the
        event loop: a finished entry at once, an in-flight one by
        awaiting its flight.  Only a miss, or a request sampled for
        verification, waits in the fair queue for a worker.
        """
        if not self._running:
            raise RuntimeError("service is not started")
        obs = get_obs()
        t_submit = self._loop.time()
        reason = self.admission.admit(tenant, self.scheduler.depth(tenant))
        if reason is not None:
            if obs.enabled:
                obs.metrics.counter("serve.requests", tenant=tenant, status="shed").inc()
                obs.metrics.counter("serve.shed", reason=reason).inc()
            return Response(tenant=tenant, status="shed", reason=reason)
        verify = self._sampled()
        if not verify:
            # No lock: the generation only grows (module docstring),
            # and a miss re-reads it under the lock in the worker.
            generation = self.source.generation
            flight = self.memo.lookup(query.key(generation))
            if flight is not None:
                return await self._from_memo(tenant, flight, generation, t_submit)
        future = self._loop.create_future()
        self.scheduler.push(tenant, (query, verify, future, t_submit))
        self._wake.set()
        return await future

    async def _from_memo(self, tenant, flight, generation, t_submit) -> Response:
        """Answer from a memo entry on the loop, without a worker."""
        joined = not flight.done()
        try:
            if joined:
                # The flight is shared: cancelling this request must
                # not cancel it under the leader and the other waiters.
                value = await asyncio.shield(asyncio.wrap_future(flight))
            else:
                value = flight.result()
        except Exception:
            obs = get_obs()
            if obs.enabled:
                obs.metrics.counter("serve.requests", tenant=tenant, status="error").inc()
            raise
        return self._respond(tenant, value, generation, True, t_submit, 0.0,
                             "join" if joined else "hit")

    def _respond(self, tenant, value, generation, cached, t_submit, queued,
                 outcome) -> Response:
        """An ``ok`` response, counted under ``serve.memo_served{outcome}``."""
        response = Response(
            tenant=tenant,
            status="ok",
            value=value,
            generation=generation,
            cached=cached,
            latency=self._loop.time() - t_submit,
            queued=queued,
        )
        obs = get_obs()
        if obs.enabled:
            obs.metrics.counter("serve.requests", tenant=tenant, status="ok").inc()
            obs.metrics.histogram("serve.latency", tenant=tenant).observe(
                response.latency
            )
            obs.metrics.counter("serve.memo_served", outcome=outcome).inc()
        return response

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._running:
                return
            while self._inflight < self.config.max_workers:
                item = self.scheduler.pop()
                if item is None:
                    break
                tenant, (query, verify, future, t_submit) = item
                self._inflight += 1
                t_start = self._loop.time()
                work = self._loop.run_in_executor(
                    self._pool, self._compute, query, verify
                )
                asyncio.ensure_future(
                    self._finish(tenant, future, t_submit, t_start, work)
                )

    async def _finish(self, tenant, future, t_submit, t_start, work) -> None:
        obs = get_obs()
        try:
            value, generation, cached = await work
        except BaseException as exc:
            if obs.enabled:
                obs.metrics.counter("serve.requests", tenant=tenant, status="error").inc()
            if not future.done():
                future.set_exception(exc)
        else:
            response = self._respond(tenant, value, generation, cached, t_submit,
                                     t_start - t_submit, "hit" if cached else "miss")
            if not future.done():
                future.set_result(response)
        finally:
            self._inflight -= 1
            self._wake.set()

    # -- introspection ---------------------------------------------------------

    @property
    def stats(self) -> dict:
        return {
            "memo": self.memo.stats,
            "cache": self.cache.stats,
            "shed": dict(self.admission.shed_counts),
            "verify": {
                "samples": self.verify_samples,
                "violations": self.verify_violations,
            },
        }
