"""Executors — the "how" of the plan/execute split.

An executor turns window plans into :class:`MatchingReport`\\ s through
a map/reduce interface: the *map* phase runs one (plan, matcher) task
per unit — against a shared :class:`ArtifactCache` serially, or across
a process pool in parallel — and the *reduce* phase reassembles results
into per-plan reports **in plan order**, regardless of completion
order.  That ordering rule is what makes serial and parallel execution
produce bit-identical ``matched_pairs()``: every task is a pure
function of (source, plan, matcher), and reduction never looks at
timing.

Parallel workers each hold their own artifact cache and report memo
(both :class:`~repro.exec.cache.GenerationCache`\\ s), seeded once per
pool from the source; tasks for the same plan are chunked together so
a window is materialized once per worker, not once per matcher.

The pool itself is *persistent*: a :class:`ParallelExecutor` creates
its ``ProcessPoolExecutor`` once and reuses it across every
``execute()``/``map`` call, keyed on ``(source, generation)`` so
worker state can never go stale — re-forking and re-pickling the
source per call was the dominant cost of sweep workloads.  The pool is
released by the existing ``close()``/context-manager protocol (and
defensively by ``__del__``); ``pool_inits`` counts initializations so
benchmarks can assert sweeps run on one pool.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.columnar import shm
from repro.core.matching.base import BaseMatcher, MatchingReport, MatchResult
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.rm1 import RM1Matcher
from repro.core.matching.rm2 import RM2Matcher
from repro.core.matching.rm3 import RM3Matcher
from repro.core.matching.subset import SubsetMatcher
from repro.exec.artifacts import ArtifactCache, build_report, match_artifacts
from repro.exec.cache import GenerationCache
from repro.exec.plan import WindowPlan
from repro.obs import get_obs


def default_matchers(known_sites=None) -> List[BaseMatcher]:
    """The paper's method ladder: Exact, RM1, RM2."""
    known_sites = known_sites or set()
    return [ExactMatcher(known_sites), RM1Matcher(known_sites), RM2Matcher(known_sites)]


#: Method-name registry behind ``--methods``; every entry takes the
#: known-site set as its only positional argument.
MATCHER_FACTORIES = {
    "exact": ExactMatcher,
    "rm1": RM1Matcher,
    "rm2": RM2Matcher,
    "rm3": RM3Matcher,
    "subset": SubsetMatcher,
}


def make_matchers(
    names: Sequence[str],
    known_sites=None,
    rm3_threshold: Optional[float] = None,
) -> List[BaseMatcher]:
    """Instantiate matchers by registry name, in the given order.

    ``rm3_threshold`` overrides :data:`~repro.core.matching.rm3.
    DEFAULT_RM3_THRESHOLD` for any ``rm3`` entries; the other methods
    have no tuning knobs.
    """
    known_sites = known_sites or set()
    out: List[BaseMatcher] = []
    for name in names:
        factory = MATCHER_FACTORIES.get(name)
        if factory is None:
            raise ValueError(
                f"unknown matching method {name!r}; "
                f"expected one of {sorted(MATCHER_FACTORIES)}"
            )
        if name == "rm3" and rm3_threshold is not None:
            out.append(RM3Matcher(known_sites, threshold=rm3_threshold))
        else:
            out.append(factory(known_sites))
    return out


class Executor:
    """Map/reduce over window plans; see :class:`SerialExecutor` and
    :class:`ParallelExecutor` for the two scheduling policies."""

    #: degree of parallelism (1 for serial)
    workers: int = 1

    def map(self, fn: Callable, items: Iterable) -> List:
        raise NotImplementedError

    def execute(
        self,
        source,
        plans: Sequence[WindowPlan],
        matchers: Optional[Sequence[BaseMatcher]] = None,
        known_sites=None,
    ) -> List[MatchingReport]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (no-op for serial execution)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process execution against one shared artifact cache."""

    def __init__(self, cache: Optional[ArtifactCache] = None) -> None:
        self.cache = cache

    def map(self, fn: Callable, items: Iterable) -> List:
        return [fn(item) for item in items]

    def _cache_for(self, source) -> ArtifactCache:
        if self.cache is None or self.cache.source is not source:
            self.cache = ArtifactCache(source)
        return self.cache

    def execute(
        self,
        source,
        plans: Sequence[WindowPlan],
        matchers: Optional[Sequence[BaseMatcher]] = None,
        known_sites=None,
    ) -> List[MatchingReport]:
        matchers = list(matchers) if matchers is not None else default_matchers(known_sites)
        cache = self._cache_for(source)
        tracer = get_obs().tracer
        reports = []
        for plan in plans:
            with tracer.span("executor.window", cat="executor") as sp:
                report = build_report(cache.get(plan), matchers)
                sp.set("t0", plan.t0)
                sp.set("t1", plan.t1)
                sp.set("n_jobs", report.n_jobs)
                sp.set("n_matchers", len(matchers))
            reports.append(report)
        return reports


# -- process-pool plumbing ----------------------------------------------------
#
# Worker state is module-global: the pool initializer deserializes the
# source once per worker process, and every task then only ships a
# (plan, matcher) pair.  Caches live per worker, so a worker that runs
# several matchers over one plan materializes the window once.

_WORKER_CACHE: Optional[ArtifactCache] = None

#: Per-worker memo of whole-window matching reports, keyed by
#: ``(generation, t0, t1, user_jobs_only, matcher names)``.  Analysis
#: fan-out tasks for one report share the matching work through it.
#: It is bounded like the artifact cache: a report's results hold
#: their window's packs.
_WORKER_REPORTS: Optional[GenerationCache] = None


def _worker_init(source) -> None:
    global _WORKER_CACHE, _WORKER_REPORTS
    if isinstance(source, shm.ArchiveRef):
        # Zero-copy path: the initializer received a pack-archive
        # handle, not a pickled source — attach to the memory-mapped
        # columns instead of deserializing megabytes of records.
        source = shm.attach(source)
    _WORKER_CACHE = ArtifactCache(source)
    _WORKER_REPORTS = GenerationCache("executor.reports")


def worker_cache() -> ArtifactCache:
    """The calling worker process's artifact cache (post-initializer)."""
    assert _WORKER_CACHE is not None, "pool initializer did not run"
    return _WORKER_CACHE


def worker_report(plan: WindowPlan, matchers: Sequence[BaseMatcher]) -> MatchingReport:
    """Memoized whole-window report inside one worker process."""
    cache = worker_cache()
    key = (*plan.key(cache.source.generation), tuple(m.name for m in matchers))
    report, _ = _WORKER_REPORTS.get_or_compute(
        key, lambda: build_report(cache.get(plan), matchers)
    )
    return report


def _worker_task(task: Tuple[WindowPlan, BaseMatcher]):
    plan, matcher = task
    assert _WORKER_CACHE is not None, "pool initializer did not run"
    artifacts = _WORKER_CACHE.get(plan)
    result = match_artifacts(matcher, artifacts)
    return (
        result,
        len(artifacts.jobs),
        len(artifacts.transfers),
        artifacts.n_transfers_with_taskid,
    )


# -- source identity ----------------------------------------------------------

#: Monotonic tokens for source objects.  ``id()`` is recycled by the
#: allocator the moment a source is garbage-collected, so keying pools
#: on it could silently serve a *new* source from a *stale* worker
#: cache; tokens are handed out once per live object and never reused.
_SOURCE_TOKEN_BY_OBJ: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_SOURCE_TOKEN_COUNTER = itertools.count(1)


def source_token(source) -> tuple:
    """A pool-key-safe identity for ``source``.

    ``("tok", n)`` with a monotonically assigned ``n`` for
    weak-referenceable objects (every real source); falls back to
    ``("id", id(source))`` for exotic objects that support neither weak
    references nor hashing — those keep the old (recyclable) semantics
    rather than being leaked by a strong-reference registry.
    """
    try:
        tok = _SOURCE_TOKEN_BY_OBJ.get(source)
        if tok is None:
            tok = next(_SOURCE_TOKEN_COUNTER)
            _SOURCE_TOKEN_BY_OBJ[source] = tok
        return ("tok", tok)
    except TypeError:
        return ("id", id(source))


class ParallelExecutor(Executor):
    """Process-pool execution: plans × matchers fanned across cores.

    Determinism: ``ProcessPoolExecutor.map`` yields results in task
    order, and reduction groups them back per plan positionally, so the
    output is bit-identical to :class:`SerialExecutor` — completion
    order never influences it.  Matcher instances are pickled per task;
    worker-side mutations (e.g. ``SubsetMatcher.fallbacks``) stay in
    the worker.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        mp_context=None,
        shared_memory: Optional[bool] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers or os.cpu_count() or 1
        self._mp_context = mp_context
        #: Worker seeding strategy.  ``None`` (auto) spools the source
        #: to a zero-copy pack archive whenever it exposes column packs,
        #: falling back to the pickled-source initializer otherwise;
        #: ``True`` forces the attempt, ``False`` forces pickling.
        self.shared_memory = shared_memory
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_key: Optional[tuple] = None
        self._archive_key: Optional[tuple] = None
        # Guards pool creation/rotation, archive acquire/release, and
        # close(): the serving layer drives one executor from many
        # threads, and an unguarded key-change check could build two
        # pools (leaking one plus its archive refcount) or double-release
        # an archive when two callers race a generation bump.
        self._lock = threading.RLock()
        #: Number of pool initializations over this executor's lifetime;
        #: a sweep over one source must leave this at 1.
        self.pool_inits = 0
        #: How the most recent source-keyed pool seeded its workers
        #: ("shm" or "pickle"); None before the first one.
        self.seed_mode: Optional[str] = None

    # -- persistent pool lifecycle -------------------------------------------

    def _source_key(self, source) -> tuple:
        return ("source", source_token(source), source.generation)

    def _shm_wanted(self, source) -> bool:
        if self.shared_memory is None:
            return hasattr(source, "column_packs")
        return self.shared_memory

    def _init_spec(self, source, key: tuple) -> tuple:
        """Initializer args for a new pool: an archive ref or the source.

        Acquires a refcounted pack archive when shared memory is wanted
        and the source can be spooled; any export failure degrades to
        the pickle path (shared memory is an optimization, never a
        requirement).
        """
        obs = get_obs()
        if self._shm_wanted(source):
            try:
                archive = shm.acquire(source, key)
            except shm.ExportError:
                if obs.enabled:
                    obs.metrics.counter("executor.shm", event="fallback").inc()
            else:
                self._archive_key = key
                self.seed_mode = "shm"
                return (shm.ArchiveRef(str(archive.path)),)
        self.seed_mode = "pickle"
        return (source,)

    def _release_archive(self) -> None:
        if self._archive_key is not None:
            shm.release(self._archive_key)
            self._archive_key = None

    def _pool_for(self, key: tuple, initargs_for=None) -> ProcessPoolExecutor:
        """The persistent pool for ``key``, (re)created only on key change.

        ``key`` captures everything the workers' global state depends
        on — the source identity token and its data generation — so
        reuse is safe exactly when the key matches.  A bare
        pool (``key[0] == "bare"``) carries no worker state and any
        live pool can serve it.  ``initargs_for`` is invoked only when
        a pool is actually created, so archive exports happen once per
        key, not once per call.

        Thread-safe: concurrent callers on one key share one pool (the
        creation race is resolved under the executor lock), and callers
        racing a key change rotate exactly once.
        """
        obs = get_obs()
        with self._lock:
            if self._pool is not None:
                if key == self._pool_key or key[0] == "bare":
                    if obs.enabled:
                        obs.metrics.counter("executor.pool", event="reuse").inc()
                    return self._pool
                self._pool.shutdown(wait=True)
                self._pool = None
                # The outgoing pool's workers held the old archive's maps;
                # they are gone after shutdown, so the spool can go too.
                self._release_archive()
            self.pool_inits += 1
            if obs.enabled:
                obs.metrics.counter("executor.pool", event="init").inc()
            with obs.tracer.span("executor.pool_init", cat="executor") as sp:
                sp.set("workers", self.workers)
                initargs = initargs_for() if initargs_for is not None else None
                sp.set("seed_mode", self.seed_mode if initargs is not None else "none")
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._mp_context,
                    initializer=_worker_init if initargs is not None else None,
                    initargs=initargs if initargs is not None else (),
                )
            self._pool_key = key
            return self._pool

    def close(self) -> None:
        """Release the pool and any spooled archive.  Idempotent and
        thread-safe: a second (or concurrent) close is a no-op."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_key = None
            self._release_archive()

    def __del__(self) -> None:
        # Defensive: tests and sweeps that forget close() must not leak
        # worker processes or spooled archives.
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)
        try:
            self._release_archive()
        except Exception:
            pass

    def map(self, fn: Callable, items: Iterable) -> List:
        """Generic parallel map; ``fn`` and items must be picklable.

        Routed through the persistent pool: an existing pool (bare or
        source-keyed) is reused as-is, so interleaving ``map`` calls
        with ``execute`` sweeps costs no re-initialization.
        """
        items = list(items)
        if not items:
            return []
        pool = self._pool_for(("bare",))
        with get_obs().tracer.span("executor.map", cat="executor") as sp:
            sp.set("n_items", len(items))
            sp.set("workers", self.workers)
            return list(pool.map(fn, items))

    def map_with_source(self, fn: Callable, items: Iterable, source) -> List:
        """Parallel map whose tasks read the per-worker source state.

        Ensures the pool's workers were initialized for ``source``,
        exactly like :meth:`execute` — the entry point the analysis
        fan-out (:mod:`repro.exec.analysis`) builds on.
        """
        items = list(items)
        if not items:
            return []
        key = self._source_key(source)
        pool = self._pool_for(key, initargs_for=lambda: self._init_spec(source, key))
        with get_obs().tracer.span("executor.map", cat="executor") as sp:
            sp.set("n_items", len(items))
            sp.set("workers", self.workers)
            return list(pool.map(fn, items))

    def execute(
        self,
        source,
        plans: Sequence[WindowPlan],
        matchers: Optional[Sequence[BaseMatcher]] = None,
        known_sites=None,
    ) -> List[MatchingReport]:
        matchers = list(matchers) if matchers is not None else default_matchers(known_sites)
        plans = list(plans)
        if not plans or not matchers:
            return SerialExecutor().execute(source, plans, matchers)

        tasks = [(plan, matcher) for plan in plans for matcher in matchers]
        if len(plans) >= self.workers:
            # Sweep case: keep one plan's tasks in one chunk so each
            # window is materialized by exactly one worker.
            chunksize = len(matchers)
        else:
            # Few plans, many matchers: matcher-level parallelism wins
            # even though several workers materialize the same window.
            chunksize = 1
        key = self._source_key(source)
        pool = self._pool_for(key, initargs_for=lambda: self._init_spec(source, key))
        with get_obs().tracer.span("executor.map", cat="executor") as sp:
            sp.set("n_tasks", len(tasks))
            sp.set("workers", self.workers)
            sp.set("chunksize", chunksize)
            partials = list(pool.map(_worker_task, tasks, chunksize=chunksize))

        reports: List[MatchingReport] = []
        cursor = iter(partials)
        for plan in plans:
            results = {}
            n_jobs = n_transfers = n_taskid = 0
            for _ in matchers:
                result, n_jobs, n_transfers, n_taskid = next(cursor)
                results[result.method] = result
            reports.append(MatchingReport(
                window=plan.window,
                n_jobs=n_jobs,
                n_transfers=n_transfers,
                n_transfers_with_taskid=n_taskid,
                results=results,
            ))
        return reports


def make_executor(
    workers: Optional[int] = None, shared_memory: Optional[bool] = None
) -> Executor:
    """``--workers`` plumbing: 0/1/None → serial, N>1 → N processes."""
    if workers is None or workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers=workers, shared_memory=shared_memory)
