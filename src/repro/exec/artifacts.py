"""Materialized window artifacts and their cache.

Materializing a :class:`~repro.exec.plan.WindowPlan` is the expensive
half of the §4.2 workflow: three metastore queries (jobs, transfers,
and one *batched* file lookup) that the source's ``materialize_window``
evaluates to id arrays, the window's column packs gathered from the
source's full-table lowering by those ids, and the Algorithm-1 join.
Every matcher — Exact, RM1, RM2, RM3, subset — only ever reads these
artifacts, so one materialization serves all methods and every
analysis that replays the same window.

The join is :class:`~repro.columnar.engine.ColumnarIndex`, built lazily
on first use over the window's packs.  A matcher whose predicates its
kernels cannot lower is rejected with ``TypeError``.

:class:`ArtifactCache` memoizes materializations keyed by
``(t0, t1, user_jobs_only, source generation)``.  The generation term
makes invalidation automatic: ingesting new telemetry bumps the store's
generation, so stale artifacts can never be served.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar import ColumnarIndex
from repro.columnar.packs import WindowColumns
from repro.core.matching.base import BaseMatcher, MatchingReport, MatchResult
from repro.exec.plan import WindowPlan
from repro.obs import get_obs
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord


class WindowArtifacts:
    """Everything the matchers need for one window, built once."""

    def __init__(
        self,
        plan: WindowPlan,
        generation: int,
        jobs: List[JobRecord],
        files: List[FileRecord],
        transfers: List[TransferRecord],
        columns: WindowColumns,
    ) -> None:
        self.plan = plan
        self.generation = generation
        self.jobs = jobs
        self.files = files
        self.transfers = transfers
        self.columns = columns
        self._columnar: Optional[ColumnarIndex] = None
        self.n_transfers_with_taskid = int(
            np.count_nonzero(columns.transfers.jeditaskid > 0)
        )

    @property
    def columnar(self) -> ColumnarIndex:
        """The window's packed join (built on first use)."""
        if self._columnar is None:
            self._columnar = ColumnarIndex(
                self.jobs, self.files, self.transfers, columns=self.columns
            )
        return self._columnar

    @property
    def window(self) -> Tuple[float, float]:
        return self.plan.window

    @classmethod
    def materialize(cls, source, plan: WindowPlan) -> "WindowArtifacts":
        """Run the pre-selection queries and cut the window's packs.

        ``source.materialize_window``
        (:class:`~repro.metastore.packsource.PackSource`) evaluates the
        window to id arrays and hands back lazy record views plus packs
        cut from the source's columns by pure NumPy gathers.
        """
        jobs, files, transfers, columns = source.materialize_window(
            plan.t0, plan.t1, plan.user_jobs_only
        )
        return cls(plan, source.generation, jobs, files, transfers, columns)


def match_artifacts(matcher: BaseMatcher, artifacts: WindowArtifacts) -> MatchResult:
    """Run one matcher's filters over shared artifacts.

    Raises ``TypeError`` when the matcher overrides a predicate hook the
    columnar kernels cannot lower (custom ``site_ok`` etc.).
    """
    with get_obs().tracer.span("executor.task", cat="executor") as sp:
        sp.set("method", matcher.name)
        return artifacts.columnar.run(
            matcher, n_transfers_considered=artifacts.n_transfers_with_taskid
        )


def build_report(
    artifacts: WindowArtifacts, matchers: Sequence[BaseMatcher]
) -> MatchingReport:
    """All methods over one materialized window."""
    return MatchingReport(
        window=artifacts.window,
        n_jobs=len(artifacts.jobs),
        n_transfers=len(artifacts.transfers),
        n_transfers_with_taskid=artifacts.n_transfers_with_taskid,
        results={m.name: match_artifacts(m, artifacts) for m in matchers},
    )


class ArtifactCache:
    """Memoized materialization over one source, with LRU bounds.

    A cache is bound to its source; ``get`` keys on the plan plus the
    source's current generation, evicting entries from older
    generations eagerly (they can never hit again).

    The cache is thread-safe — the serving layer shares one instance
    across its whole worker pool.  One lock guards the LRU order, the
    eviction sweeps, and the hit/miss/eviction stats; materialization
    itself runs *outside* the lock so two threads missing on different
    windows overlap their metastore work.  Two threads missing on the
    same key may both materialize, but only one result is kept
    (first-insert wins) and both callers get that shared object —
    duplicated work, never divergent state.
    """

    def __init__(self, source, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.source = source
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, WindowArtifacts]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, plan: WindowPlan) -> WindowArtifacts:
        obs = get_obs()
        generation = getattr(self.source, "generation", 0)
        key = plan.key(generation)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                if obs.enabled:
                    obs.metrics.counter("artifact.cache", event="hit").inc()
                self._entries.move_to_end(key)
                return cached
            self.misses += 1
            if obs.enabled:
                obs.metrics.counter("artifact.cache", event="miss").inc()
            # Entries from older generations are dead; drop them all.
            stale = [k for k in self._entries if k[3] != generation]
            for k in stale:
                del self._entries[k]
            self._evicted(obs, len(stale))

        with obs.tracer.span("artifact.materialize", cat="artifact") as sp:
            artifacts = WindowArtifacts.materialize(self.source, plan)
            sp.set("t0", plan.t0)
            sp.set("t1", plan.t1)
            sp.set("n_jobs", len(artifacts.jobs))
            sp.set("n_files", len(artifacts.files))
            sp.set("n_transfers", len(artifacts.transfers))

        with self._lock:
            racing = self._entries.get(key)
            if racing is not None:
                self._entries.move_to_end(key)
                return racing
            self._entries[key] = artifacts
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evicted(obs, 1)
        return artifacts

    def _evicted(self, obs, n: int) -> None:
        if n:
            self.evictions += n
            if obs.enabled:
                obs.metrics.counter("artifact.cache", event="evict").inc(n)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }
