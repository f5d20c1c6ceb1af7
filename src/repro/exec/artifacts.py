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

:class:`ArtifactCache` memoizes materializations in the dataplane's one
:class:`~repro.exec.cache.GenerationCache`, keyed by
``(source generation, t0, t1, user_jobs_only)``.  The generation term
makes invalidation automatic: ingesting new telemetry bumps the store's
generation, so stale artifacts can never be served.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar import ColumnarIndex
from repro.columnar.packs import WindowColumns
from repro.core.matching.base import BaseMatcher, MatchingReport, MatchResult
from repro.exec.cache import GenerationCache
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


class ArtifactCache(GenerationCache):
    """Window materializations over one source, keyed on
    ``plan.key(source.generation)``.  The serving layer shares one
    instance across its worker threads."""

    def __init__(self, source, max_entries: int = 32) -> None:
        super().__init__("artifact.cache", max_entries)
        self.source = source

    def get(self, plan: WindowPlan) -> WindowArtifacts:
        artifacts, _ = self.get_or_compute(
            plan.key(self.source.generation), lambda: self._materialize(plan)
        )
        return artifacts

    def _materialize(self, plan: WindowPlan) -> WindowArtifacts:
        with get_obs().tracer.span("artifact.materialize", cat="artifact") as sp:
            artifacts = WindowArtifacts.materialize(self.source, plan)
            sp.set("t0", plan.t0)
            sp.set("t1", plan.t1)
            sp.set("n_jobs", len(artifacts.jobs))
            sp.set("n_files", len(artifacts.files))
            sp.set("n_transfers", len(artifacts.transfers))
        return artifacts
