"""Analysis fan-out: named §5 analyses over the persistent pool.

:func:`run_analyses` runs a batch of named analyses (Table 1/2, the
Fig-5/6 breakdowns, the Fig-9 sweep, site dashboards, temporal
profiles, ...) for one window.  Serially it shares one materialized
window and one matching report across every spec; through a
:class:`~repro.exec.executor.ParallelExecutor` each spec becomes one
task on the *persistent* pool, and workers memoize the window's report
(:func:`~repro.exec.executor.worker_report`) so the Exact/RM1/RM2
matching work is done once per worker, not once per analysis.

Every spec runs the same MatchFrame/pack kernels wherever it is
scheduled, so fan-out never changes numbers — only where and when they
are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.analysis.queuing import timing_table, timings_for_result
from repro.core.analysis.sites import build_dashboards
from repro.core.analysis.summary import (
    activity_breakdown,
    headline_stats,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.core.analysis.temporal import submission_profile, transfer_volume_profile
from repro.core.analysis.thresholds import threshold_sweep_result
from repro.exec.artifacts import ArtifactCache, WindowArtifacts, build_report
from repro.exec.executor import (
    ParallelExecutor,
    SerialExecutor,
    default_matchers,
    worker_cache,
    worker_report,
)
from repro.exec.plan import WindowPlan


@dataclass(frozen=True)
class AnalysisSpec:
    """One named analysis over one window's matching report.

    ``params`` is a sorted tuple of (key, value) pairs — kept hashable
    and cheaply picklable so specs travel to pool workers unchanged.
    Build with :meth:`make` to pass keyword parameters naturally.
    """

    name: str
    method: str = "exact"
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, name: str, method: str = "exact", **params) -> "AnalysisSpec":
        return cls(name=name, method=method, params=tuple(sorted(params.items())))

    @classmethod
    def of(cls, spec: Union[str, "AnalysisSpec"]) -> "AnalysisSpec":
        return spec if isinstance(spec, AnalysisSpec) else cls(name=spec)


#: Specs that need no extra parameters — the full §5 batch.
DEFAULT_ANALYSES: Tuple[str, ...] = (
    "headline",
    "table1",
    "table2_transfers",
    "table2_jobs",
    "top_local",
    "top_remote",
    "thresholds",
    "sites",
    "volume",
    "submissions",
)

ANALYSIS_NAMES: Tuple[str, ...] = DEFAULT_ANALYSES + ("timings", "matrix")


def _dispatch(spec: AnalysisSpec, report, artifacts: WindowArtifacts, plan: WindowPlan):
    name, kw = spec.name, dict(spec.params)
    result = report[spec.method]
    columns = artifacts.columns
    if name == "headline":
        return headline_stats(report, method=spec.method)
    if name == "timings":
        return timings_for_result(result)
    if name == "top_local":
        return timing_table(result).top_jobs("local", **kw)
    if name == "top_remote":
        return timing_table(result).top_jobs("remote", **kw)
    if name == "thresholds":
        return threshold_sweep_result(result, **kw)
    if name == "table1":
        return activity_breakdown(result, artifacts.transfers, columns=columns)
    if name == "table2_transfers":
        return method_comparison_transfers(report)
    if name == "table2_jobs":
        return method_comparison_jobs(report)
    if name == "matrix":
        site_names = kw.pop("site_names")
        return build_transfer_matrix(artifacts.transfers, list(site_names), columns=columns)
    if name == "sites":
        return build_dashboards(artifacts.jobs, artifacts.transfers, columns=columns)
    if name == "volume":
        return transfer_volume_profile(
            artifacts.transfers, plan.t0, plan.t1, columns=columns, **kw
        )
    if name == "submissions":
        return submission_profile(artifacts.jobs, plan.t0, plan.t1, columns=columns, **kw)
    raise ValueError(f"unknown analysis {name!r} (known: {', '.join(ANALYSIS_NAMES)})")


def analyze_report(
    report,
    artifacts: WindowArtifacts,
    specs: Sequence[Union[str, AnalysisSpec]] = DEFAULT_ANALYSES,
) -> Dict[str, object]:
    """Run every spec against an already-built report (in-process).

    The pure analysis half of :func:`run_analyses` — benchmarks time it
    separately from matching, and the serial path delegates here.
    """
    return {
        spec.name: _dispatch(spec, report, artifacts, artifacts.plan)
        for spec in (AnalysisSpec.of(s) for s in specs)
    }


def _analysis_task(task):
    """Pool task: one spec against the worker's memoized report."""
    plan, spec, matchers = task
    report = worker_report(plan, list(matchers))
    artifacts = worker_cache().get(plan)
    return _dispatch(spec, report, artifacts, plan)


def run_analyses(
    source,
    plan: WindowPlan,
    specs: Sequence[Union[str, AnalysisSpec]] = DEFAULT_ANALYSES,
    *,
    matchers=None,
    known_sites=None,
    executor=None,
) -> Dict[str, object]:
    """Run every spec for one window; returns ``{spec name: result}``.

    With a :class:`ParallelExecutor`, specs fan out across the
    executor's persistent pool (one task each); matching work is shared
    through the workers' report memo, and interleaving this with
    ``execute`` sweeps over the same source re-uses the same pool — no
    re-initialization.  Otherwise the specs run in-process against one
    report.
    """
    resolved: List[AnalysisSpec] = [AnalysisSpec.of(s) for s in specs]
    matchers = list(matchers) if matchers is not None else default_matchers(known_sites)

    if isinstance(executor, ParallelExecutor) and resolved:
        tasks = [(plan, spec, tuple(matchers)) for spec in resolved]
        results = executor.map_with_source(_analysis_task, tasks, source)
        return {spec.name: res for spec, res in zip(resolved, results)}

    if isinstance(executor, SerialExecutor):
        cache = executor._cache_for(source)
    else:
        cache = ArtifactCache(source)
    artifacts = cache.get(plan)
    report = build_report(artifacts, matchers)
    return analyze_report(report, artifacts, resolved)
