"""Plan/materialize/execute dataplane for the §4.2 analysis workflow.

The three stages, mirroring Rucio's declarative-what / daemon-how
split:

* :mod:`repro.exec.plan` — :class:`WindowPlan` describes a
  pre-selection without running it;
* :mod:`repro.exec.artifacts` — :class:`WindowArtifacts` materializes
  a plan (jobs, files, transfers, candidate join) once;
  :class:`ArtifactCache` shares it across matchers, sweeps, and
  analyses, keyed by the source's data generation;
* :mod:`repro.exec.cache` — :class:`GenerationCache`, the one
  generation-keyed, single-flight LRU behind the artifact cache, the
  pool workers' report memo and the serving layer's result memo;
* :mod:`repro.exec.executor` — :class:`SerialExecutor` and
  :class:`ParallelExecutor` turn plans into
  :class:`~repro.core.matching.base.MatchingReport`\\ s with a
  deterministic map/reduce, fanning across cores when asked.

A fourth stage rides on the executors:
:mod:`repro.exec.analysis` fans named §5 analyses
(:func:`run_analyses`) across the :class:`ParallelExecutor`'s
persistent pool, sharing each window's matching report inside the
workers.

Matching runs on the columnar kernels (:mod:`repro.columnar`) and the
analyses on each result's ``MatchFrame``; the plain-record reference
both are checked against lives in ``tests/oracle.py``.
"""

from repro.exec.artifacts import (
    ArtifactCache,
    WindowArtifacts,
    build_report,
    match_artifacts,
)
from repro.exec.cache import GenerationCache
from repro.exec.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    default_matchers,
    make_executor,
)
from repro.exec.plan import WindowPlan, growing_plans, sliding_plans

# The analysis fan-out sits *above* repro.core.analysis, which in turn
# reaches back into repro.columnar — importing it here eagerly would
# close an import cycle during the columnar package's own init.  PEP
# 562 lazy attributes keep ``from repro.exec import run_analyses``
# working without participating in that cycle.
_ANALYSIS_EXPORTS = (
    "ANALYSIS_NAMES",
    "AnalysisSpec",
    "DEFAULT_ANALYSES",
    "analyze_report",
    "run_analyses",
)


def __getattr__(name):
    if name in _ANALYSIS_EXPORTS:
        from repro.exec import analysis

        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ANALYSIS_NAMES",
    "AnalysisSpec",
    "ArtifactCache",
    "DEFAULT_ANALYSES",
    "Executor",
    "GenerationCache",
    "ParallelExecutor",
    "SerialExecutor",
    "WindowArtifacts",
    "WindowPlan",
    "analyze_report",
    "build_report",
    "default_matchers",
    "growing_plans",
    "make_executor",
    "match_artifacts",
    "run_analyses",
    "sliding_plans",
]
