"""Algorithm throughput — the scalability §5.5 calls for.

The paper processes ~1M jobs and ~7M transfers; §5.5 notes that
"the volume of metadata imposes the need for efficient computing for
scalability".  This benchmark measures the matching pipeline's
throughput (candidate-join construction plus all three matchers) and
compares the plan/execute dataplane (cached window artifacts + sweep
executor, ``--workers N``) against the pre-refactor per-run-rebuild
architecture.  End-to-end and per-layer timings of the same path live
in the perf harness (``benchmarks/perf``).
"""

import time

from conftest import write_comparison

from repro.columnar import ColumnarIndex
from repro.core.matching.pipeline import MatchingPipeline
from repro.exec import (
    WindowArtifacts,
    build_report,
    default_matchers,
    growing_plans,
)


def test_full_pipeline_throughput(benchmark, eightday):
    pipeline = MatchingPipeline(
        eightday.source, known_sites=eightday.harness.known_site_names())
    t0, t1 = eightday.harness.window

    report = benchmark(pipeline.run, t0, t1)
    assert report["exact"].n_matched_jobs >= 0


def test_sweep_executor_vs_rebuild(eightday, executor, workers, results_dir):
    """The dataplane's win: a methods × windows sweep, old vs new.

    Old architecture: every (window, method) run re-ran the
    pre-selection and rebuilt the candidate join.  New: each window is
    materialized once into cached artifacts shared by all methods, and
    the sweep fans across ``--workers`` processes.  Results must be
    identical; wall-clock must improve.  The structural guarantee is
    the ``ColumnarIndex`` build counter: one join per window instead of
    one per (window, method).
    """
    source = eightday.source
    known = eightday.harness.known_site_names()
    t0, t1 = eightday.harness.window
    plans = growing_plans(t0, t1, n_points=6)
    matchers = default_matchers(known)

    builds_before = ColumnarIndex.build_count
    start = time.perf_counter()
    naive = []
    for plan in plans:  # the pre-refactor shape: rebuild per (window, method)
        results = {}
        for matcher in matchers:
            artifacts = WindowArtifacts.materialize(source, plan)
            results[matcher.name] = build_report(artifacts, [matcher])[matcher.name]
        naive.append(results)
    t_naive = time.perf_counter() - start
    naive_builds = ColumnarIndex.build_count - builds_before

    pipeline = MatchingPipeline(source, known_sites=known)
    builds_before = ColumnarIndex.build_count
    start = time.perf_counter()
    swept = pipeline.sweep(plans, matchers=matchers, executor=executor)
    t_exec = time.perf_counter() - start
    cached_builds = ColumnarIndex.build_count - builds_before

    for old, new in zip(naive, swept):
        for m in matchers:
            assert old[m.name].matched_pairs() == new[m.name].matched_pairs()
    # Parent-side builds: one per window when serial, zero when the
    # sweep ran in worker processes (their counters are per-process).
    assert cached_builds <= len(plans) < naive_builds
    speedup = t_naive / t_exec if t_exec > 0 else float("inf")
    # The architectural win (shared artifacts vs rebuild-per-run) is a
    # hard floor in-process.  With workers > 1 the wall-clock depends on
    # how many cores the host actually has — process spawn + source
    # pickling can swamp this small workload on a 1-core box — so the
    # multi-worker runs stop after asserting identical output above, and
    # write no record: CI runs this bench serially and then with
    # --workers 2, and the committed record is the serial run's.
    # Floor: materialization is cheap next to the join, which shrinks
    # the naive side (3x more materializations) disproportionately;
    # the structural guarantee is the build-count assertion above, the
    # wall-clock floor just catches gross regressions.
    if workers != 1:
        return
    assert speedup >= 1.2, (
        f"sweep executor must beat per-run rebuilds: {speedup:.2f}x "
        f"(naive {t_naive:.2f}s, executor {t_exec:.2f}s)")
    write_comparison(
        "matching_sweep_executor",
        paper={"note": "paper reports no timings; §5.5 demands scalability"},
        measured={
            "windows": len(plans),
            "methods": [m.name for m in matchers],
            "workers": workers,
            "rebuild_seconds": round(t_naive, 3),
            "executor_seconds": round(t_exec, 3),
            "speedup": round(speedup, 2),
            "index_builds_rebuild": naive_builds,
            "index_builds_executor_parent": cached_builds,
        },
        notes="Plan/execute dataplane vs per-(window,method) rebuild; "
              "outputs verified identical.",
    )
