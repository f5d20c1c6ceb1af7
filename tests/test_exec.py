"""Tests for the plan/materialize/execute dataplane (``repro.exec``).

Covers the hard requirements of the refactor: serial and parallel
executors must produce bit-identical reports; the artifact cache must
eliminate repeated pre-selections and ``ColumnarIndex`` builds; and
cache entries must die when the source's data generation changes.
"""

from dataclasses import astuple

import pytest

from repro.columnar import ColumnarIndex
from repro.core.matching.base import JobMatch, MatchResult
from repro.core.matching.pipeline import MatchingPipeline
from repro.core.matching.subset import SubsetMatcher
from repro.core.matching.windows import growing_window_curve, multi_method_sweep
from repro.exec import (
    ArtifactCache,
    ParallelExecutor,
    SerialExecutor,
    WindowArtifacts,
    WindowPlan,
    default_matchers,
    growing_plans,
    make_executor,
    sliding_plans,
)
from repro.metastore.packsource import PackSource

from tests.helpers import make_file, make_job, make_transfer, matching_triple


def tiny_source() -> PackSource:
    """A private one-job source (safe to mutate, unlike the fixtures)."""
    job, files, transfers = matching_triple()
    return PackSource.from_records([job], files, transfers)


class TestWindowPlan:
    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            WindowPlan(10.0, 5.0)

    def test_key_includes_generation(self):
        plan = WindowPlan(0.0, 10.0)
        assert plan.key(1) != plan.key(2)
        assert plan.key(3) == (3, 0.0, 10.0, True)

    def test_plans_are_hashable_and_ordered(self):
        plans = sliding_plans(0.0, 100.0, 25.0)
        assert len(set(plans)) == len(plans) == 4
        assert sorted(plans) == plans

    def test_growing_plans_end_at_full_window(self):
        plans = growing_plans(0.0, 60.0, n_points=3)
        assert [p.t1 for p in plans] == [20.0, 40.0, 60.0]
        assert all(p.t0 == 0.0 for p in plans)

    def test_growing_plans_need_two_points(self):
        with pytest.raises(ValueError):
            growing_plans(0.0, 60.0, n_points=1)


class TestArtifactCache:
    def test_hit_returns_same_artifacts(self):
        cache = ArtifactCache(tiny_source())
        plan = WindowPlan(0.0, 10_000.0)
        first = cache.get(plan)
        assert cache.get(plan) is first
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1, "evictions": 0}

    def test_cache_eliminates_index_rebuilds(self):
        """The build-counter requirement: N methods, one join build."""
        source = tiny_source()
        pipeline = MatchingPipeline(source, known_sites={"SITE-A"})
        before = ColumnarIndex.build_count
        pipeline.run(0.0, 10_000.0)  # exact + rm1 + rm2
        pipeline.run(0.0, 10_000.0, matchers=[SubsetMatcher({"SITE-A"})])
        growing_window_curve(pipeline, 0.0, 10_000.0, n_points=2)
        # one build for [0, 10000) shared by all five matcher runs, plus
        # one for the curve's half window [0, 5000).
        assert ColumnarIndex.build_count - before == 2

    def test_generation_change_invalidates(self):
        source = tiny_source()
        cache = ArtifactCache(source)
        plan = WindowPlan(0.0, 10_000.0)
        stale = cache.get(plan)
        assert len(stale.jobs) == 1

        job2 = make_job(pandaid=2, jeditaskid=200)
        source.ingest_batch(
            jobs=[job2], files=[make_file(pandaid=2, jeditaskid=200, lfn="g0")]
        )

        fresh = cache.get(plan)
        assert fresh is not stale
        assert len(fresh.jobs) == 2
        assert cache.misses == 2
        # the stale generation's entry was evicted, not retained
        assert len(cache) == 1

    def test_lru_bound(self):
        cache = ArtifactCache(tiny_source(), max_entries=2)
        for k in range(4):
            cache.get(WindowPlan(0.0, 1000.0 * (k + 1)))
        assert len(cache) == 2

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            ArtifactCache(tiny_source(), max_entries=0)


def _report_fingerprint(report):
    """Everything the parity requirement names, per method."""
    return {
        "n_jobs": report.n_jobs,
        "n_transfers": report.n_transfers,
        "n_transfers_with_taskid": report.n_transfers_with_taskid,
        "methods": {
            m: {
                "pairs": report[m].matched_pairs(),
                "n_matched_jobs": report[m].n_matched_jobs,
                "n_matched_transfers": report[m].n_matched_transfers,
                "by_class": report[m].frame().jobs_by_class(),
                "local_remote": report[m].frame().local_remote_split(),
            }
            for m in report.methods
        },
    }


class TestExecutorParity:
    """Serial and parallel execution must be bit-identical (seeded workload)."""

    @pytest.fixture(scope="class")
    def plans(self, small_study):
        t0, t1 = small_study.harness.window
        return growing_plans(t0, t1, n_points=3)

    @pytest.mark.parametrize("matcher_set", ["default", "subset"])
    def test_reports_identical(self, small_study, plans, matcher_set):
        known = small_study.harness.known_site_names()
        matchers = None if matcher_set == "default" else [SubsetMatcher(known)]
        serial = SerialExecutor().execute(
            small_study.source, plans, matchers=matchers, known_sites=known)
        parallel = ParallelExecutor(workers=2).execute(
            small_study.source, plans, matchers=matchers, known_sites=known)
        assert len(serial) == len(parallel) == len(plans)
        for s, p in zip(serial, parallel):
            assert _report_fingerprint(s) == _report_fingerprint(p)

    def test_pipeline_run_with_parallel_executor(self, small_study):
        t0, t1 = small_study.harness.window
        pipeline = MatchingPipeline(
            small_study.source, known_sites=small_study.harness.known_site_names())
        serial = pipeline.run(t0, t1)
        parallel = pipeline.run(t0, t1, executor=ParallelExecutor(workers=2))
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)

    def test_multi_method_sweep_parity(self, small_study, plans):
        pipeline = MatchingPipeline(
            small_study.source, known_sites=small_study.harness.known_site_names())
        serial = multi_method_sweep(pipeline, plans)
        parallel = multi_method_sweep(
            pipeline, plans, executor=ParallelExecutor(workers=2))
        for s, p in zip(serial, parallel):
            assert _report_fingerprint(s) == _report_fingerprint(p)

    def test_empty_plan_list(self, small_study):
        assert ParallelExecutor(workers=2).execute(small_study.source, []) == []

    def test_parallel_map(self):
        assert ParallelExecutor(workers=2).map(abs, [-1, 2, -3]) == [1, 2, 3]

    def test_serial_map(self):
        assert SerialExecutor().map(abs, [-1, 2, -3]) == [1, 2, 3]


class TestMakeExecutor:
    def test_serial_for_one_worker(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_parallel_above_one(self):
        ex = make_executor(3)
        assert isinstance(ex, ParallelExecutor)
        assert ex.workers == 3

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)


class TestMatchedPairsUniqueness:
    """The double-counting satellite: pairs are always unique."""

    def test_duplicate_transfers_deduped(self):
        job, files, transfers = matching_triple()
        dup = MatchResult(
            method="bad",
            matches=[JobMatch(job=job, transfers=[transfers[0], transfers[0], transfers[1]])],
            n_jobs_considered=1,
            n_transfers_considered=3,
        )
        pairs = dup.matched_pairs()
        assert len(pairs) == len(set(pairs)) == 2
        assert dup.n_matched_transfers == 2

    def test_pairs_unique_on_seeded_workload(self, small_report):
        for method in small_report.methods:
            pairs = small_report[method].matched_pairs()
            assert len(pairs) == len(set(pairs))

    def test_order_preserved(self):
        job, files, transfers = matching_triple()
        res = MatchResult(
            method="ok",
            matches=[JobMatch(job=job, transfers=list(reversed(transfers)))],
            n_jobs_considered=1,
            n_transfers_considered=3,
        )
        pairs = res.matched_pairs()
        assert pairs == [(job.pandaid, t.row_id) for t in reversed(transfers)]


class TestBatchedPreselection:
    """The N+1 satellite: one files query per window, same rows."""

    def test_files_of_jobs_matches_per_job_union(self, small_study):
        t0, t1 = small_study.harness.window
        jobs = small_study.source.user_jobs_completed_in(t0, t1)[:50]
        batched = small_study.source.files_of_jobs([j.pandaid for j in jobs])
        per_job = []
        for j in jobs:
            per_job.extend(small_study.source.files_of_job(j.pandaid))
        assert sorted(map(astuple, batched)) == sorted(map(astuple, per_job))

    def test_pipeline_preselect_files_batched(self, small_study):
        pipeline = MatchingPipeline(small_study.source)
        t0, t1 = small_study.harness.window
        jobs = pipeline.preselect_jobs(t0, t1)
        files = pipeline.preselect_files(jobs)
        assert {f.pandaid for f in files} <= {j.pandaid for j in jobs}


class TestPersistentPool:
    """The zero-rebuild pool: one initialization per (source, generation)."""

    def test_pool_survives_execute_and_map(self):
        source = tiny_source()
        plans = sliding_plans(0.0, 20_000.0, 10_000.0)
        with ParallelExecutor(workers=2) as ex:
            ex.execute(source, plans[:1])
            ex.execute(source, plans)
            assert ex.map(abs, [-1, 2, -3]) == [1, 2, 3]
            ex.execute(source, plans)
            assert ex.pool_inits == 1

    def test_close_releases_pool(self):
        source = tiny_source()
        ex = ParallelExecutor(workers=2)
        ex.execute(source, [WindowPlan(0.0, 10_000.0)])
        ex.close()
        assert ex._pool is None
        ex.execute(source, [WindowPlan(0.0, 10_000.0)])
        ex.close()
        assert ex.pool_inits == 2

    def test_generation_bump_reinitializes(self):
        source = tiny_source()
        plan = WindowPlan(0.0, 10_000.0)
        with ParallelExecutor(workers=2) as ex:
            before = ex.execute(source, [plan])[0]
            job2, files2, _ = matching_triple()
            job2 = make_job(pandaid=999_999, creation=1.0, start=2.0, end=3.0)
            source.ingest_batch(jobs=[job2])
            after = ex.execute(source, [plan])[0]
            assert ex.pool_inits == 2
            assert after.n_jobs >= before.n_jobs


class TestArtifactCacheThreadSafety:
    """The serving layer shares one cache across worker threads."""

    def test_hammer_accounting_is_exact(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        source = tiny_source()
        cache = ArtifactCache(source, max_entries=4)
        plans = [WindowPlan(0.0, 5_000.0 + 1_000.0 * k) for k in range(3)]
        threads, rounds = 8, 60
        barrier = threading.Barrier(threads)

        def work(i):
            barrier.wait()
            got = []
            for k in range(rounds):
                got.append(cache.get(plans[(i + k) % len(plans)]))
            return got

        with ThreadPoolExecutor(threads) as pool:
            results = [f.result() for f in
                       [pool.submit(work, i) for i in range(threads)]]
        # no lost accounting: every get is either a hit or a miss
        assert cache.hits + cache.misses == threads * rounds
        assert len(cache) <= 4
        # every caller got artifacts for the generation it asked under
        for got in results:
            assert all(a.generation == source.generation for a in got)

    def test_racing_misses_converge_to_one_entry(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        source = tiny_source()
        cache = ArtifactCache(source)
        plan = WindowPlan(0.0, 10_000.0)
        barrier = threading.Barrier(8)

        def work(_):
            barrier.wait()
            return cache.get(plan)

        with ThreadPoolExecutor(8) as pool:
            got = [f.result() for f in [pool.submit(work, i) for i in range(8)]]
        # single flight: racers join the leader's materialization, so
        # every caller and every later get share one object
        assert len(cache) == 1
        survivor = cache.get(plan)
        assert all(a is survivor for a in got)
        assert cache.get(plan) is survivor

    @staticmethod
    def _race(cache, plan, n=8):
        """``n`` threads call ``cache.get(plan)`` at once, switching every
        microsecond; returns each thread's artifacts or the exception it
        raised."""
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        barrier = threading.Barrier(n, timeout=10.0)

        def work(_):
            barrier.wait()
            try:
                return cache.get(plan)
            except RuntimeError as exc:
                return exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(n) as pool:
                futures = [pool.submit(work, i) for i in range(n)]
                return [f.result(timeout=10.0) for f in futures]
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _held_materialize(monkeypatch, cache, n, fail=False):
        """Patch ``WindowArtifacts.materialize`` to wait until all ``n``
        racers have reached the cache (each counts a hit or a miss
        before it waits or materializes), then materialize or raise.
        Returns the list of calls."""
        import time

        real = WindowArtifacts.materialize.__func__
        calls = []

        def held(cls, source, plan):
            calls.append(plan)
            deadline = time.monotonic() + 5.0
            while cache.hits + cache.misses < n and time.monotonic() < deadline:
                time.sleep(0.001)
            if fail:
                raise RuntimeError("materialize failed")
            return real(cls, source, plan)

        monkeypatch.setattr(WindowArtifacts, "materialize", classmethod(held))
        return calls

    def test_racing_misses_materialize_once(self, monkeypatch):
        cache = ArtifactCache(tiny_source())
        plan = WindowPlan(0.0, 10_000.0)
        calls = self._held_materialize(monkeypatch, cache, 8)
        got = self._race(cache, plan)
        assert calls == [plan]
        assert all(a is got[0] for a in got)
        assert isinstance(got[0], WindowArtifacts)
        assert (cache.stats["hits"], cache.stats["misses"]) == (7, 1)

    def test_failed_materialize_reaches_every_joiner_and_is_retried(self, monkeypatch):
        cache = ArtifactCache(tiny_source())
        plan = WindowPlan(0.0, 10_000.0)
        calls = self._held_materialize(monkeypatch, cache, 8, fail=True)
        got = self._race(cache, plan)
        assert calls == [plan]
        assert all(isinstance(e, RuntimeError) and e is got[0] for e in got)
        assert len(cache) == 0  # the failure was not cached
        monkeypatch.undo()
        artifacts = cache.get(plan)
        assert isinstance(artifacts, WindowArtifacts) and len(artifacts.jobs) == 1
        assert cache.get(plan) is artifacts
        assert (cache.stats["hits"], cache.stats["misses"]) == (8, 2)


class TestWorkerReportMemo:
    """The process pool's per-worker report memo, driven in-process."""

    def test_report_memo_stays_bounded(self, monkeypatch):
        from repro.exec import executor

        # _worker_init rebinds both globals; monkeypatch restores them
        monkeypatch.setattr(executor, "_WORKER_CACHE", None)
        monkeypatch.setattr(executor, "_WORKER_REPORTS", None)
        executor._worker_init(tiny_source())
        memo = executor._WORKER_REPORTS
        matchers = default_matchers({"SITE-A"})
        plans = [WindowPlan(0.0, 1_000.0 * (k + 1)) for k in range(memo.max_entries + 5)]
        reports = [executor.worker_report(plan, matchers) for plan in plans]
        assert len(memo) == memo.max_entries
        assert memo.stats["evictions"] == 5
        assert executor.worker_report(plans[-1], matchers) is reports[-1]
        assert [r.window for r in reports] == [p.window for p in plans]
