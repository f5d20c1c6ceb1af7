"""Tests for the multi-tenant serving layer (``repro.serve``).

The load-bearing property mirrors the streaming suite's: every served
match/analysis response must be **bit-identical** to what the direct
batch path (:class:`MatchingPipeline` / :func:`run_analyses`) computes
for the same window — through the memo, through concurrent tenants,
and across a mid-run ``ingest_batch`` generation bump (a stale cache
entry must never be served).  Around that sit unit tests for the
building blocks — token buckets, admission, stride scheduling,
single-flight memoization, the reader-writer lock — an asyncio
end-to-end pass with admission sheds and open-loop load, and the
event-loop path that answers memo hits and joins without a worker.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching.pipeline import MatchingPipeline
from repro.exec.analysis import run_analyses
from repro.exec.cache import GenerationCache
from repro.exec.plan import WindowPlan
from repro.metastore.packsource import PackSource
from repro.obs import Obs, use_obs
from repro.serve import (
    SHED_QUEUE,
    SHED_RATE,
    AdmissionController,
    AdmissionPolicy,
    AnalysisQuery,
    FairScheduler,
    LoadSpec,
    MatchQuery,
    MatchService,
    RWLock,
    ServeConfig,
    TokenBucket,
    Workload,
    bit_identical,
    run_workload,
)

from tests.helpers import make_file, make_job, make_transfer

KNOWN_SITES = {"SITE-A", "SITE-B"}
T0, T1 = 0.0, 20_000.0


def _records(n: int = 24, base: int = 0, site_cycle=("SITE-A", "SITE-B")):
    """``n`` jobs with matching files/transfers spread over [T0, T1)."""
    jobs, files, transfers = [], [], []
    for i in range(n):
        pid = base + i + 1
        task = base + 1000 + i // 3
        site = site_cycle[i % len(site_cycle)]
        start = T0 + (T1 - T0) * (i + 0.5) / n
        jobs.append(make_job(
            pandaid=pid, jeditaskid=task, site=site,
            creation=start - 400.0, start=start, end=start + 600.0, nin=2000,
        ))
        for k in range(2):
            lfn = f"j{pid}.f{k}"
            files.append(make_file(
                pandaid=pid, jeditaskid=task, lfn=lfn,
                dataset=f"ds.{task}", proddblock=f"ds.{task}", size=1000,
            ))
            transfers.append(make_transfer(
                row_id=base * 10 + i * 2 + k + 1, lfn=lfn,
                dataset=f"ds.{task}", proddblock=f"ds.{task}", size=1000,
                src=site, dst=site, start=start - 300.0 + k, end=start - 100.0 + k,
                jeditaskid=task,
            ))
    return jobs, files, transfers


def _source(n: int = 24) -> PackSource:
    return PackSource.from_records(*_records(n))


def _service(source=None, **config_kw) -> MatchService:
    return MatchService(
        source if source is not None else _source(),
        known_sites=KNOWN_SITES,
        tenants={"alpha": 2.0, "beta": 1.0},
        config=ServeConfig(max_workers=2, **config_kw),
    )


# -- token bucket -------------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=lambda: clock[0])
        assert bucket.tokens == 3.0
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock[0] += 100.0  # refill far past capacity
        assert bucket.tokens == 3.0

    def test_refills_at_rate(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=lambda: clock[0])
        for _ in range(4):
            assert bucket.try_acquire()
        clock[0] = 1.0  # 2 tokens back
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


# -- admission ----------------------------------------------------------------


class TestAdmission:
    def test_queue_depth_shed(self):
        ctl = AdmissionController()
        ctl.register("t", AdmissionPolicy(queue_depth=2))
        assert ctl.admit("t", queued=1) is None
        assert ctl.admit("t", queued=2) == SHED_QUEUE
        assert ctl.shed_counts[SHED_QUEUE] == 1

    def test_rate_shed_and_recovery(self):
        clock = [0.0]
        ctl = AdmissionController(clock=lambda: clock[0])
        ctl.register("t", AdmissionPolicy(rate=1.0, burst=2.0))
        assert ctl.admit("t", 0) is None
        assert ctl.admit("t", 0) is None
        assert ctl.admit("t", 0) == SHED_RATE
        clock[0] = 1.0
        assert ctl.admit("t", 0) is None
        assert ctl.shed_counts[SHED_RATE] == 1

    def test_no_rate_limit_when_rate_none(self):
        ctl = AdmissionController()
        ctl.register("t", AdmissionPolicy(rate=None, queue_depth=1000))
        assert all(ctl.admit("t", 0) is None for _ in range(100))


# -- fair scheduler -----------------------------------------------------------


class TestFairScheduler:
    def test_weighted_proportions_under_backlog(self):
        sched = FairScheduler()
        sched.register("heavy", 3.0)
        sched.register("light", 1.0)
        for i in range(40):
            sched.push("heavy", f"h{i}")
            sched.push("light", f"l{i}")
        served = [sched.pop()[0] for _ in range(40)]
        assert served.count("heavy") == 30
        assert served.count("light") == 10

    def test_fifo_within_tenant(self):
        sched = FairScheduler()
        sched.register("t", 1.0)
        for i in range(5):
            sched.push("t", i)
        assert [sched.pop()[1] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_idle_tenant_cannot_hoard_credit(self):
        sched = FairScheduler()
        sched.register("busy", 1.0)
        sched.register("idle", 1.0)
        for i in range(20):
            sched.push("busy", i)
        for _ in range(10):
            sched.pop()
        # idle returns: its pass is clamped to the backlogged frontier,
        # so service alternates instead of draining idle's arrivals first.
        for i in range(10):
            sched.push("idle", i)
        first_four = [sched.pop()[0] for _ in range(4)]
        assert first_four.count("idle") == 2
        assert first_four.count("busy") == 2

    def test_empty_pop_and_depth(self):
        sched = FairScheduler()
        sched.register("t", 1.0)
        assert sched.pop() is None
        assert sched.depth("t") == 0
        assert len(sched) == 0

    def test_deterministic_tie_break(self):
        sched = FairScheduler()
        sched.register("b", 1.0)
        sched.register("a", 1.0)
        sched.push("b", 1)
        sched.push("a", 1)
        assert sched.pop()[0] == "a"  # name order on equal pass

    def test_rejects_nonpositive_weight(self):
        sched = FairScheduler()
        with pytest.raises(ValueError):
            sched.register("t", 0.0)


# -- result memo --------------------------------------------------------------


class TestResultMemo:
    """The serve memo: a plain :class:`GenerationCache`."""

    def test_hit_returns_same_object(self):
        memo = GenerationCache("serve.memo")
        value, cached = memo.get_or_compute((1, "k"), lambda: object())
        assert not cached
        again, cached2 = memo.get_or_compute((1, "k"), lambda: object())
        assert cached2 and again is value

    def test_single_flight_under_threads(self):
        memo = GenerationCache("serve.memo")
        computes = []
        gate = threading.Event()

        def compute():
            computes.append(1)
            gate.wait(5.0)
            return "result"

        with ThreadPoolExecutor(8) as pool:
            futures = [
                pool.submit(memo.get_or_compute, (1, "hot"), compute)
                for _ in range(8)
            ]
            while not computes:
                pass
            gate.set()
            results = [f.result() for f in futures]
        assert len(computes) == 1
        assert all(value == "result" for value, _ in results)
        assert sum(1 for _, cached in results if not cached) == 1

    def test_generation_eviction(self):
        memo = GenerationCache("serve.memo")
        memo.get_or_compute((1, "a"), lambda: "old")
        memo.get_or_compute((1, "b"), lambda: "old")
        memo.get_or_compute((2, "a"), lambda: "new")
        assert len(memo) == 1
        assert memo.stats["evictions"] == 2

    def test_lru_bound(self):
        memo = GenerationCache("serve.memo", max_entries=2)
        for k in range(4):
            memo.get_or_compute((1, k), lambda: k)
        assert len(memo) == 2
        # oldest evicted: recompute happens
        _, cached = memo.get_or_compute((1, 0), lambda: "again")
        assert not cached

    def test_lookup_never_starts_a_flight(self):
        memo = GenerationCache("serve.memo", max_entries=2)
        assert memo.lookup((1, "a")) is None
        assert len(memo) == 0
        assert (memo.stats["hits"], memo.stats["misses"]) == (0, 0)
        value, _ = memo.get_or_compute((1, "a"), lambda: object())
        memo.get_or_compute((1, "b"), lambda: object())
        flight = memo.lookup((1, "a"))
        assert flight.done() and flight.result() is value
        assert memo.stats["hits"] == 1
        # the lookup made "a" the youngest entry, so "b" is evicted
        memo.get_or_compute((1, "c"), lambda: object())
        assert memo.lookup((1, "b")) is None
        assert memo.lookup((1, "a")) is flight

    def test_failure_not_cached(self):
        memo = GenerationCache("serve.memo")

        def boom():
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            memo.get_or_compute((1, "k"), boom)
        value, cached = memo.get_or_compute((1, "k"), lambda: "fine")
        assert value == "fine" and not cached


# -- reader-writer lock -------------------------------------------------------


class TestRWLock:
    def test_readers_are_concurrent(self):
        lock = RWLock()
        inside = threading.Barrier(3, timeout=5.0)

        def reader():
            with lock.read():
                inside.wait()  # all three readers in simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read():
                order.append("read")

        t = threading.Thread(target=reader)
        t.start()
        t.join(timeout=0.2)
        assert order == []  # blocked behind the writer
        order.append("write")
        lock.release_write()
        t.join(timeout=5.0)
        assert order == ["write", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        got_write = threading.Event()
        got_read = threading.Event()

        def writer():
            lock.acquire_write()
            got_write.set()
            lock.release_write()

        def late_reader():
            with lock.read():
                got_read.set()

        tw = threading.Thread(target=writer)
        tw.start()
        while not lock._writers_waiting:
            pass
        tr = threading.Thread(target=late_reader)
        tr.start()
        tr.join(timeout=0.2)
        assert not got_read.is_set()  # writer preference holds it out
        lock.release_read()
        tw.join(timeout=5.0)
        tr.join(timeout=5.0)
        assert got_write.is_set() and got_read.is_set()


# -- bit_identical ------------------------------------------------------------


class TestBitIdentical:
    def test_arrays_with_nan(self):
        a = np.array([1.0, np.nan])
        assert bit_identical(a, a.copy())
        assert not bit_identical(a, np.array([1.0, 2.0]))
        assert not bit_identical(a, a.astype(np.float32))

    def test_lazy_cache_fields_ignored(self):
        @dataclass
        class Holder:
            x: int
            _cache: object = field(default=None, compare=False)

        assert bit_identical(Holder(1, _cache="warm"), Holder(1))
        assert not bit_identical(Holder(1), Holder(2))

    def test_structures(self):
        assert bit_identical({"a": [1, (2.0, np.array([3]))]},
                             {"a": [1, (2.0, np.array([3]))]})
        assert not bit_identical({"a": 1}, {"b": 1})
        assert not bit_identical([1], (1,))
        assert bit_identical(float("nan"), float("nan"))


# -- synchronous service behaviour --------------------------------------------


class TestServiceSync:
    def test_match_bit_identical_to_pipeline(self):
        source = _source()
        service = _service(source)
        response = service.handle("alpha", MatchQuery(T0, T1))
        direct = MatchingPipeline(source, known_sites=KNOWN_SITES).run(T0, T1)
        assert response.ok
        assert bit_identical(response.value, direct)
        assert response.generation == source.generation

    def test_analysis_bit_identical_to_run_analyses(self):
        source = _source()
        service = _service(source)
        for spec in ("headline", "table1", "sites", "thresholds"):
            response = service.handle("alpha", AnalysisQuery(T0, T1, spec=spec))
            direct = run_analyses(
                source, WindowPlan(T0, T1), [spec], known_sites=KNOWN_SITES
            )[spec]
            assert bit_identical(response.value, direct), spec

    def test_repeat_query_is_memo_hit(self):
        service = _service()
        first = service.handle("alpha", MatchQuery(T0, T1))
        second = service.handle("beta", MatchQuery(T0, T1))
        assert not first.cached and second.cached
        assert second.value is first.value  # shared across tenants

    def test_analysis_shares_match_report(self):
        service = _service()
        service.handle("alpha", AnalysisQuery(T0, T1, spec="headline"))
        response = service.handle("beta", MatchQuery(T0, T1))
        assert response.cached  # the analysis already built this report

    def test_generation_bump_invalidates(self):
        source = _source()
        service = _service(source)
        before = service.handle("alpha", MatchQuery(T0, T1))
        jobs, files, transfers = _records(n=6, base=50_000)
        service.ingest(jobs=jobs, files=files, transfers=transfers)
        after = service.handle("alpha", MatchQuery(T0, T1))
        assert after.generation > before.generation
        assert not after.cached  # stale entry was not served
        assert after.value.n_jobs > before.value.n_jobs
        direct = MatchingPipeline(source, known_sites=KNOWN_SITES).run(T0, T1)
        assert bit_identical(after.value, direct)

    def test_pack_source_ingest_mid_run_serves_new_generation(self):
        """Serving over the array-native store: an ingest between
        queries bumps its generation, and the next answer equals a
        direct recompute over the grown store, bit for bit."""
        source = PackSource.from_records(*_records())
        service = _service(source, verify_every=1)
        before = service.handle("alpha", AnalysisQuery(T0, T1, spec="headline"))
        assert service.ingest(*_records(n=6, base=60_000)) == 6 * 5
        after = service.handle("beta", MatchQuery(T0, T1))
        assert after.generation == source.generation > before.generation
        assert not after.cached
        direct = MatchingPipeline(source, known_sites=KNOWN_SITES).run(T0, T1)
        assert bit_identical(after.value, direct)
        assert (service.verify_samples, service.verify_violations) == (2, 0)

    def test_verification_sampling_counts(self):
        service = _service(verify_every=2)
        for _ in range(4):
            service.handle("alpha", MatchQuery(T0, T1 / 2))
        assert service.verify_samples == 2
        assert service.verify_violations == 0

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            AnalysisQuery(T0, T1, spec="nope")

    def test_unknown_matcher_rejected(self):
        service = _service()
        with pytest.raises(ValueError):
            service.handle("alpha", MatchQuery(T0, T1, methods=("exact", "nope")))

    def test_matrix_analysis_serves(self):
        source = _source()
        service = _service(source)
        response = service.handle("alpha", AnalysisQuery(T0, T1, spec="matrix"))
        assert response.ok
        direct = service._direct(AnalysisQuery(T0, T1, spec="matrix"))
        assert bit_identical(response.value, direct)


# -- hypothesis: served == direct, including across generation bumps ----------


@st.composite
def windows(draw):
    # strictly positive width: the time-profile analyses reject empty
    # windows by contract
    start = draw(st.floats(min_value=T0, max_value=T1 - 10.0, allow_nan=False))
    width = draw(st.floats(min_value=10.0, max_value=T1 - start, allow_nan=False))
    return (start, start + width)


class TestServedParity:
    @settings(max_examples=15, deadline=None)
    @given(window=windows(), user_only=st.booleans())
    def test_match_parity(self, window, user_only):
        t0, t1 = window
        source = _source()
        service = _service(source)
        response = service.handle(
            "alpha", MatchQuery(t0, t1, user_jobs_only=user_only)
        )
        direct = MatchingPipeline(
            source, known_sites=KNOWN_SITES, user_jobs_only=user_only
        ).run(t0, t1)
        assert bit_identical(response.value, direct)

    @settings(max_examples=15, deadline=None)
    @given(
        window=windows(),
        spec=st.sampled_from(["headline", "table1", "table2_jobs", "sites",
                              "volume", "submissions"]),
        method=st.sampled_from(["exact", "rm1", "rm2"]),
    )
    def test_analysis_parity(self, window, spec, method):
        t0, t1 = window
        source = _source()
        service = _service(source)
        response = service.handle(
            "alpha", AnalysisQuery(t0, t1, spec=spec, method=method)
        )
        from repro.exec.analysis import AnalysisSpec

        direct = run_analyses(
            source,
            WindowPlan(t0, t1),
            [AnalysisSpec(name=spec, method=method)],
            known_sites=KNOWN_SITES,
        )[spec]
        assert bit_identical(response.value, direct), (spec, method)

    @settings(max_examples=10, deadline=None)
    @given(window=windows(), extra=st.integers(min_value=1, max_value=8))
    def test_parity_across_generation_bump(self, window, extra):
        t0, t1 = window
        source = _source()
        service = _service(source)
        before = service.handle("alpha", MatchQuery(t0, t1))
        pre_direct = MatchingPipeline(source, known_sites=KNOWN_SITES).run(t0, t1)
        assert bit_identical(before.value, pre_direct)

        jobs, files, transfers = _records(n=extra, base=90_000)
        service.ingest(jobs=jobs, files=files, transfers=transfers)

        after = service.handle("alpha", MatchQuery(t0, t1))
        post_direct = MatchingPipeline(source, known_sites=KNOWN_SITES).run(t0, t1)
        assert after.generation == source.generation
        assert bit_identical(after.value, post_direct)
        # and the pre-bump response still matches its own snapshot, not
        # the new one, whenever the bump changed this window
        if not bit_identical(pre_direct, post_direct):
            assert not bit_identical(after.value, before.value)


# -- asyncio end-to-end -------------------------------------------------------


class TestServiceAsync:
    def test_submit_roundtrip_and_parity(self):
        source = _source()
        service = _service(source)
        direct = MatchingPipeline(source, known_sites=KNOWN_SITES).run(T0, T1)

        async def main():
            async with service:
                responses = await asyncio.gather(*[
                    service.submit(
                        "alpha" if i % 2 else "beta", MatchQuery(T0, T1)
                    )
                    for i in range(12)
                ])
            return responses

        responses = asyncio.run(main())
        assert all(r.ok for r in responses)
        assert all(bit_identical(r.value, direct) for r in responses)
        assert sum(1 for r in responses if r.cached) >= 11

    def test_rate_limit_sheds_with_reason(self):
        service = MatchService(
            _source(),
            known_sites=KNOWN_SITES,
            tenants={"alpha": 1.0},
            config=ServeConfig(
                max_workers=2,
                policy=AdmissionPolicy(rate=0.001, burst=2.0, queue_depth=64),
            ),
        )

        async def main():
            async with service:
                return await asyncio.gather(*[
                    service.submit("alpha", MatchQuery(T0, T1 / 4))
                    for _ in range(8)
                ])

        responses = asyncio.run(main())
        ok = [r for r in responses if r.ok]
        shed = [r for r in responses if r.status == "shed"]
        assert len(ok) == 2  # the burst
        assert len(shed) == 6
        assert all(r.reason == SHED_RATE for r in shed)
        assert service.admission.shed_counts[SHED_RATE] == 6

    def test_queue_bound_sheds(self):
        service = MatchService(
            _source(),
            known_sites=KNOWN_SITES,
            tenants={"alpha": 1.0},
            config=ServeConfig(
                max_workers=1,
                policy=AdmissionPolicy(queue_depth=2),
            ),
        )

        async def main():
            async with service:
                # submit without yielding: queue fills before dispatch
                futures = [
                    asyncio.ensure_future(
                        service.submit("alpha", MatchQuery(T0, T1))
                    )
                    for _ in range(10)
                ]
                return await asyncio.gather(*futures)

        responses = asyncio.run(main())
        assert any(r.status == "shed" and r.reason == SHED_QUEUE for r in responses)
        assert all(r.ok or r.reason == SHED_QUEUE for r in responses)

    def test_ingest_under_load_keeps_parity(self):
        source = _source()
        service = MatchService(
            source,
            known_sites=KNOWN_SITES,
            tenants={"alpha": 2.0, "beta": 1.0},
            config=ServeConfig(max_workers=2, verify_every=3),
        )
        spec = LoadSpec.make(
            {"alpha": 2.0, "beta": 1.0}, rate=300.0, duration=0.4, seed=13
        )
        workload = Workload(spec, T0, T1)

        async def main():
            async with service:
                return await run_workload(
                    service,
                    workload.schedule(),
                    ingest_at=0.2,
                    ingest_batch=_records(n=6, base=70_000),
                )

        stats = asyncio.run(main())
        assert stats.completed > 0
        assert stats.errors == 0
        assert service.verify_samples > 0
        assert service.verify_violations == 0
        assert service.source.generation > 1  # the bump really happened


# -- the loop path: memo hits and joins answered without a worker -------------


class _Held:
    """Holds ``service._execute`` for one query until ``release`` is set,
    so the query's memo flight stays in flight."""

    def __init__(self, service: MatchService, query) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        execute = service._execute

        def held(q):
            if q == query:
                self.entered.set()
                if not self.release.wait(10.0):
                    raise TimeoutError("leader was never released")
            return execute(q)

        service._execute = held

    async def started(self) -> None:
        for _ in range(1000):
            if self.entered.is_set():
                return
            await asyncio.sleep(0.01)
        raise AssertionError("the leader never reached _execute")


def _count_computes(service: MatchService) -> list:
    """Wrap ``service._compute``; the returned list gets each query."""
    calls = []
    compute = service._compute

    def counted(query, *args):
        calls.append(query)
        return compute(query, *args)

    service._compute = counted
    return calls


class TestLoopServed:
    def test_memo_hit_is_answered_on_the_loop(self):
        source = _source()
        service = _service(source)
        query = MatchQuery(T0, T1)
        first = service.handle("alpha", query)
        computes = _count_computes(service)

        async def main():
            async with service:
                return await service.submit("beta", query)

        response = asyncio.run(main())
        assert response.ok and response.cached
        assert response.value is first.value  # the memo's own object
        assert response.queued == 0.0
        assert response.generation == source.generation
        assert computes == []

    def test_join_waits_on_the_loop_and_leaves_the_worker_free(self):
        service = _service()  # two workers
        hot, other = MatchQuery(T0, T1), MatchQuery(T0, T1 / 2)
        held = _Held(service, hot)
        computes = _count_computes(service)

        async def main():
            async with service:
                try:
                    leader = asyncio.ensure_future(service.submit("alpha", hot))
                    await held.started()
                    joiner = asyncio.ensure_future(service.submit("beta", hot))
                    # The joiner holds no worker, so a different query
                    # runs at once on the second one.
                    third = await asyncio.wait_for(service.submit("alpha", other), 5.0)
                    assert not leader.done() and not joiner.done()
                finally:
                    held.release.set()
                return await leader, await joiner, third

        lead, join, third = asyncio.run(main())
        assert not lead.cached
        assert join.cached and join.queued == 0.0 and join.value is lead.value
        for query, response in ((hot, lead), (hot, join), (other, third)):
            assert bit_identical(response.value, service._direct(query))
        assert computes == [hot, other]  # the joiner never reached a worker

    def test_cancelled_joiner_leaves_the_flight_intact(self):
        source = _source()
        service = _service(source)
        hot = MatchQuery(T0, T1)
        held = _Held(service, hot)

        async def main():
            async with service:
                try:
                    leader = asyncio.ensure_future(service.submit("alpha", hot))
                    await held.started()
                    quitter = asyncio.ensure_future(service.submit("beta", hot))
                    stayer = asyncio.ensure_future(service.submit("beta", hot))
                    await asyncio.sleep(0.01)  # both wait on the flight
                    quitter.cancel()
                    await asyncio.sleep(0.01)  # the cancellation settles
                finally:
                    held.release.set()
                done = await asyncio.gather(leader, stayer, return_exceptions=True)
                return quitter, done

        quitter, (lead, stay) = asyncio.run(main())
        assert quitter.cancelled()
        assert lead.ok and stay.ok  # neither is an exception
        assert stay.value is lead.value
        assert bit_identical(lead.value, service._direct(hot))
        flight = service.memo.lookup(hot.key(source.generation))
        assert flight is not None and flight.result() is lead.value

    def test_verification_is_sampled_at_admission_on_a_worker(self):
        service = _service(verify_every=3)
        a, b = MatchQuery(T0, T1), MatchQuery(T0, T1 / 2)
        queries = [a, b] * 5
        verified = []
        verify = service._verify

        def recording(query, value):
            verified.append((query, threading.current_thread().name))
            verify(query, value)

        service._verify = recording
        computes = _count_computes(service)

        async def main():
            async with service:
                return [await service.submit("alpha", q) for q in queries]

        responses = asyncio.run(main())
        sampled = [i for i in range(len(queries)) if (i + 1) % 3 == 0]
        assert [q for q, _ in verified] == [queries[i] for i in sampled]
        assert all(name.startswith("serve") for _, name in verified)
        # every sampled key was memoized already, yet it took a worker
        assert all(responses[i].cached for i in sampled)
        assert len(computes) == 2 + len(sampled)
        assert (service.verify_samples, service.verify_violations) == (3, 0)

    def test_ingest_between_submits_is_not_served_the_old_entry(self):
        source = _source()
        service = _service(source)
        query = MatchQuery(T0, T1)

        async def main():
            async with service:
                before = await service.submit("alpha", query)
                service.ingest(*_records(n=6, base=80_000))
                after = await service.submit("alpha", query)
                return before, after

        before, after = asyncio.run(main())
        assert after.generation == source.generation > before.generation
        assert not after.cached and after.value is not before.value
        assert bit_identical(after.value, service._direct(query))

    def test_rate_limited_hits_are_still_shed(self):
        service = MatchService(
            _source(),
            known_sites=KNOWN_SITES,
            tenants={"alpha": 1.0},
            config=ServeConfig(
                max_workers=2,
                policy=AdmissionPolicy(rate=0.001, burst=2.0, queue_depth=64),
            ),
        )
        query = MatchQuery(T0, T1 / 4)
        service.handle("alpha", query)  # memoized; handle() takes no token

        async def main():
            async with service:
                return await asyncio.gather(*[
                    service.submit("alpha", query) for _ in range(8)
                ])

        responses = asyncio.run(main())
        ok = [r for r in responses if r.ok]
        assert len(ok) == 2 and all(r.cached and r.queued == 0.0 for r in ok)
        shed = [r for r in responses if not r.ok]
        assert len(shed) == 6 and all(r.reason == SHED_RATE for r in shed)

    def test_stress_loop_and_workers_share_the_memo(self):
        """More workers than cores, a short switch interval and ingest
        from another thread: every response equals the direct answer at
        the generation it carries, and no memo count is lost."""
        source = _source()
        service = MatchService(
            source,
            known_sites=KNOWN_SITES,
            tenants={"alpha": 1.0, "beta": 1.0},
            config=ServeConfig(max_workers=4, policy=AdmissionPolicy(queue_depth=10_000)),
        )
        queries = [MatchQuery(T0, T1 * k / 4) for k in (1, 2, 3, 4)]
        expected = {source.generation: {q: service._direct(q) for q in queries}}

        def writer():  # the only writer, so each generation is stable here
            for k in range(10):
                service.ingest(*_records(n=4, base=90_000 + 1_000 * k))
                expected[source.generation] = {q: service._direct(q) for q in queries}

        async def main():
            async with service:
                thread = threading.Thread(target=writer)
                tasks = []
                for i in range(400):
                    tenant = "alpha" if i % 2 else "beta"
                    tasks.append(asyncio.ensure_future(service.submit(tenant, queries[i % 4])))
                    if i == 40:
                        thread.start()
                    if i % 10 == 0:
                        await asyncio.sleep(0.001)
                responses = await asyncio.gather(*tasks)
                thread.join(30.0)
                assert not thread.is_alive()
                return responses

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            responses = asyncio.run(main())
        finally:
            sys.setswitchinterval(interval)
        assert all(r.ok for r in responses)
        assert len({r.generation for r in responses}) > 1  # ingest landed mid-run
        for i, r in enumerate(responses):
            assert bit_identical(r.value, expected[r.generation][queries[i % 4]])
        stats = service.memo.stats
        assert stats["hits"] + stats["misses"] == len(responses)
        assert stats["hits"] == sum(r.cached for r in responses)

    def test_metrics_say_where_each_request_was_answered(self):
        service = _service(verify_every=5)
        cold, hot = MatchQuery(T0, T1 / 2), MatchQuery(T0, T1)
        held = _Held(service, hot)

        async def main():
            async with service:
                await service.submit("alpha", cold)  # miss, on a worker
                await service.submit("alpha", cold)  # hit, on the loop
                try:
                    leader = asyncio.ensure_future(service.submit("alpha", hot))
                    await held.started()  # miss, on a worker
                    joiner = asyncio.ensure_future(service.submit("beta", hot))
                    await asyncio.sleep(0.01)  # join, on the loop
                finally:
                    held.release.set()
                await asyncio.gather(leader, joiner)
                await service.submit("beta", cold)  # sampled: hit, on a worker

        bundle = Obs.collecting()
        with use_obs(bundle):
            asyncio.run(main())
        snap = bundle.metrics.snapshot()
        served = {
            c["labels"]["outcome"]: c["value"]
            for c in snap["counters"] if c["name"] == "serve.memo_served"
        }
        assert served == {"miss": 2, "hit": 2, "join": 1}
        ok = sum(
            c["value"] for c in snap["counters"]
            if c["name"] == "serve.requests" and c["labels"]["status"] == "ok"
        )
        latencies = sum(
            h["count"] for h in snap["histograms"] if h["name"] == "serve.latency"
        )
        assert ok == latencies == 5
        assert service.verify_samples == 1


# -- load generator -----------------------------------------------------------


class TestLoadgen:
    def test_schedule_is_deterministic(self):
        spec = LoadSpec.make({"a": 1.0, "b": 2.0}, rate=100.0, duration=1.0, seed=5)
        one = Workload(spec, T0, T1).schedule()
        two = Workload(spec, T0, T1).schedule()
        assert [(a.at, a.tenant, a.query) for a in one] == \
               [(a.at, a.tenant, a.query) for a in two]
        assert all(one[i].at <= one[i + 1].at for i in range(len(one) - 1))

    def test_weights_shape_the_mix(self):
        spec = LoadSpec.make({"heavy": 9.0, "light": 1.0},
                             rate=400.0, duration=2.0, seed=5)
        arrivals = Workload(spec, T0, T1).schedule()
        heavy = sum(1 for a in arrivals if a.tenant == "heavy")
        assert heavy / len(arrivals) > 0.8

    def test_long_fraction_and_ramp(self):
        spec = LoadSpec.make(
            {"a": 1.0}, ramp=((50.0, 1.0), (200.0, 1.0)),
            long_fraction=1.0, seed=5,
        )
        workload = Workload(spec, T0, T1)
        arrivals = workload.schedule()
        # every query is a full-window analysis when long_fraction=1
        assert all(
            isinstance(a.query, AnalysisQuery) and a.query.t1 == T1
            for a in arrivals
        )
        first = sum(1 for a in arrivals if a.at < 1.0)
        second = len(arrivals) - first
        assert second > first * 2  # the ramp's second segment is denser
