"""Tests for the zero-copy pack-archive layer and executor seeding.

Lifecycle is the load-bearing part: archives must attach to exactly the
data that was exported, be refcounted per pool key, disappear from disk
when the last holder releases (pool close, generation bump), and the
whole path must degrade to pickling — with bit-identical reports —
whenever spooling is impossible or disabled.  Plus the source-identity
regression: pool keys must never be built on recyclable ``id()``.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.columnar import shm
from repro.exec.executor import (
    ParallelExecutor,
    SerialExecutor,
    source_token,
)
from repro.exec.plan import WindowPlan
from repro.metastore.packsource import PackSource

from tests.helpers import make_file, make_job, make_transfer, matching_triple
from tests.oracle import RecordSource

KNOWN_SITES = {"SITE-A", "SITE-B"}


def _records():
    job, files, transfers = matching_triple(n_files=3)
    job2 = make_job(pandaid=2, jeditaskid=101, site="SITE-B", end=5000.0,
                    nin=1000)
    files = files + [make_file(pandaid=2, jeditaskid=101, lfn="g1", size=1000)]
    transfers = transfers + [
        make_transfer(row_id=9, lfn="g1", size=1000, src="SITE-B", dst="SITE-B",
                      start=4100.0, end=4200.0, jeditaskid=101)
    ]
    return [job, job2], files, transfers


def _source() -> PackSource:
    return PackSource.from_records(*_records())


PLAN = WindowPlan(0.0, 10_000.0)


# -- export / attach --------------------------------------------------------------


class TestArchiveRoundTrip:
    def test_attach_reproduces_the_window(self):
        src = _source()
        archive = shm.PackArchive.export(src)
        try:
            attached = archive.attach()
            a_jobs, a_files, a_transfers, _ = attached.materialize_window(
                0.0, 10_000.0
            )
            jobs, files, transfers, _ = src.materialize_window(0.0, 10_000.0)
            assert list(a_jobs) == list(jobs)
            assert list(a_files) == list(files)
            assert list(a_transfers) == list(transfers)
            assert attached.generation == src.generation
            assert attached.shard_seconds == src.shard_seconds
        finally:
            archive.unlink()

    def test_attached_arrays_are_readonly_memmaps(self):
        src = _source()
        archive = shm.PackArchive.export(src)
        try:
            attached = archive.attach()
            col = attached.columns.jobs.endtime
            assert isinstance(col, np.memmap)
            assert not col.flags.writeable
        finally:
            archive.unlink()

    def test_export_without_columnar_surface_raises(self):
        for source in (object(), RecordSource(*_records())):
            with pytest.raises(shm.ExportError):
                shm.PackArchive.export(source)

    def test_unlink_removes_spool_directory(self):
        archive = shm.PackArchive.export(_source())
        assert archive.exists()
        archive.unlink()
        assert not archive.exists()
        assert not archive.path.exists()


# -- refcounted registry ----------------------------------------------------------


class TestArchiveRegistry:
    def test_acquire_is_shared_and_release_unlinks_last(self):
        src = _source()
        key = ("source", ("tok", -1), src.generation, "columnar")
        a1 = shm.acquire(src, key)
        a2 = shm.acquire(src, key)
        assert a1 is a2
        assert key in shm.active_archives()
        shm.release(key)
        assert a1.exists()  # one holder left
        shm.release(key)
        assert not a1.exists()
        assert key not in shm.active_archives()

    def test_release_of_unknown_key_is_a_noop(self):
        shm.release(("source", ("tok", -2), 0))


# -- executor integration ---------------------------------------------------------


class TestExecutorSeeding:
    def test_shm_path_matches_serial_bit_for_bit(self):
        src = _source()
        serial = SerialExecutor().execute(
            src, [PLAN], known_sites=KNOWN_SITES
        )[0]
        with ParallelExecutor(workers=2) as ex:
            parallel = ex.execute(src, [PLAN], known_sites=KNOWN_SITES)[0]
            assert ex.seed_mode == "shm"
            assert len(shm.active_archives()) == 1
        for m in serial.methods:
            assert parallel[m].matched_pairs() == serial[m].matched_pairs()
        assert parallel == serial

    def test_close_releases_the_archive(self):
        src = _source()
        ex = ParallelExecutor(workers=2)
        ex.execute(src, [PLAN], known_sites=KNOWN_SITES)
        (archive,) = shm.active_archives().values()
        ex.close()
        assert not shm.active_archives()
        assert not archive.exists()

    def test_generation_bump_rotates_pool_and_archive(self):
        src = _source()
        with ParallelExecutor(workers=2) as ex:
            ex.execute(src, [PLAN], known_sites=KNOWN_SITES)
            (old,) = shm.active_archives().values()
            assert ex.pool_inits == 1
            src.ingest_batch(jobs=[make_job(pandaid=77, jeditaskid=300,
                                            end=8000.0)])
            ex.execute(src, [PLAN], known_sites=KNOWN_SITES)
            (new,) = shm.active_archives().values()
            assert ex.pool_inits == 2
            assert new is not old
            assert not old.exists()
            assert new.exists()
        assert not shm.active_archives()

    def test_pool_reuse_exports_once(self):
        src = _source()
        with ParallelExecutor(workers=2) as ex:
            ex.execute(src, [PLAN], known_sites=KNOWN_SITES)
            ex.execute(src, [PLAN], known_sites=KNOWN_SITES)
            assert ex.pool_inits == 1
            assert len(shm.active_archives()) == 1

    def test_pickle_fallback_is_identical(self):
        src = _source()
        with ParallelExecutor(workers=2, shared_memory=False) as ex:
            report = ex.execute(src, [PLAN], known_sites=KNOWN_SITES)[0]
            assert ex.seed_mode == "pickle"
            assert not shm.active_archives()
        serial = SerialExecutor().execute(
            src, [PLAN], known_sites=KNOWN_SITES
        )[0]
        assert report == serial

    def test_row_engine_defaults_to_pickle(self):
        """A source without column packs seeds workers by pickling."""
        src = RecordSource(*_records())
        with ParallelExecutor(workers=2) as ex:
            report = ex.execute(src, [PLAN], known_sites=KNOWN_SITES)[0]
            assert ex.seed_mode == "pickle"
            assert not shm.active_archives()
        assert report == SerialExecutor().execute(src, [PLAN], known_sites=KNOWN_SITES)[0]


# -- source identity --------------------------------------------------------------


class TestSourceToken:
    def test_token_is_stable_for_a_live_object(self):
        src = _source()
        assert source_token(src) == source_token(src)

    def test_tokens_are_never_reused_after_gc(self):
        # The id() regression: a new source allocated right after the
        # old one dies frequently reuses its address, which made
        # id()-based pool keys serve stale worker caches.  Tokens are
        # monotone — the dead source's token can never come back.
        src = _source()
        old_token = source_token(src)
        del src
        gc.collect()
        fresh = _source()
        assert source_token(fresh) != old_token

    def test_distinct_live_sources_get_distinct_tokens(self):
        a, b = _source(), _source()
        assert source_token(a) != source_token(b)

    def test_unweakrefable_objects_fall_back_to_id(self):
        tok = source_token((1, 2, 3))
        assert tok[0] == "id"

    def test_pool_key_uses_token_not_raw_id(self):
        src = _source()
        ex = ParallelExecutor(workers=2)
        key = ex._source_key(src)
        assert key[1] == source_token(src)
        assert key[1][0] == "tok"
        assert id(src) not in key


# -- concurrent lifecycle ----------------------------------------------------------


class TestConcurrentLifecycle:
    """The serving layer drives one executor from several threads."""

    def test_close_is_idempotent_and_thread_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        src = _source()
        ex = ParallelExecutor(workers=2)
        ex.execute(src, [PLAN], known_sites=KNOWN_SITES)
        with ThreadPoolExecutor(4) as pool:
            for f in [pool.submit(ex.close) for _ in range(8)]:
                f.result()
        assert not shm.active_archives()
        ex.close()  # and once more, after the pool is gone
        assert ex._pool is None

    def test_concurrent_executes_share_one_pool(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        src = _source()
        barrier = threading.Barrier(4)

        def run(_):
            barrier.wait()
            return ex.execute(src, [PLAN], known_sites=KNOWN_SITES)[0]

        with ParallelExecutor(workers=2) as ex:
            with ThreadPoolExecutor(4) as pool:
                reports = [f.result() for f in
                           [pool.submit(run, i) for i in range(4)]]
            assert ex.pool_inits == 1  # one init round, shared by all
            assert len(shm.active_archives()) == 1
        assert all(r == reports[0] for r in reports)
        assert not shm.active_archives()

    def test_racing_generation_bump_rotates_once(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        src = _source()
        with ParallelExecutor(workers=2) as ex:
            ex.execute(src, [PLAN], known_sites=KNOWN_SITES)
            (old,) = shm.active_archives().values()
            src.ingest_batch(jobs=[make_job(pandaid=88, jeditaskid=301,
                                            end=8000.0)])
            barrier = threading.Barrier(2)

            def bump(_):
                barrier.wait()
                return ex.execute(src, [PLAN], known_sites=KNOWN_SITES)[0]

            with ThreadPoolExecutor(2) as pool:
                r1, r2 = [f.result() for f in
                          [pool.submit(bump, i) for i in range(2)]]
            assert r1 == r2
            assert ex.pool_inits == 2  # the rotation happened exactly once
            (new,) = shm.active_archives().values()
            assert new is not old
            assert not old.exists()  # old generation's refcount hit zero
            assert new.exists()
        assert not shm.active_archives()

    def test_racing_acquires_export_once_and_refcount(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        src = _source()
        key = ("source", ("tok", -9), src.generation, "columnar")
        barrier = threading.Barrier(4)

        def grab(_):
            barrier.wait()
            return shm.acquire(src, key)

        with ThreadPoolExecutor(4) as pool:
            archives = [f.result() for f in
                        [pool.submit(grab, i) for i in range(4)]]
        first = archives[0]
        assert all(a is first for a in archives)  # one export, shared
        for _ in range(3):
            shm.release(key)
            assert first.exists()  # holders remain
        shm.release(key)
        assert not first.exists()
        assert key not in shm.active_archives()
