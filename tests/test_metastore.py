"""Tests for the metastore (:class:`PackSource`): window semantics, the
ingest contract, the file lookup, and reads under concurrency and
pickling."""

import os
import pickle
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.metastore.packsource import PackSource
from repro.obs import Obs, use_obs

from tests.helpers import make_file, make_job, make_transfer


def _assert_packs_equal(a, b):
    for name in ("jobs", "files", "transfers"):
        pa, pb = getattr(a, name), getattr(b, name)
        for f in pa.__dataclass_fields__:
            np.testing.assert_array_equal(getattr(pa, f), getattr(pb, f))


class TestOpenSearchLike:
    """The window semantics of the paper's OpenSearch-like querying
    module (Fig 4), as the metastore serves them."""

    @pytest.fixture()
    def os_like(self) -> PackSource:
        return PackSource.from_records(
            [
                make_job(pandaid=1, end=100.0, label="user"),
                make_job(pandaid=2, end=900.0, label="managed"),
                make_job(pandaid=3, end=None, start=None, label="user"),
            ],
            [],
            [
                make_transfer(row_id=1, start=50.0, jeditaskid=9),
                make_transfer(row_id=2, start=500.0, jeditaskid=0),
            ],
        )

    def test_jobs_completed_in_window(self, os_like):
        hits = os_like.jobs_completed_in(0.0, 500.0)
        assert [j.pandaid for j in hits] == [1]

    def test_running_jobs_invisible(self, os_like):
        """§4.2: jobs still running at window end are excluded."""
        hits = os_like.jobs_completed_in(0.0, 10_000.0)
        assert all(j.pandaid != 3 for j in hits)

    def test_user_jobs_only(self, os_like):
        hits = os_like.user_jobs_completed_in(0.0, 10_000.0)
        assert [j.pandaid for j in hits] == [1]

    def test_transfers_started_in(self, os_like):
        assert len(os_like.transfers_started_in(0.0, 100.0)) == 1

    def test_from_telemetry_roundtrip(self, small_telemetry):
        tele = small_telemetry
        source = PackSource.from_records(tele.jobs, tele.files, tele.transfers)
        assert source.counts() == {
            "jobs": len(tele.jobs),
            "files": len(tele.files),
            "transfers": len(tele.transfers),
        }

    def test_files_of_job(self, small_telemetry):
        tele = small_telemetry
        source = PackSource.from_records(tele.jobs, tele.files, tele.transfers)
        some = tele.files[0]
        hits = source.files_of_job(some.pandaid)
        assert all(f.pandaid == some.pandaid for f in hits)
        assert some in hits


class TestIngestContract:
    def _source(self) -> PackSource:
        return PackSource.from_records(
            [make_job(pandaid=1)], [make_file()], [make_transfer(row_id=1)]
        )

    def test_ingest_rejects_garbage(self):
        """Anything but the collection's record type raises before any
        column, shard or generation changes."""
        source = self._source()
        columns, generation = source.columns, source.generation
        shards = dict(source._job_shards.shards)
        for batch in (
            {"jobs": [object()]},
            {"files": [make_file(pandaid=2)], "transfers": [make_job(pandaid=2)]},
            {"jobs": [make_job(pandaid=2)], "files": [make_transfer(row_id=2)]},
        ):
            with pytest.raises(TypeError):
                source.ingest_batch(**batch)
        assert source.columns is columns
        assert source.generation == generation
        assert source._job_shards.shards == shards

    def test_ingest_opens_a_span_and_counts_records(self):
        bundle = Obs.collecting()
        with use_obs(bundle):
            source = self._source()
            source.ingest_batch(jobs=[make_job(pandaid=2)], files=[make_file(pandaid=2)])
            source.ingest_batch()
        spans = [s for s in bundle.tracer.spans if s.name == "metastore.ingest_batch"]
        assert [(s.cat, s.attrs["n_jobs"], s.attrs["n_files"]) for s in spans] == [
            ("metastore", 1, 1), ("metastore", 0, 0),
        ]
        counters = {c["name"]: c["value"] for c in bundle.metrics.snapshot()["counters"]}
        assert counters["metastore.ingested_records"] == 3 + 2

    def test_window_queries_are_counted(self):
        source = self._source()
        bundle = Obs.collecting()
        with use_obs(bundle):
            source.materialize_window(0.0, 10_000.0)
        snap = bundle.metrics.snapshot()
        queries = {
            c["labels"]["collection"]: c["value"]
            for c in snap["counters"] if c["name"] == "metastore.queries"
        }
        assert queries == {"jobs": 1, "transfers": 1, "files": 1}
        hits = [h for h in snap["histograms"] if h["name"] == "metastore.hit_size"]
        assert {h["labels"]["collection"] for h in hits} == {"jobs", "files", "transfers"}


class TestFileLookup:
    def test_unsorted_duplicate_pandaids_return_each_row_once(self):
        files = [make_file(pandaid=p, lfn=f"f{i}") for i, p in enumerate([5, 3, 5, 9, 3])]
        source = PackSource.from_records([], files, [])
        ids = source.file_ids_of_jobs(np.array([5, 3, 5, 3, 7, 5], dtype=np.int64))
        assert ids.tolist() == [0, 1, 2, 4]

    def test_lookup_leaves_numpy_ma_unimported(self):
        """The plain ``np.unique`` form imports ``numpy.ma`` (NumPy 2.4),
        over a MiB of resident set the campaign never needs."""
        code = (
            "import sys, numpy as np\n"
            "from repro.metastore.packsource import PackSource\n"
            "PackSource.from_records([], [], []).file_ids_of_jobs(np.array([2, 1, 2]))\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestStoreReads:
    def test_racing_first_materialize_is_identical(self, small_telemetry):
        """Eight readers race the first window query on a fresh store:
        every one sees the answer a single reader gets."""
        tele = small_telemetry
        t0 = min(j.endtime for j in tele.jobs if j.endtime is not None)
        t1 = t0 + 86400.0
        expected = PackSource.from_records(
            tele.jobs, tele.files, tele.transfers
        ).materialize_window(t0, t1)
        source = PackSource.from_records(tele.jobs, tele.files, tele.transfers)
        barrier = threading.Barrier(8, timeout=30)

        def first_query():
            barrier.wait()
            jobs, files, transfers, packs = source.materialize_window(t0, t1)
            return list(jobs), list(files), list(transfers), packs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(first_query) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for *records, packs in results:
            assert tuple(records) == tuple(list(r) for r in expected[:3])
            _assert_packs_equal(packs, expected[3])

    def test_pickle_round_trip_after_queries(self, small_telemetry):
        tele = small_telemetry
        t0 = min(j.endtime for j in tele.jobs if j.endtime is not None)
        t1 = t0 + 86400.0
        source = PackSource.from_records(tele.jobs, tele.files, tele.transfers)
        answer = source.materialize_window(t0, t1)
        clone = pickle.loads(pickle.dumps(source))
        again = clone.materialize_window(t0, t1)
        assert [list(r) for r in again[:3]] == [list(r) for r in answer[:3]]
        _assert_packs_equal(again[3], answer[3])
        assert clone.generation == source.generation
        # the clone keeps taking appends like the original
        late = make_job(pandaid=10**9, end=t0 + 1.0)
        for s in (source, clone):
            s.ingest_batch(jobs=[late])
        assert list(clone.user_jobs_completed_in(t0, t1)) == list(
            source.user_jobs_completed_in(t0, t1)
        )
        assert late in clone.user_jobs_completed_in(t0, t1)
