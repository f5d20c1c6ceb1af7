"""Array-first match results: no records on the ladder, lazy match lists.

A kernel-built :class:`~repro.core.matching.base.MatchResult` answers
counts and pairs from its frame and assembles its ``JobMatch`` list
only when an element is read.  These tests pin what that must not
change: a whole ladder pass (four methods, the default analyses) builds
no job or transfer record, the assembled lists equal the oracle's,
and lazy results behave like eager ones under ``==``, pickling,
process-pool execution, serve verification and concurrent reads.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.columnar import ColumnarIndex, StringInterner
from repro.columnar.packs import FilePack, JobPack, RowCodes, TransferPack, WindowColumns
from repro.core.matching.base import JobMatch, LazyMatches, MatchResult
from repro.core.matching.rm3 import RM3Matcher
from repro.exec import (
    ParallelExecutor,
    SerialExecutor,
    WindowPlan,
    default_matchers,
)
from repro.exec.analysis import DEFAULT_ANALYSES, analyze_report
from repro.exec.artifacts import WindowArtifacts, build_report
from repro.metastore.packsource import LazyRecords, PackSource
from repro.serve.service import bit_identical
from repro.workload.scale import ScaleConfig, synthesize

from tests import oracle


@pytest.fixture(scope="module")
def dataset():
    return synthesize(ScaleConfig(n_jobs=3_600, seed=11))


def _matchers(ds):
    return default_matchers(ds.known_sites) + [RM3Matcher(ds.known_sites)]


@pytest.fixture()
def record_calls(monkeypatch):
    """Count every ``PackSource`` job/transfer record built."""
    calls = {"job_record": 0, "transfer_record": 0}
    for name in calls:
        original = getattr(PackSource, name)

        def counting(self, row, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, row)

        monkeypatch.setattr(PackSource, name, counting)
    return calls


def _in_threads(fn, n):
    """Run ``fn(k)`` on ``n`` threads; return the results in order."""
    got = [None] * n

    def run(k):
        got[k] = fn(k)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    return got


def _lazy_report(ds):
    artifacts = WindowArtifacts.materialize(ds.source, WindowPlan(*ds.window))
    return artifacts, build_report(artifacts, _matchers(ds))


class TestRecordFreeLadder:
    def test_ladder_pass_builds_no_records(self, dataset, record_calls):
        ds = dataset
        artifacts, report = _lazy_report(ds)
        analyze_report(report, artifacts, DEFAULT_ANALYSES)
        for m, expected in ds.expected_matches.items():
            assert report[m].n_matched_jobs == expected
        for res in report.results.values():
            res.matched_pairs()
            res.n_matched_transfers
        assert record_calls == {"job_record": 0, "transfer_record": 0}

        want = oracle.build_report(ds.source, WindowPlan(*ds.window), _matchers(ds))
        for m in want.methods:
            assert report[m].matches == want[m].matches
            assert want[m].matches == report[m].matches
            assert report[m].matched_pairs() == want[m].matched_pairs()
        assert record_calls["job_record"] > 0

    def test_counts_from_the_frame_equal_the_assembled_lists(self, dataset):
        _, report = _lazy_report(dataset)
        for res in report.results.values():
            eager = MatchResult(
                method=res.method,
                matches=list(res.matches),
                n_jobs_considered=res.n_jobs_considered,
                n_transfers_considered=res.n_transfers_considered,
            )
            pairs = res.matched_pairs()
            assert pairs == eager.matched_pairs()
            assert all(type(p) is int for pair in pairs for p in pair)
            assert res.n_matched_jobs == eager.n_matched_jobs
            assert res.matched_transfer_ids() == eager.matched_transfer_ids()
            assert res.n_matched_transfers == eager.n_matched_transfers


class TestLazyResultContracts:
    def test_len_and_truth_do_not_assemble(self, dataset, record_calls):
        _, report = _lazy_report(dataset)
        res = report["rm2"]
        assert isinstance(res.matches, LazyMatches)
        assert len(res.matches) == res.n_matched_jobs > 0
        assert res.matches
        assert record_calls == {"job_record": 0, "transfer_record": 0}
        res.matches[0]
        assert record_calls["job_record"] == len(res.matches)

    def test_pickle_ships_the_list_not_the_window(self, dataset):
        _, report = _lazy_report(dataset)
        # A lazily gathered frame that still pointed into the window
        # would ship whole packs; so would a code table or the index.
        window = (
            LazyRecords, PackSource, WindowColumns, JobPack, FilePack,
            TransferPack, RowCodes, ColumnarIndex,
        )

        class NoWindowPickler(pickle.Pickler):
            def persistent_id(self, obj):
                assert not isinstance(obj, window), type(obj)
                return None

        buf = io.BytesIO()
        NoWindowPickler(buf).dump(report)
        back = pickle.loads(buf.getvalue())
        assert back == report and report == back
        for m in report.methods:
            assert type(back[m].matches) is list
            frame = back[m]._frame
            assert frame is not None  # the frame ships instead
            assert frame._src is None
            # Every column answers from the shipped arrays alone.
            for f in dataclasses.fields(frame):
                if f.init:
                    assert isinstance(frame.__dict__[f.name], (np.ndarray, StringInterner)) \
                        or f.name == "transfer_rows", f.name
            assert frame == report[m].frame()
            assert back[m].matched_pairs() == report[m].matched_pairs()
            assert back[m].n_matched_transfers == report[m].n_matched_transfers
            assert frame.local_remote_split() == report[m].frame().local_remote_split()

    def test_window_columns_pickle_without_code_table(self, dataset):
        columns = WindowArtifacts.materialize(
            dataset.source, WindowPlan(*dataset.window)).columns
        table = columns.row_codes()
        back = pickle.loads(pickle.dumps(columns))
        assert "_row_codes" not in back.__dict__
        again = back.row_codes()
        for name in ("ids", "rows", "codes"):
            assert np.array_equal(getattr(again, name), getattr(table, name))

    def test_serial_equals_parallel(self, dataset):
        ds = dataset
        t0, t1 = ds.window
        mid = (t0 + t1) / 2
        plans = [WindowPlan(t0, mid), WindowPlan(mid, t1)]
        serial = SerialExecutor().execute(ds.source, plans, _matchers(ds))
        with ParallelExecutor(workers=2) as ex:
            parallel = ex.execute(ds.source, plans, _matchers(ds))
        assert serial == parallel and parallel == serial
        for s, p in zip(serial, parallel):
            for m in s.methods:
                assert s[m].matched_pairs() == p[m].matched_pairs()

    def test_bit_identical_compares_match_content(self, dataset):
        ds = dataset
        _, lazy = _lazy_report(ds)
        eager = oracle.build_report(ds.source, WindowPlan(*ds.window), _matchers(ds))
        assert bit_identical(lazy, eager) and bit_identical(eager, lazy)

        m = next(m for m in lazy.methods if any(len(j.transfers) > 1 for j in lazy[m].matches))
        matches = list(eager[m].matches)
        i = next(i for i, jm in enumerate(matches) if len(jm.transfers) > 1)
        matches[i] = JobMatch(job=matches[i].job, transfers=matches[i].transfers[1:])
        dropped = MatchResult(
            method=m,
            matches=matches,
            n_jobs_considered=eager[m].n_jobs_considered,
            n_transfers_considered=eager[m].n_transfers_considered,
        )
        assert not bit_identical(lazy[m], dropped)
        assert not bit_identical(dropped, lazy[m])
        assert lazy[m] != dropped

    def test_concurrent_first_reads_assemble_once(self, dataset, record_calls):
        _, report = _lazy_report(dataset)
        res = report["exact"]
        barrier = threading.Barrier(2)

        def read(_):
            barrier.wait()
            return res.matches.tolist()

        got = _in_threads(read, 2)
        assert got[0] is got[1] is res.matches.tolist()
        assert record_calls["job_record"] == len(res.matches)

    def test_overlapping_reads_share_one_assembly(self):
        builds = []
        started = threading.Event()

        def build():
            builds.append(1)
            started.set()
            threading.Event().wait(0.05)  # hold the first build open
            return ["a", "b"]

        lazy = LazyMatches(build, 2)

        def read(k):
            if k:
                started.wait(10)
            return lazy.tolist()

        got = _in_threads(read, 2)
        assert builds == [1]
        assert got[0] is got[1]
        assert lazy == ["a", "b"] and ["a", "b"] == lazy
        assert lazy != ["a"] and lazy == LazyMatches(lambda: ["a", "b"], 2)

    def test_stress_many_readers_one_assembly(self):
        """More reader threads than cores, with a short switch interval:
        a lost check-then-act would show as a second build."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                builds = []
                lazy = LazyMatches(lambda: builds.append(1) or list(range(100)), 100)
                barrier = threading.Barrier(8)

                def read(_):
                    barrier.wait()
                    return lazy.tolist()

                got = _in_threads(read, 8)
                assert builds == [1]
                assert all(g is got[0] for g in got)
        finally:
            sys.setswitchinterval(previous)


    def test_stress_racing_first_frame_reads(self, dataset):
        """More readers than cores race a result's first ``frame()``:
        each gets a frame equal to a single reader's, and the result
        drops its candidate arrays only once a frame is published."""
        _, expected = _lazy_report(dataset)
        want = {m: expected[m].frame() for m in expected.methods}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                _, report = _lazy_report(dataset)
                for m in report.methods:
                    res = report[m]
                    barrier = threading.Barrier(8)

                    def read(k, res=res, barrier=barrier):
                        barrier.wait()
                        return res.frame() if k % 2 else res.matched_pairs()

                    got = _in_threads(read, 8)
                    for k, value in enumerate(got):
                        if k % 2:
                            assert value.matched_pairs() == want[m].matched_pairs()
                            assert np.array_equal(value.job_offsets, want[m].job_offsets)
                        else:
                            assert value == want[m].matched_pairs()
                    assert res._frame is not None and res._frame_args is None
        finally:
            sys.setswitchinterval(previous)

    def test_first_published_column_wins(self, dataset, monkeypatch):
        """A reader that finishes gathering a column after another
        reader published it returns the published array, not its own."""
        from repro.columnar import frame as frame_mod

        _, report = _lazy_report(dataset)
        frame = report["exact"].frame()
        gather = frame_mod._LAZY["t_start"]
        calls = []
        published = threading.Event()

        def held(f):
            value = gather(f)
            calls.append(1)
            if len(calls) == 1:
                published.wait(10)  # the first gatherer publishes last
            return value

        monkeypatch.setitem(frame_mod._LAZY, "t_start", held)

        def read(k):
            if k:
                while not calls:
                    threading.Event().wait(0.001)
                value = frame.t_start
                published.set()
                return value
            return frame.t_start

        got = _in_threads(read, 2)
        assert len(calls) == 2
        assert got[0] is got[1] is frame.t_start

    def test_stress_racing_lazy_columns_and_tables(self, dataset):
        """More readers than cores race one frame's first column reads,
        the window's first code table and RM3's first scoring: every
        reader gets the one published array, equal to a single
        reader's."""
        artifacts, expected = _lazy_report(dataset)
        known = dataset.known_sites
        want = {m: expected[m].frame() for m in expected.methods}
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                artifacts, report = _lazy_report(dataset)
                barrier = threading.Barrier(8)

                def read(k, report=report, artifacts=artifacts, barrier=barrier):
                    barrier.wait()
                    frame = report["exact" if k % 2 else "rm2"].frame()
                    return (
                        frame, frame.t_start, frame.transfer_bytes,
                        frame.n_matched_transfers, frame.local_remote_split(),
                        artifacts.columns.row_codes(),
                        artifacts.columnar.rm3_scores(RM3Matcher(known, threshold=k / 10)),
                    )

                got = _in_threads(read, 8)
                for k, (frame, t_start, tbytes, n, split, table, scored) in enumerate(got):
                    ref = want["exact" if k % 2 else "rm2"]
                    assert t_start is frame.t_start and tbytes is frame.transfer_bytes
                    assert np.array_equal(t_start, ref.t_start)
                    assert np.array_equal(tbytes, ref.transfer_bytes)
                    assert (n, split) == (ref.n_matched_transfers, ref.local_remote_split())
                    assert table is got[0][5] and scored is got[0][6]
        finally:
            sys.setswitchinterval(previous)


class TestLazyRecords:
    def _view(self, n=5, make=None):
        return LazyRecords(make or (lambda row: ("rec", row)), np.arange(10, 10 + n))

    def test_negative_indices(self):
        v = self._view()
        assert v[-1] is v[4]
        assert v[-5] is v[0]
        with pytest.raises(IndexError):
            v[-6]
        with pytest.raises(IndexError):
            v[-7]
        with pytest.raises(IndexError):
            v[5]
        assert v[3] == ("rec", 13)

    def test_racing_first_reads_hand_out_one_record(self):
        barrier = threading.Barrier(2)

        def make(row):
            barrier.wait()  # both threads build before either publishes
            return ["rec", row]

        v = self._view(make=make)
        got = _in_threads(lambda _: v[2], 2)
        assert got[0] is got[1] is v[2]
