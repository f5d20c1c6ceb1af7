"""Tests for the columnar matching kernels (``repro.columnar``).

The contract under test is *bit-identical parity* with the reference
join in ``tests/oracle.py``: for any window — including degraded ones
with missing sites, zero or negative ``jeditaskid``, and duplicate LFNs
or row ids — the vectorized kernels must return exactly the oracle's
``matched_pairs()``, for every stock matcher, whether executed serially
or across processes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarIndex, StringInterner, engine, supports_columnar
from repro.columnar.packs import WindowColumns
from repro.core.analysis.summary import headline_stats
from repro.core.matching.base import BaseMatcher
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.rm1 import RM1Matcher
from repro.core.matching.rm2 import RM2Matcher
from repro.core.matching.pipeline import MatchingPipeline
from repro.core.matching.rm3 import RM3Matcher
from repro.core.matching.subset import SubsetMatcher
from repro.exec import (
    ArtifactCache,
    ParallelExecutor,
    SerialExecutor,
    WindowPlan,
    build_report,
    match_artifacts,
)
from repro.metastore.packsource import PackSource
from repro.telemetry.records import UNKNOWN_SITE

from tests import oracle
from tests.helpers import make_file, make_job, make_transfer, matching_triple


KNOWN = {"SITE-A", "SITE-B"}


def all_matchers():
    return [
        ExactMatcher(KNOWN),
        RM1Matcher(KNOWN),
        RM2Matcher(KNOWN),
        RM2Matcher(set()),
        SubsetMatcher(KNOWN),
    ]


# -- interner ---------------------------------------------------------------------


class TestStringInterner:
    def test_codes_are_dense_and_stable(self):
        it = StringInterner()
        assert it.intern("a") == 0
        assert it.intern("b") == 1
        assert it.intern("a") == 0
        assert len(it) == 2
        assert it.decode(1) == "b"

    def test_encode_interns_unseen(self):
        it = StringInterner()
        codes = it.encode(["x", "y", "x"])
        assert codes.tolist() == [0, 1, 0]
        assert it.code_of("y") == 1
        assert it.code_of("never") == -1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from("abcdef"), max_size=6),
        st.lists(st.sampled_from("abcdefgh"), max_size=30),
    )
    @example(seen=["a", "b"], batch=["c", "a", "c", "d", "b", "d"])
    def test_encode_equals_per_item_intern(self, seen, batch):
        bulk, single = StringInterner(), StringInterner()
        for value in seen:
            bulk.intern(value)
            single.intern(value)
        codes = bulk.encode(batch)
        assert codes.dtype == np.int64
        assert codes.tolist() == [single.intern(value) for value in batch]
        assert bulk.strings == single.strings

    def test_encode_empty_is_int64(self):
        it = StringInterner()
        it.intern("a")
        codes = it.encode([])
        assert codes.dtype == np.int64 and codes.shape == (0,)
        assert len(it) == 1

    def test_container_protocol(self):
        it = StringInterner()
        it.intern("s")
        assert "s" in it and "t" not in it
        assert list(it) == ["s"]


# -- packs ------------------------------------------------------------------------


class TestPacks:
    def test_none_endtime_lowers_to_nan(self):
        cols = WindowColumns.lower([make_job(end=None)], [], [])
        assert np.isnan(cols.jobs.endtime[0])

    def test_take_gathers_rows(self):
        job, files, transfers = matching_triple()
        cols = WindowColumns.lower([job], files, transfers)
        rows = np.array([2, 0], dtype=np.int64)
        cut = cols.transfers.take(rows)
        assert cut.row_id.tolist() == [transfers[2].row_id, transfers[0].row_id]

    def test_take_full_selection_is_identity(self):
        job, files, transfers = matching_triple()
        cols = WindowColumns.lower([job], files, transfers)
        all_rows = np.arange(len(transfers), dtype=np.int64)
        assert cols.transfers.take(all_rows) is cols.transfers


# -- lowering -------------------------------------------------------------------


class Weird(BaseMatcher):
    """A matcher whose site rule the kernels cannot lower."""

    name = "weird"

    def site_ok(self, transfer, job):
        return True


class TestEngineSelection:
    def test_stock_matchers_supported(self):
        for m in all_matchers():
            assert supports_columnar(m)

    def test_custom_site_ok_not_supported(self):
        assert not supports_columnar(Weird())

    def test_run_rejects_unsupported_matcher(self):
        class TimeBlind(BaseMatcher):
            name = "time-blind"

            def time_ok(self, transfer, job):
                return True

        job, files, transfers = matching_triple()
        index = ColumnarIndex([job], files, transfers)
        with pytest.raises(TypeError):
            index.run(TimeBlind(), n_transfers_considered=0)


class TestNoSilentFallback:
    """A matcher the kernels cannot lower is an error on every entry
    point, never a quiet switch to another implementation."""

    def test_match_artifacts_and_build_report_raise(self):
        job, files, transfers = matching_triple()
        artifacts = ArtifactCache(_ingest([job], files, transfers)).get(
            WindowPlan(0.0, 10_000.0)
        )
        with pytest.raises(TypeError, match="weird"):
            match_artifacts(Weird(), artifacts)
        with pytest.raises(TypeError, match="weird"):
            build_report(artifacts, [ExactMatcher(KNOWN), Weird()])

    def test_pipeline_run_raises(self):
        job, files, transfers = matching_triple()
        pipeline = MatchingPipeline(_ingest([job], files, transfers), known_sites=KNOWN)
        with pytest.raises(TypeError, match="weird"):
            pipeline.run(0.0, 10_000.0, matchers=[Weird()])


# -- parity -----------------------------------------------------------------------


def assert_engines_agree(jobs, files, transfers):
    """Kernel and oracle runs must be indistinguishable, per matcher."""
    row_index = oracle.CandidateIndex(files, transfers)
    col_index = ColumnarIndex(jobs, files, transfers)
    for matcher in all_matchers():
        row = oracle.run_matcher(matcher, jobs, row_index, n_transfers_considered=7)
        col = col_index.run(matcher, n_transfers_considered=7)
        assert col.matched_pairs() == row.matched_pairs()
        assert col.n_matched_jobs == row.n_matched_jobs
        assert col.n_matched_transfers == row.n_matched_transfers
        assert col.n_jobs_considered == row.n_jobs_considered
        assert col.n_transfers_considered == row.n_transfers_considered
        # full structure, including per-job transfer ordering
        assert [
            (m.job.pandaid, [t.row_id for t in m.transfers]) for m in col.matches
        ] == [
            (m.job.pandaid, [t.row_id for t in m.transfers]) for m in row.matches
        ]


SITES = st.sampled_from(["SITE-A", "SITE-B", "", UNKNOWN_SITE])
LFNS = st.sampled_from(["f0", "f1", "f2", "f3"])
TASKIDS = st.sampled_from([-7, 0, 100, 200])
SIZES = st.sampled_from([500, 1000])
DATASETS = st.sampled_from(["ds", "ds2"])
STATUSES = st.sampled_from(["finished", "failed"])
#: no error, three mapped families, and one code outside ERROR_FAMILIES
ERROR_CODES = st.sampled_from([0, 1099, 1201, 1361, 4242])


@st.composite
def degraded_windows(draw):
    """Small windows exercising the nasty cases: jobs with no endtime,
    zero/negative/foreign task ids, blank and UNKNOWN sites, duplicate
    LFNs and duplicate transfer row ids, failed jobs with error codes."""
    jobs, files, transfers = [], [], []
    for i in range(draw(st.integers(1, 4))):
        tid = draw(TASKIDS)
        jobs.append(make_job(
            pandaid=i + 1,
            jeditaskid=tid,
            site=draw(SITES),
            end=draw(st.one_of(st.none(), st.floats(0.0, 5000.0, allow_nan=False))),
            nin=draw(st.sampled_from([0, 1000, 1500, 2000])),
            nout=draw(st.sampled_from([0, 1000])),
            status=draw(STATUSES),
            error_code=draw(ERROR_CODES),
        ))
        for _ in range(draw(st.integers(0, 3))):
            files.append(make_file(
                pandaid=i + 1,
                jeditaskid=tid,
                lfn=draw(LFNS),
                dataset=draw(DATASETS),
                size=draw(SIZES),
            ))
    for _ in range(draw(st.integers(0, 10))):
        transfers.append(make_transfer(
            row_id=draw(st.integers(1, 8)),  # duplicates allowed
            lfn=draw(LFNS),
            dataset=draw(DATASETS),
            size=draw(SIZES),
            jeditaskid=draw(TASKIDS),
            src=draw(SITES),
            dst=draw(SITES),
            download=draw(st.booleans()),
            upload=draw(st.booleans()),
            start=draw(st.floats(0.0, 5000.0, allow_nan=False)),
        ))
    return jobs, files, transfers


class TestParity:
    def test_clean_triple(self):
        job, files, transfers = matching_triple()
        assert_engines_agree([job], files, transfers)

    def test_empty_window(self):
        assert_engines_agree([], [], [])

    def test_jobs_without_candidates(self):
        assert_engines_agree([make_job()], [], [make_transfer(jeditaskid=0)])

    def test_duplicate_job_records(self):
        """A job record ingested twice matches twice, but each
        (pandaid, row_id) pair counts once."""
        job, files, transfers = matching_triple()
        assert_engines_agree([job, job], files, transfers)
        res = ColumnarIndex([job, job], files, transfers).run(ExactMatcher(KNOWN), 3)
        assert len(res.matches) == 2
        assert res.matched_pairs() == [(1, 1), (1, 2), (1, 3)]

    @given(degraded_windows())
    @settings(max_examples=60, deadline=None)
    def test_degraded_windows(self, window):
        jobs, files, transfers = window
        assert_engines_agree(jobs, files, transfers)

    @given(degraded_windows())
    @settings(max_examples=40, deadline=None)
    def test_shared_interner_does_not_change_results(self, window):
        """Pre-warmed codes (ingest-time interning) are cosmetic."""
        jobs, files, transfers = window
        warm = StringInterner()
        for name in ("zzz", "SITE-B", UNKNOWN_SITE, "f2", ""):
            warm.intern(name)
        cold = ColumnarIndex(jobs, files, transfers)
        shared = ColumnarIndex(jobs, files, transfers, interner=warm)
        for matcher in all_matchers():
            assert (
                cold.run(matcher, n_transfers_considered=0).matched_pairs()
                == shared.run(matcher, n_transfers_considered=0).matched_pairs()
            )


def crossing_window(seed: int, sparse: bool = False, shuffled: bool = False,
                    sized: bool = False):
    """A window past the join's small-input crossover, so the sort-once
    forms run: 420 jobs, ~1k file rows and ~1.5k joinable transfers.

    Built so a wrong join shows: 12 lfns are shared by 30 tasks, and
    decoy transfers carry a file's lfn, dataset, scope and size under
    another task id (runs keyed on the lfn alone admit them); (task,
    lfn) keys repeat on both sides, every seventh job shares the
    previous job's pandaid, some file rows carry a foreign task id,
    and transfer row ids repeat.  ``sparse`` spaces pandaids and task
    ids 10**12 apart (no dense pandaid table); ``shuffled`` puts the
    file rows out of pandaid order; ``sized`` gives every file row of
    one lfn the same size and every transfer its file's size, so the
    sized and the size-relaxed joins are one.
    """
    rng = np.random.default_rng(seed)
    step = 10**12 if sparse else 1
    tasks = [7 + k * step for k in range(30)]
    sites = ["SITE-A", "SITE-B", UNKNOWN_SITE]
    jobs, files, transfers, row_ids = [], [], [], []

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def transfer(task, f, end):
        drift = 0 if sized or rng.random() < 0.8 else 500
        reuse = row_ids and rng.random() < 0.05
        row_ids.append(pick(row_ids) if reuse else len(row_ids) + 1)
        transfers.append(make_transfer(
            row_id=row_ids[-1], lfn=f.lfn,
            dataset=f.dataset if rng.random() < 0.85 else pick(["ds0", "ds1", "ds2"]),
            proddblock=f.proddblock, scope=f.scope, size=f.file_size + drift,
            jeditaskid=task, src=pick(sites), dst=pick(sites),
            download=bool(rng.random() < 0.7), upload=bool(rng.random() < 0.2),
            start=end - float(rng.uniform(-300.0, 2000.0)),
        ))

    for i in range(420):
        task = pick(tasks)
        end = float(rng.uniform(1000.0, 9000.0))
        own = []
        for _ in range(int(rng.integers(1, 5))):
            ds = pick(["ds0", "ds1", "ds2"])
            lfn = int(rng.integers(12))
            own.append(make_file(
                pandaid=3 + (i - 1 if i % 7 == 6 else i) * step,
                jeditaskid=task if rng.random() < 0.9 else pick(tasks),
                lfn=f"lfn{lfn}", dataset=ds, proddblock=ds,
                size=1000 * (1 + lfn % 3) if sized else pick([1000, 2000, 3000]),
            ))
        for f in own:
            for _ in range(int(rng.integers(0, 3))):
                transfer(f.jeditaskid, f, end)
            if rng.random() < 0.4:
                transfer(pick(tasks), f, end)  # same lfn, other task
            if rng.random() < 0.1:
                transfer(pick([0, -3]), f, end)  # never joinable
        total = sum(f.file_size for f in own)
        jobs.append(make_job(
            pandaid=own[0].pandaid, jeditaskid=task, site=pick(sites), end=end,
            nin=total if rng.random() < 0.6 else total + 1000,
        ))
        files.extend(own)
    order = rng.permutation(len(transfers))
    transfers = [transfers[k] for k in order]
    if shuffled:
        files = [files[k] for k in rng.permutation(len(files))]
    return jobs, files, transfers


def warm_interner(n: int = 10_000) -> StringInterner:
    """An interner already holding ``n`` strings no window uses, as a
    long-lived store's does: lfn codes then span far past the rows."""
    it = StringInterner()
    for i in range(n):
        it.intern(f"unrelated-{i}")
    return it


def oracle_candidates(jobs, files, transfers):
    """The oracle's sized and size-relaxed candidates as ``(job row,
    transfer position)`` pairs in enumeration order, and each relaxed
    candidate's relative size mismatch."""
    index = oracle.CandidateIndex(files, transfers)
    pos = {id(t): p for p, t in enumerate(transfers)}
    sized, relaxed, rel = [], [], []
    for j, job in enumerate(jobs):
        sized += [(j, pos[id(t)]) for t in index.candidates_for_job(job)]
        for t, mismatch in index.scored_candidates_for_job(job):
            relaxed.append((j, pos[id(t)]))
            rel.append(mismatch)
    return sized, relaxed, rel


class TestJoinStrategies:
    """Past the crossover the join sorts packed keys once, searches the
    distinct keys and reads pandaid groups from a start table when the
    file rows are ascending and dense (otherwise, and for keys too wide
    to pack, it sorts stably); every form must build the oracle's
    candidate arrays and matches."""

    @pytest.mark.parametrize("sparse,shuffled,sized,warm", [
        (False, False, False, False),  # dense pandaid table, rows grouped
        (False, True, True, False),    # dense but out of order: sort + search
        (True, False, False, False),   # sparse pandaids: sort + search
        (True, True, True, True),      # keys too wide to pack: stable sort
        (False, False, True, True),    # a warm interner alone still packs
    ])
    def test_crossing_windows_match_the_oracle(self, sparse, shuffled, sized, warm):
        jobs, files, transfers = crossing_window(11, sparse, shuffled, sized)
        interner = warm_interner() if warm else None
        index = ColumnarIndex(jobs, files, transfers, interner=interner)
        n_keys = sum(t.jeditaskid > 0 for t in transfers)
        assert n_keys + len(files) >= engine._SEARCH_ROWS
        assert len(files) + len(jobs) >= engine._SEARCH_ROWS
        key_span = (29 * 10**12 + 1 if sparse else 30) * (len(index.columns.interner) + 1)
        assert (key_span > 1 << (63 - n_keys.bit_length())) == (sparse and warm)

        sized_pairs, relaxed_pairs, rel = oracle_candidates(jobs, files, transfers)
        assert list(zip(index.cand_job.tolist(), index.cand_tpos.tolist())) == sized_pairs
        r_job, r_tpos, r_fi = index.relaxed_join()
        assert list(zip(r_job.tolist(), r_tpos.tolist())) == relaxed_pairs
        tp, fp = index.columns.transfers, index.columns.files
        got_rel = np.abs(tp.size[r_tpos] - fp.size[r_fi]) / np.maximum(fp.size[r_fi], 1)
        assert got_rel.tolist() == rel
        assert (index._relaxed_args is None) == sized
        assert (relaxed_pairs == sized_pairs) == sized

        row_index = oracle.CandidateIndex(files, transfers)
        for matcher in all_matchers() + [RM3Matcher(KNOWN)]:
            row = oracle.run_matcher(matcher, jobs, row_index, n_transfers_considered=0)
            col = index.run(matcher, n_transfers_considered=0)
            assert col.matched_pairs() == row.matched_pairs()
            assert col.matches == row.matches
            rows = index.job_matches(matcher)
            assert [m for _, m in rows] == row.matches
            assert [j for j, _ in rows] == [jobs.index(m.job) for m in row.matches]


def _ingest(jobs, files, transfers) -> PackSource:
    return PackSource.from_records(jobs, files, transfers)


class TestMaterializeWindowFastPath:
    def test_matches_individual_queries(self):
        job, files, transfers = matching_triple()
        source = _ingest([job], files, transfers)
        t0, t1 = 0.0, 10_000.0
        jobs_f, files_f, transfers_f, cols = source.materialize_window(t0, t1)
        assert list(jobs_f) == list(source.user_jobs_completed_in(t0, t1))
        assert list(transfers_f) == list(source.transfers_started_in(t0, t1))
        assert list(files_f) == list(source.files_of_jobs([j.pandaid for j in jobs_f]))
        assert cols.transfers.row_id.tolist() == [t.row_id for t in transfers_f]

    def test_partial_window_gathers_subset(self):
        job, files, transfers = matching_triple()
        source = _ingest([job], files, transfers)
        _, _, transfers_f, cols = source.materialize_window(0.0, 101.5)
        assert len(transfers_f) == 2
        assert cols.transfers.row_id.tolist() == [t.row_id for t in transfers_f]

    def test_packs_rebuilt_after_ingest(self):
        job, files, transfers = matching_triple()
        source = _ingest([job], files, transfers)
        first = source.column_packs()
        assert source.column_packs() is first
        source.ingest_batch(transfers=[make_transfer(row_id=99, start=50.0)])
        second = source.column_packs()
        assert second is not first
        assert len(second.transfers) == len(first.transfers) + 1

    @given(degraded_windows())
    @settings(max_examples=40, deadline=None)
    def test_fast_path_parity_with_per_window_lowering(self, window):
        jobs, files, transfers = window
        source = _ingest(jobs, files, transfers)
        plan = WindowPlan(0.0, 10_000.0)
        serial = SerialExecutor().execute(source, [plan], known_sites=KNOWN)[0]
        row = oracle.build_report(source, plan, all_matchers()[:3])
        for m in row.methods:
            assert serial[m].matched_pairs() == row[m].matched_pairs()
        assert serial.n_transfers_with_taskid == row.n_transfers_with_taskid


class TestExecutorParity:
    """Both executors and the oracle, one seeded degraded source."""

    @given(degraded_windows())
    @settings(max_examples=5, deadline=None)
    def test_parallel_matches_serial_both_engines(self, window):
        jobs, files, transfers = window
        source = _ingest(jobs, files, transfers)
        plans = [WindowPlan(0.0, 2500.0), WindowPlan(0.0, 10_000.0)]
        matchers = all_matchers()[:3]
        with ParallelExecutor(workers=2) as ex:
            runs = [
                SerialExecutor().execute(source, plans, known_sites=KNOWN),
                ex.execute(source, plans, known_sites=KNOWN),
                [oracle.build_report(source, plan, matchers) for plan in plans],
            ]
        pairs = [
            [{m: rep[m].matched_pairs() for m in rep.methods} for rep in reports]
            for reports in runs
        ]
        assert pairs[0] == pairs[1] == pairs[2]


class TestJoinRule:
    """Only a positive ``jeditaskid`` joins — the rule every
    ``n_transfers_with_taskid`` denominator already counts by."""

    def test_headline_never_exceeds_the_taskid_denominator(self):
        job = make_job(jeditaskid=-7, nin=2000)
        files = [make_file(jeditaskid=-7, lfn=f"f{i}") for i in range(2)]
        transfers = [
            make_transfer(row_id=i + 1, lfn=f"f{i}", jeditaskid=-7) for i in range(2)
        ] + [make_transfer(row_id=3, lfn="f9", jeditaskid=55)]
        source = _ingest([job], files, transfers)
        report = MatchingPipeline(source, known_sites=KNOWN).run(0.0, 10_000.0)
        stats = headline_stats(report)
        assert stats.n_transfers_with_taskid == 1
        assert stats.transfer_match_pct <= 100.0
        for m in report.methods:
            assert report[m].matched_pairs() == []
