"""Parity tests for the analysis dataplane.

The contract mirrors the matching one: for any window — including
degraded ones — every vectorized analysis over the
:class:`~repro.columnar.frame.MatchFrame` must return **bit-identical**
output to the per-record reference loops in ``tests/oracle.py``, for
every matching method, on results from the production kernels and from
the oracle join alike.  Floats are compared with ``==``, never with
tolerances.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.frame import MatchFrame
from repro.columnar.kernels import bucket_accumulate
from repro.core.analysis.errors import ErrorFamily, grouped_error_mixes, top_error_codes
from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.analysis.queuing import (
    correlation_size_vs_time,
    geomean_transfer_pct,
    mean_transfer_pct,
    timing_table,
    timings_for_result,
)
from repro.core.analysis.sites import build_dashboards
from repro.core.analysis.summary import (
    activity_breakdown,
    headline_stats,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.core.analysis.temporal import submission_profile, transfer_volume_profile
from repro.core.analysis.thresholds import StatusCombo, threshold_sweep_result
from repro.exec import (
    ArtifactCache,
    ParallelExecutor,
    SerialExecutor,
    WindowPlan,
    default_matchers,
    run_analyses,
)
from repro.core.matching.rm3 import RM3Matcher
from repro.exec.artifacts import build_report, match_artifacts
from repro.telemetry.records import UNKNOWN_SITE

from tests import oracle
from tests.helpers import columns_of, make_file, make_job, make_transfer
from tests.test_columnar import KNOWN, _ingest, degraded_windows

PLAN = WindowPlan(0.0, 10_000.0)


def _reports(source):
    """The production report and the oracle's, over the same window."""
    col = SerialExecutor().execute(source, [PLAN], known_sites=KNOWN)[0]
    row = oracle.build_report(source, PLAN, default_matchers(KNOWN))
    return {"columnar": col, "row": row}


def _decoded(frame, name):
    return [frame.interner.decode(c) for c in getattr(frame, name).tolist()]


def assert_frames_equal(a, b):
    """Field-by-field equality, decoding interned columns (the two
    builders may hold different interners)."""
    assert a.pandaid.tolist() == b.pandaid.tolist()
    for name in ("status", "taskstatus", "site"):
        assert _decoded(a, name) == _decoded(b, name), name
    for name in ("creation", "start", "end", "t_start", "t_end"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    for name in (
        "n_transfers",
        "n_local",
        "transfer_bytes",
        "class_code",
        "job_offsets",
        "t_row_id",
        "t_size",
        "t_local",
    ):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_boards_equal(fast, ref):
    assert list(fast) == list(ref)  # incl. insertion order
    for site in ref:
        f, r = fast[site], ref[site]
        assert (f.site, f.n_jobs, f.n_failed) == (r.site, r.n_jobs, r.n_failed)
        assert f.queue_times == r.queue_times
        assert (f.bytes_in, f.bytes_out, f.bytes_local) == (
            r.bytes_in, r.bytes_out, r.bytes_local)
        assert f.error_mix == r.error_mix
        # insertion order decides ties in dominant_family/top_error_codes
        assert list(f.error_mix.by_code) == list(r.error_mix.by_code)
        assert list(f.error_mix.by_family) == list(r.error_mix.by_family)
        assert f.dominant_error_family == r.dominant_error_family
        assert top_error_codes(f.error_mix) == top_error_codes(r.error_mix)


class TestFrameBuilders:
    @given(degraded_windows())
    @settings(max_examples=30, deadline=None)
    def test_engine_frame_matches_row_lowering(self, window):
        """from_candidates (kernel-attached) == from_matches (oracle lists)."""
        reports = _reports(_ingest(*window))
        for method in reports["columnar"].methods:
            eager = reports["columnar"][method].frame()
            lazy = reports["row"][method].frame()
            assert_frames_equal(eager, lazy)
            assert eager.matched_row_ids().tolist() == lazy.matched_row_ids().tolist()
            assert eager.n_matched_transfers == lazy.n_matched_transfers
            assert eager.local_remote_split() == lazy.local_remote_split()
            assert eager.jobs_by_class() == lazy.jobs_by_class()

    @given(degraded_windows())
    @settings(max_examples=30, deadline=None)
    def test_lazy_frame_equals_eager(self, window):
        """A kernel frame gathers its columns on first read; under
        ``==`` it equals the record lowering over the same vocabulary,
        and so does its pickled copy, which carries every column."""
        artifacts = ArtifactCache(_ingest(*window)).get(PLAN)
        for matcher in default_matchers(KNOWN) + [RM3Matcher(KNOWN)]:
            result = match_artifacts(matcher, artifacts)
            lazy = MatchFrame.from_candidates(*result._frame_args)
            shipped = pickle.loads(pickle.dumps(lazy))
            eager = MatchFrame.from_matches(
                list(result.matches), interner=artifacts.columns.interner)
            assert lazy == eager and eager == lazy
            assert shipped == eager

    def test_table2_gathers_no_column(self, small_study):
        """Table 2 reads locality flags, class codes and row codes; no
        time, size, id or status column is gathered for it."""
        artifacts = ArtifactCache(small_study.source).get(
            WindowPlan(*small_study.harness.window))
        result = match_artifacts(
            default_matchers(small_study.harness.known_site_names())[1], artifacts)
        frame = result.frame()
        frame.local_remote_split(), frame.jobs_by_class(), frame.n_matched_transfers
        gathered = {"pandaid", "status", "taskstatus", "site", "creation", "start",
                    "end", "transfer_bytes", "t_row_id", "t_start", "t_end", "t_size"}
        assert not gathered & set(frame.__dict__)
        assert len(frame) > 0 and frame.pandaid.tolist()  # and gathers on read
        assert "pandaid" in frame.__dict__

    @given(degraded_windows())
    @settings(max_examples=30, deadline=None)
    def test_row_codes_keep_first_occurrence(self, window):
        """Distinct-transfer answers from the window's code table equal
        one ``np.unique`` sort per frame, duplicate row ids at different
        pack positions included; Table 1's flags equal ``np.isin`` over
        the window's own table and over another lowering (one more row,
        whose id shifts every code)."""
        artifacts = ArtifactCache(_ingest(*window)).get(PLAN)
        report = build_report(artifacts, default_matchers(KNOWN) + [RM3Matcher(KNOWN)])
        foreign = columns_of(
            artifacts.jobs, [make_transfer(row_id=-1), *artifacts.transfers])
        for result in report.results.values():
            frame = result.frame()
            ids, n, split = oracle.frame_distinct(frame)
            assert frame.matched_row_ids().tolist() == ids.tolist()
            assert frame.n_matched_transfers == n
            assert frame.local_remote_split() == split
            for columns in (artifacts.columns, foreign):
                table = columns.row_codes()
                assert table is columns.row_codes()
                flags = frame.matched_flags(table)[table.codes[table.rows]]
                want = oracle.matched_flags(columns.transfers.row_id[table.rows], ids)
                assert np.array_equal(flags, want)

    @pytest.mark.parametrize("first_local", [True, False])
    def test_duplicate_row_id_first_entry_decides_locality(self, first_local):
        """One row id at two pack positions, one local and one remote,
        matched by two jobs: the entry enumerated first decides the
        split."""
        local = make_transfer(row_id=5, lfn="f0", src="SITE-A", dst="SITE-A")
        remote = make_transfer(row_id=5, lfn="f1", src="SITE-B", dst="SITE-A")
        lfns = ["f0", "f1"] if first_local else ["f1", "f0"]
        jobs = [make_job(pandaid=i + 1, nin=1000) for i in range(2)]
        files = [make_file(pandaid=i + 1, lfn=lfn) for i, lfn in enumerate(lfns)]
        source = _ingest(jobs, files, [local, remote])
        result = match_artifacts(
            default_matchers(KNOWN)[0], ArtifactCache(source).get(PLAN))
        frame = result.frame()
        assert frame.t_row_id.tolist() == [5, 5]
        assert frame.t_local.tolist() == [first_local, not first_local]
        want = (1, 0) if first_local else (0, 1)
        assert frame.local_remote_split() == want == oracle.local_remote_split(result)
        assert frame.local_remote_split() == oracle.frame_distinct(frame)[2]
        assert frame.matched_row_ids().tolist() == [5]
        assert frame.n_matched_transfers == 1

    def test_frame_and_timing_table_cached(self, small_report):
        result = small_report["exact"]
        assert result.frame() is result.frame()
        assert timing_table(result) is timing_table(result)

    @given(degraded_windows())
    @settings(max_examples=20, deadline=None)
    def test_frame_summaries_match_result(self, window):
        """Frame-level counts == the oracle's per-match loops."""
        for result in _reports(_ingest(*window))["columnar"].results.values():
            frame = result.frame()
            assert len(frame) == result.n_matched_jobs
            assert frame.n_matched_transfers == result.n_matched_transfers
            assert frame.local_remote_split() == oracle.local_remote_split(result)
            assert frame.jobs_by_class() == oracle.jobs_by_class(result)


class TestTimingParity:
    @given(degraded_windows())
    @settings(max_examples=30, deadline=None)
    def test_timings_bit_identical(self, window):
        for report in _reports(_ingest(*window)).values():
            for method in report.methods:
                result = report[method]
                row = oracle.timings(result)
                col = timings_for_result(result)
                assert col == row  # frozen dataclasses: exact floats

    @given(degraded_windows())
    @settings(max_examples=20, deadline=None)
    def test_aggregates_bit_identical(self, window):
        for report in _reports(_ingest(*window)).values():
            result = report["exact"]
            row = oracle.timings(result)
            table = timing_table(result)
            assert mean_transfer_pct(table) == mean_transfer_pct(row)
            assert geomean_transfer_pct(table) == geomean_transfer_pct(row)
            assert correlation_size_vs_time(table) == correlation_size_vs_time(row)

    @given(degraded_windows())
    @settings(max_examples=20, deadline=None)
    def test_top_jobs_bit_identical(self, window):
        for report in _reports(_ingest(*window)).values():
            for method in report.methods:
                result = report[method]
                row = oracle.timings(result)
                table = timing_table(result)
                for locality in ("local", "remote"):
                    assert table.top_jobs(locality, top=5) == oracle.top_jobs_breakdown(
                        row, locality, top=5
                    )


class TestThresholdParity:
    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_sweep_bit_identical(self, window):
        for report in _reports(_ingest(*window)).values():
            for method in report.methods:
                result = report[method]
                row = oracle.threshold_sweep(oracle.timings(result))
                col = threshold_sweep_result(result)
                assert col.thresholds == row.thresholds
                assert col.n_jobs == row.n_jobs
                for combo in StatusCombo:
                    assert col.cumulative[combo] == row.cumulative[combo]


class TestSummaryParity:
    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_headline_and_method_tables(self, window):
        for report in _reports(_ingest(*window)).values():
            assert headline_stats(report) == oracle.headline_stats(report)
            assert method_comparison_transfers(
                report
            ) == oracle.method_comparison_transfers(report)
            assert method_comparison_jobs(report) == oracle.method_comparison_jobs(report)

    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_activity_breakdown_with_columns(self, window):
        source = _ingest(*window)
        artifacts = ArtifactCache(source).get(PLAN)
        reports = _reports(source)
        for report in reports.values():
            result = report["exact"]
            assert activity_breakdown(
                result, artifacts.columns
            ) == oracle.activity_breakdown(result, artifacts.transfers)


class TestWindowAnalysesParity:
    """Analyses over the window's packs (no match frame involved)."""

    @staticmethod
    def _assert_dashboards_equal(window):
        artifacts = ArtifactCache(_ingest(*window)).get(PLAN)
        fast = build_dashboards(artifacts.columns)
        assert_boards_equal(fast, oracle.build_dashboards(artifacts.jobs, artifacts.transfers))
        return fast

    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_site_dashboards(self, window):
        self._assert_dashboards_equal(window)

    def test_site_error_mix_order_and_ties(self):
        """Tied counts, an unmapped code and a failed job with code 0:
        the columnar mixes keep the record path's first-failure order."""
        jobs = [
            make_job(pandaid=i + 1, site=site, status=status, error_code=code)
            for i, (site, status, code) in enumerate([
                ("SITE-A", "finished", 0),
                ("SITE-A", "failed", 1201),  # compute
                ("SITE-B", "failed", 4242),  # not in ERROR_FAMILIES
                ("SITE-A", "failed", 1099),  # data
                ("SITE-A", "failed", 1099),
                ("SITE-B", "failed", 1361),  # site
                ("SITE-A", "failed", 1201),
                ("SITE-A", "failed", 4242),
                ("SITE-B", "failed", 0),
                ("SITE-B", "failed", 1361),
            ])
        ]
        fast = self._assert_dashboards_equal((jobs, [], []))
        a, b = fast["SITE-A"].error_mix, fast["SITE-B"].error_mix
        assert (a.n_jobs, a.n_failed) == (6, 5)
        assert list(a.by_code.items()) == [(1201, 2), (1099, 2), (4242, 1)]
        assert list(a.by_family) == [
            ErrorFamily.COMPUTE, ErrorFamily.DATA, ErrorFamily.OTHER]
        assert a.dominant_family() is ErrorFamily.COMPUTE  # tie: first wins
        assert [c for c, _, _ in top_error_codes(a)] == [1201, 1099, 4242]
        assert list(b.by_code.items()) == [(4242, 1), (1361, 2), (0, 1)]
        assert list(b.by_family) == [
            ErrorFamily.OTHER, ErrorFamily.SITE, ErrorFamily.NONE]
        assert b.dominant_family() is ErrorFamily.SITE

    @given(degraded_windows())
    @settings(max_examples=25, deadline=None)
    def test_matrix_and_temporal(self, window):
        artifacts = ArtifactCache(_ingest(*window)).get(PLAN)
        names = sorted({*KNOWN, UNKNOWN_SITE})
        fast = build_transfer_matrix(artifacts.columns, names)
        ref = oracle.build_transfer_matrix(artifacts.transfers, names)
        assert np.array_equal(fast.volume, ref.volume)
        for fn, ref_fn, records in (
            (transfer_volume_profile, oracle.transfer_volume_profile, artifacts.transfers),
            (submission_profile, oracle.submission_profile, artifacts.jobs),
        ):
            fast_p = fn(artifacts.columns, PLAN.t0, PLAN.t1)
            ref_p = ref_fn(records, PLAN.t0, PLAN.t1)
            assert np.array_equal(fast_p.volume, ref_p.volume)

    def test_whole_telemetry(self, small_study, small_report):
        """The swap the Table 1 and Fig 3 benches make: the study's
        full-table packs against the record loops over its telemetry."""
        columns, tele = small_study.source.columns, small_study.telemetry
        t0, t1 = small_study.harness.window
        exact = small_report["exact"]
        assert activity_breakdown(exact, columns) == oracle.activity_breakdown(
            exact, tele.transfers)
        assert_boards_equal(
            build_dashboards(columns), oracle.build_dashboards(tele.jobs, tele.transfers))
        names = small_study.harness.topology.site_names()
        assert np.array_equal(
            build_transfer_matrix(columns, names).volume,
            oracle.build_transfer_matrix(tele.transfers, names).volume)
        assert np.array_equal(
            transfer_volume_profile(columns, t0, t1).volume,
            oracle.transfer_volume_profile(tele.transfers, t0, t1).volume)
        assert np.array_equal(
            submission_profile(columns, t0, t1).volume,
            oracle.submission_profile(tele.jobs, t0, t1).volume)


@st.composite
def bucket_cases(draw):
    """Times on bucket edges and one ulp either side of them, inside
    and around the range, with non-integer widths, negative offsets,
    NaN, infinities and quotients past 2**53."""
    width = draw(st.one_of(
        st.sampled_from([3600.0, 0.1, 1 / 3, 7.5, 1e-3]),
        st.floats(1e-3, 1e5, allow_nan=False, allow_infinity=False),
    ))
    t0 = draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
    n = draw(st.integers(1, 40))
    edges = [t0 + k * width for k in range(-2, n + 3)]
    pool = edges + [np.nextafter(e, side) for e in edges for side in (-np.inf, np.inf)]
    pool += [np.nan, np.inf, -np.inf, 1e300, -1e300, t0 + 2.0**60 * width]
    times = draw(st.lists(
        st.one_of(
            st.sampled_from(pool),
            st.floats(t0 - 2 * width, t0 + (n + 2) * width, allow_nan=False),
        ),
        max_size=60,
    ))
    weights = draw(st.lists(
        st.integers(0, 10**12), min_size=len(times), max_size=len(times)))
    return np.array(times, dtype=np.float64), np.array(weights, dtype=np.int64), t0, width, n


@st.composite
def site_windows(draw):
    """Sites only transfers name, the empty label, and windows with or
    without an interned UNKNOWN (the dashboards' synthetic code)."""
    labels = ["SITE-A", "SITE-B", ""] + ([] if draw(st.booleans()) else [UNKNOWN_SITE])
    job_site = st.sampled_from(labels)
    endpoint = st.sampled_from(labels + ["SITE-T"])
    jobs = [
        make_job(
            pandaid=i + 1,
            site=draw(job_site),
            creation=draw(st.floats(0.0, 100.0)),
            start=draw(st.one_of(st.none(), st.floats(0.0, 500.0))),
            status=draw(st.sampled_from(["finished", "failed"])),
            error_code=draw(st.sampled_from([0, 1099, 1201, -5, 2**62])),
        )
        for i in range(draw(st.integers(0, 6)))
    ]
    transfers = [
        make_transfer(row_id=i + 1, src=draw(endpoint), dst=draw(endpoint),
                      size=draw(st.integers(0, 10**12)))
        for i in range(draw(st.integers(0, 10)))
    ]
    return jobs, transfers


ERROR_ROWS = st.lists(st.tuples(
    st.integers(0, 3),
    st.booleans(),
    st.one_of(st.sampled_from([0, 1099, 1201, 1361, 4242]),
              st.integers(-(2**63), 2**63 - 1)),
), max_size=40)


class TestKernelEdgeCases:
    """The window pass's kernels against the expressions they replaced
    (``tests/oracle.py``), on the inputs most likely to split them."""

    @given(bucket_cases())
    @settings(max_examples=300, deadline=None)
    def test_bucket_accumulate_matches_floor_divide(self, case):
        times, weights, t0, width, n = case
        got = bucket_accumulate(times, weights, t0, width, n)
        assert np.array_equal(got, oracle.bucket_accumulate(times, weights, t0, width, n))

    def test_rounded_quotient_on_an_edge(self):
        """``1.0 / 0.1`` rounds up to 10.0; Python's ``1.0 // 0.1`` is 9."""
        got = bucket_accumulate(np.array([1.0]), np.array([1.0]), 0.0, 0.1, 20)
        assert got.nonzero()[0].tolist() == [int(1.0 // 0.1)] == [9]

    @given(site_windows())
    @settings(max_examples=80, deadline=None)
    def test_site_dashboards(self, window):
        jobs, transfers = window
        columns = columns_of(jobs, transfers)
        boards = build_dashboards(columns)
        assert_boards_equal(boards, oracle.build_dashboards(jobs, transfers))
        assert list(boards) == oracle.site_first_appearances(columns)

    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    @given(rows=ERROR_ROWS)
    @settings(max_examples=80, deadline=None)
    def test_error_mixes_negative_and_large_codes(self, dtype, rows):
        group = np.array([g for g, _, _ in rows], dtype=dtype)
        failed = np.array([f for _, f, _ in rows], dtype=bool)
        codes = np.array([c for _, _, c in rows], dtype=np.int64)
        got = grouped_error_mixes(group, failed, codes, 4)
        want = oracle.grouped_error_mixes(group, failed, codes, 4)
        assert got == want
        assert [list(m.by_code) for m in got] == [list(m.by_code) for m in want]
        assert [list(m.by_family) for m in got] == [list(m.by_family) for m in want]


class TestRunAnalyses:
    """The fan-out entry point: same numbers serial, parallel, oracle."""

    def _assert_batches_equal(self, a, b):
        assert list(a) == list(b)
        for key in a:
            if key == "thresholds":
                assert a[key].cumulative == b[key].cumulative
                assert a[key].n_jobs == b[key].n_jobs
            elif key in ("volume", "submissions"):
                assert np.array_equal(a[key].volume, b[key].volume)
            elif key == "sites":
                assert list(a[key]) == list(b[key])
                for site in a[key]:
                    assert a[key][site].n_jobs == b[key][site].n_jobs
                    assert a[key][site].queue_times == b[key][site].queue_times
            else:
                assert a[key] == b[key], key

    def test_serial_equals_row_frame(self, small_study):
        t0, t1 = small_study.harness.window
        plan = WindowPlan(t0, t1)
        known = small_study.harness.known_site_names()
        col = run_analyses(small_study.source, plan, known_sites=known)
        report = oracle.build_report(small_study.source, plan, default_matchers(known))
        jobs, _, transfers = oracle.window_records(small_study.source, plan)
        row = oracle.analyze(report, jobs, transfers, plan)
        self._assert_batches_equal(col, row)

    def test_parallel_equals_serial_on_one_pool(self, small_study):
        t0, t1 = small_study.harness.window
        plan = WindowPlan(t0, t1)
        known = small_study.harness.known_site_names()
        serial = run_analyses(small_study.source, plan, known_sites=known)
        with ParallelExecutor(workers=2) as ex:
            # interleave: a sweep, the analysis batch, and a bare map
            ex.execute(small_study.source, [plan], known_sites=known)
            parallel = run_analyses(
                small_study.source, plan, known_sites=known, executor=ex
            )
            assert ex.map(abs, [-2, 3]) == [2, 3]
            assert ex.pool_inits == 1
        self._assert_batches_equal(serial, parallel)

    def test_unknown_spec_rejected(self, small_study):
        t0, t1 = small_study.harness.window
        with pytest.raises(ValueError):
            run_analyses(
                small_study.source,
                WindowPlan(t0, t1),
                ["no_such_analysis"],
                known_sites=small_study.harness.known_site_names(),
            )

    def test_study_analyses_entry_point(self, small_study):
        batch = small_study.analyses(specs=("headline", "thresholds"))
        assert set(batch) == {"headline", "thresholds"}
        assert batch["headline"].n_matched_jobs > 0
