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

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.analysis.errors import ErrorFamily, top_error_codes
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
from repro.telemetry.records import UNKNOWN_SITE

from tests import oracle
from tests.helpers import make_job
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
                result, artifacts.transfers, columns=artifacts.columns
            ) == activity_breakdown(result, artifacts.transfers)


class TestWindowAnalysesParity:
    """Analyses over the window's packs (no match frame involved)."""

    @staticmethod
    def _assert_dashboards_equal(window):
        artifacts = ArtifactCache(_ingest(*window)).get(PLAN)
        fast = build_dashboards(artifacts.jobs, artifacts.transfers, columns=artifacts.columns)
        ref = build_dashboards(artifacts.jobs, artifacts.transfers)
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
        fast = build_transfer_matrix(artifacts.transfers, names, columns=artifacts.columns)
        ref = build_transfer_matrix(artifacts.transfers, names)
        assert np.array_equal(fast.volume, ref.volume)
        for fn, records in (
            (transfer_volume_profile, artifacts.transfers),
            (submission_profile, artifacts.jobs),
        ):
            fast_p = fn(records, PLAN.t0, PLAN.t1, columns=artifacts.columns)
            ref_p = fn(records, PLAN.t0, PLAN.t1)
            assert np.array_equal(fast_p.volume, ref_p.volume)


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
