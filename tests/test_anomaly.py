"""Tests for the anomaly detectors."""

import numpy as np
import pytest

from repro.core.anomaly.imbalance import assess_imbalance, gini_coefficient
from repro.core.anomaly.inference import (
    infer_from_matches,
    infer_from_twins,
    infer_unknown_sites,
    inference_accuracy,
)
from repro.core.anomaly.redundant import find_redundant_transfers, total_wasted_bytes
from repro.core.anomaly.report import build_anomaly_report
from repro.core.anomaly.staging import (
    StagingSeverity,
    classify_staging,
    failure_rate_by_severity,
    find_staging_anomalies,
)
from repro.core.anomaly.underutil import assess_job, find_underutilization
from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.matching.base import JobMatch
from repro.telemetry.records import UNKNOWN_SITE

from tests.helpers import columns_of, make_job, make_transfer


class TestRedundant:
    def test_same_file_same_dest_twice(self):
        ts = [
            make_transfer(row_id=1, lfn="f", dst="A", src="A", start=100.0, end=150.0),
            make_transfer(row_id=2, lfn="f", dst="A", src="A", start=1000.0, end=1050.0),
        ]
        groups = find_redundant_transfers(ts)
        assert len(groups) == 1
        assert groups[0].n_copies == 2
        assert groups[0].wasted_bytes == 1000

    def test_different_destinations_not_redundant(self):
        ts = [
            make_transfer(row_id=1, lfn="f", dst="A"),
            make_transfer(row_id=2, lfn="f", dst="B", start=200.0, end=300.0),
        ]
        assert find_redundant_transfers(ts) == []

    def test_unknown_folds_into_known_group(self):
        """The Fig 12 situation: first copy's destination lost."""
        ts = [
            make_transfer(row_id=1, lfn="f", dst=UNKNOWN_SITE, start=100.0, end=150.0),
            make_transfer(row_id=2, lfn="f", dst="CERN-PROD", start=1000.0, end=1100.0),
        ]
        groups = find_redundant_transfers(ts)
        assert len(groups) == 1
        assert groups[0].destination == "CERN-PROD"

    def test_outside_window_not_grouped(self):
        ts = [
            make_transfer(row_id=1, lfn="f", dst="A", start=0.0, end=10.0),
            make_transfer(row_id=2, lfn="f", dst="A", start=10 * 24 * 3600.0,
                          end=10 * 24 * 3600.0 + 10),
        ]
        assert find_redundant_transfers(ts, window_seconds=3600.0) == []

    def test_uploads_ignored_by_default(self):
        ts = [
            make_transfer(row_id=1, lfn="f", dst="A", download=False, upload=True),
            make_transfer(row_id=2, lfn="f", dst="A", download=False, upload=True,
                          start=200.0, end=300.0),
        ]
        assert find_redundant_transfers(ts) == []

    def test_total_wasted(self):
        ts = [
            make_transfer(row_id=1, lfn="f", dst="A", size=500),
            make_transfer(row_id=2, lfn="f", dst="A", size=500, start=300.0, end=400.0),
        ]
        assert total_wasted_bytes(find_redundant_transfers(ts)) == 500


def jm(transfers, **kw) -> JobMatch:
    return JobMatch(job=make_job(**kw), transfers=transfers)


class TestStaging:
    def test_unremarkable_none(self):
        m = jm([make_transfer(start=0.0, end=5.0)], creation=0.0, start=1000.0, end=2000.0)
        assert classify_staging(m) is None

    def test_elevated(self):
        m = jm([make_transfer(start=0.0, end=200.0)], creation=0.0, start=1000.0, end=2000.0)
        a = classify_staging(m)
        assert a is not None and a.severity is StagingSeverity.ELEVATED

    def test_dominant(self):
        m = jm([make_transfer(start=0.0, end=900.0)], creation=0.0, start=1000.0, end=2000.0)
        assert classify_staging(m).severity is StagingSeverity.DOMINANT

    def test_spanning_trumps(self):
        m = jm([make_transfer(start=0.0, end=1500.0)], creation=0.0, start=1000.0, end=2000.0)
        a = classify_staging(m)
        assert a.severity is StagingSeverity.SPANNING
        assert a.n_spanning == 1

    def test_sorted_by_severity(self):
        spanning = jm([make_transfer(start=0.0, end=1500.0)],
                      creation=0.0, start=1000.0, end=2000.0)
        elevated = jm([make_transfer(start=0.0, end=200.0)],
                      creation=0.0, start=1000.0, end=2000.0)
        out = find_staging_anomalies([elevated, spanning])
        assert [a.severity for a in out] == [StagingSeverity.SPANNING, StagingSeverity.ELEVATED]

    def test_failure_rate_by_severity(self):
        spanning_failed = jm([make_transfer(start=0.0, end=1500.0)],
                             creation=0.0, start=1000.0, end=2000.0, status="failed")
        out = find_staging_anomalies([spanning_failed])
        rates = failure_rate_by_severity(out)
        assert rates[StagingSeverity.SPANNING] == 1.0


class TestUnderutilization:
    def test_sequential_with_headroom(self):
        m = jm([
            make_transfer(row_id=1, start=0.0, end=100.0),
            make_transfer(row_id=2, start=100.0, end=130.0),
        ])
        f = assess_job(m)
        assert f is not None and f.sequential
        assert f.parallelism_headroom_seconds == pytest.approx(30.0)

    def test_parallel_low_spread_ignored(self):
        m = jm([
            make_transfer(row_id=1, size=1000, start=0.0, end=10.0),
            make_transfer(row_id=2, size=1000, start=5.0, end=15.0),
        ])
        assert assess_job(m) is None

    def test_spread_only_flagged(self):
        m = jm([
            make_transfer(row_id=1, size=100000, start=0.0, end=10.0),
            make_transfer(row_id=2, size=10000, start=2.0, end=100.0),
        ])
        f = assess_job(m)
        assert f is not None and not f.sequential
        assert f.throughput_spread > 5

    def test_single_transfer_ignored(self):
        m = jm([make_transfer()])
        assert assess_job(m) is None

    def test_sorted_by_headroom(self):
        a = jm([make_transfer(row_id=1, start=0.0, end=100.0),
                make_transfer(row_id=2, start=100.0, end=200.0)])
        b = jm([make_transfer(row_id=3, start=0.0, end=10.0),
                make_transfer(row_id=4, start=10.0, end=20.0)])
        out = find_underutilization([b, a])
        assert out[0].parallelism_headroom_seconds >= out[1].parallelism_headroom_seconds


class TestImbalance:
    def test_gini_extremes(self):
        assert gini_coefficient(np.array([1.0, 1.0, 1.0])) == pytest.approx(0.0, abs=1e-9)
        concentrated = np.array([0.0] * 99 + [100.0])
        assert gini_coefficient(concentrated) > 0.95

    def test_gini_empty(self):
        assert gini_coefficient(np.array([])) == 0.0

    def test_assess_on_synthetic(self):
        ts = [make_transfer(row_id=1, src="A", dst="A", size=10**6)] + [
            make_transfer(row_id=2 + i, src="A", dst="B", size=10) for i in range(5)
        ]
        m = build_transfer_matrix(columns_of(transfers=ts), ["A", "B", UNKNOWN_SITE])
        stats = assess_imbalance(m)
        assert stats.top1_share > 0.9
        assert stats.mean_to_geomean > 10

    def test_empty_matrix(self):
        m = build_transfer_matrix(columns_of(), ["A", UNKNOWN_SITE])
        stats = assess_imbalance(m)
        assert stats.total_volume == 0 and stats.gini == 0.0


class TestInference:
    def test_job_based_download(self):
        m = jm([make_transfer(dst=UNKNOWN_SITE)], site="SITE-A")
        out = infer_from_matches([m])
        assert len(out) == 1
        assert out[0].inferred_site == "SITE-A"
        assert out[0].field == "destination_site"

    def test_job_based_upload(self):
        m = jm([make_transfer(src=UNKNOWN_SITE, download=False, upload=True)],
               site="SITE-A")
        out = infer_from_matches([m])
        assert out[0].field == "source_site"

    def test_twin_based(self):
        """Table 3: identical sizes pair the UNKNOWN record with its twin."""
        ts = [
            make_transfer(row_id=1, lfn="f", size=5243410528, dst=UNKNOWN_SITE,
                          start=100.0, end=130.0),
            make_transfer(row_id=2, lfn="f", size=5243410528, dst="CERN-PROD",
                          start=1000.0, end=1030.0),
        ]
        out = infer_from_twins(ts)
        assert len(out) == 1
        assert out[0].inferred_site == "CERN-PROD"
        assert out[0].method == "twin"

    def test_twin_requires_same_size(self):
        ts = [
            make_transfer(row_id=1, lfn="f", size=100, dst=UNKNOWN_SITE),
            make_transfer(row_id=2, lfn="f", size=101, dst="CERN-PROD",
                          start=300.0, end=400.0),
        ]
        assert infer_from_twins(ts) == []

    def test_job_takes_precedence(self):
        t_unknown = make_transfer(row_id=1, dst=UNKNOWN_SITE)
        twin = make_transfer(row_id=2, dst="OTHER", start=300.0, end=400.0)
        m = jm([t_unknown], site="SITE-A")
        out = infer_unknown_sites([m], [t_unknown, twin])
        by_row = {i.row_id: i for i in out}
        assert by_row[1].method == "job"
        assert by_row[1].inferred_site == "SITE-A"

    def test_accuracy_scoring(self):
        m = jm([make_transfer(row_id=7, dst=UNKNOWN_SITE)], site="SITE-A")
        out = infer_from_matches([m])
        assert inference_accuracy(out, {7: ("X", "SITE-A")}) == 1.0
        assert inference_accuracy(out, {7: ("X", "SITE-B")}) == 0.0

    def test_accuracy_empty(self):
        assert inference_accuracy([], {}) == 0.0


class TestAnomalyReportIntegration:
    @staticmethod
    def _study_matrix(study):
        return build_transfer_matrix(
            study.source.columns, study.harness.topology.site_names())

    def test_full_report_on_study(self, small_report, small_telemetry, small_study):
        report = build_anomaly_report(
            small_report["rm2"].matched_jobs(),
            small_telemetry.transfers,
            matrix=self._study_matrix(small_study),
        )
        assert report.imbalance is not None
        assert report.imbalance.total_volume > 0
        assert len(report.summary_lines()) >= 4
        assert "imbalance" in str(report)

    def test_inferences_mostly_correct_on_study(self, small_report, small_telemetry,
                                                small_study):
        report = build_anomaly_report(
            small_report["rm2"].matched_jobs(),
            small_telemetry.transfers,
            matrix=self._study_matrix(small_study),
        )
        if len(report.inferences) >= 10:
            acc = inference_accuracy(report.inferences, small_telemetry.ground_truth.true_sites)
            assert acc > 0.5
