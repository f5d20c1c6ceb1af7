"""Tests for error-pattern analysis, temporal imbalance, and validation."""

import numpy as np
import pytest

from repro.core.analysis.errors import (
    ErrorFamily,
    ErrorShift,
    compare_error_mixes,
    error_mix,
    family_of,
    site_error_profiles,
    top_error_codes,
)
from repro.core.analysis.temporal import (
    submission_profile,
    transfer_volume_profile,
)
from repro.panda.errors import ErrorCode
from repro.telemetry.validation import assess_quality

from tests.helpers import columns_of, make_job, make_transfer


def failed_job(code: int, site="S", pandaid=1):
    j = make_job(pandaid=pandaid, site=site, status="failed")
    j.error_code = code
    return j


class TestErrorFamilies:
    def test_families(self):
        assert family_of(int(ErrorCode.STAGEIN_FAILED)) is ErrorFamily.DATA
        assert family_of(int(ErrorCode.PAYLOAD_OVERLAY)) is ErrorFamily.COMPUTE
        assert family_of(int(ErrorCode.SITE_SERVICE_ERROR)) is ErrorFamily.SITE
        assert family_of(0) is ErrorFamily.NONE
        assert family_of(99999) is ErrorFamily.OTHER

    def test_error_mix(self):
        jobs = [
            make_job(pandaid=1),
            failed_job(int(ErrorCode.PAYLOAD_OVERLAY), pandaid=2),
            failed_job(int(ErrorCode.STAGEIN_FAILED), pandaid=3),
            failed_job(int(ErrorCode.PAYLOAD_SEGFAULT), pandaid=4),
        ]
        mix = error_mix(jobs)
        assert mix.n_failed == 3
        assert mix.failure_rate == pytest.approx(0.75)
        assert mix.family_share(ErrorFamily.COMPUTE) == pytest.approx(2 / 3)
        assert mix.dominant_family() is ErrorFamily.COMPUTE

    def test_empty_mix(self):
        mix = error_mix([])
        assert mix.failure_rate == 0.0
        assert mix.dominant_family() is ErrorFamily.NONE

    def test_site_profiles(self):
        jobs = [failed_job(int(ErrorCode.PAYLOAD_OVERLAY), site="BAD", pandaid=i)
                for i in range(12)]
        jobs += [make_job(pandaid=100 + i, site="GOOD") for i in range(12)]
        profiles = site_error_profiles(jobs, min_jobs=10)
        assert profiles[0].site == "BAD"
        assert profiles[0].failure_rate == 1.0
        assert profiles[-1].failure_rate == 0.0

    def test_shift_detection(self):
        baseline = [failed_job(int(ErrorCode.STAGEIN_FAILED), pandaid=i)
                    for i in range(10)]
        alternative = [failed_job(int(ErrorCode.PAYLOAD_OVERLAY), pandaid=i)
                       for i in range(10)]
        shift = compare_error_mixes(baseline, alternative)
        assert shift.shifted_toward_compute
        assert shift.family_delta(ErrorFamily.DATA) == pytest.approx(-1.0)
        assert "compute" in shift.summary()

    def test_top_codes(self):
        jobs = [failed_job(int(ErrorCode.PAYLOAD_OVERLAY), pandaid=i) for i in range(3)]
        jobs.append(failed_job(int(ErrorCode.STAGEIN_FAILED), pandaid=9))
        mix = error_mix(jobs)
        ranked = top_error_codes(mix, top=2)
        assert ranked[0][0] == int(ErrorCode.PAYLOAD_OVERLAY)
        assert ranked[0][1] == 3
        assert ranked[0][2] == pytest.approx(75.0)

    def test_on_study(self, small_telemetry):
        mix = error_mix(small_telemetry.jobs)
        assert 0.0 < mix.failure_rate < 0.5
        # compute errors dominate at baseline (healthy staging)
        assert mix.dominant_family() in (ErrorFamily.COMPUTE, ErrorFamily.SITE)


class TestTemporalProfiles:
    def test_volume_bucketing(self):
        ts = [
            make_transfer(row_id=1, size=100, start=10.0),
            make_transfer(row_id=2, size=200, start=3610.0, end=3700.0),
        ]
        prof = transfer_volume_profile(columns_of(transfers=ts), 0.0, 7200.0, 3600.0)
        assert list(prof.volume) == [100.0, 200.0]
        assert prof.total == 300.0

    def test_out_of_window_ignored(self):
        ts = [make_transfer(start=99999.0, end=99999.5)]
        prof = transfer_volume_profile(columns_of(transfers=ts), 0.0, 3600.0)
        assert prof.total == 0.0

    def test_imbalance_measures(self):
        ts = [make_transfer(row_id=i, size=10, start=float(i)) for i in range(10)]
        ts.append(make_transfer(row_id=99, size=10000, start=5000.0, end=5100.0))
        prof = transfer_volume_profile(columns_of(transfers=ts), 0.0, 7200.0, 3600.0)
        assert prof.peak_to_mean() > 1.0
        assert prof.temporal_gini() > 0.4
        assert prof.busiest_share(0.5) > 0.9

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            transfer_volume_profile(columns_of(), 5.0, 5.0)

    def test_submission_profile(self):
        jobs = [make_job(pandaid=i, creation=float(i * 1800)) for i in range(4)]
        prof = submission_profile(columns_of(jobs), 0.0, 7200.0, 3600.0)
        assert list(prof.volume) == [2.0, 2.0]

    def test_hour_of_day_profile_shape(self):
        ts = [make_transfer(row_id=i, size=100, start=i * 3600.0 + 10,
                            end=i * 3600.0 + 20) for i in range(48)]
        prof = transfer_volume_profile(columns_of(transfers=ts), 0.0, 48 * 3600.0, 3600.0)
        hod = prof.hour_of_day_profile()
        assert hod.shape == (24,)
        assert np.all(hod >= 0)

    def test_study_is_temporally_imbalanced(self, small_study):
        """§3.2: significant temporal imbalance."""
        t0, t1 = small_study.harness.window
        prof = transfer_volume_profile(small_study.source.columns, t0, t1)
        assert prof.temporal_gini() > 0.2
        assert prof.peak_to_trough() > 2.0


class TestQualityReport:
    def test_clean_records(self):
        jobs = [make_job(pandaid=1, nin=100)]
        files = [__import__("tests.helpers", fromlist=["make_file"]).make_file(pandaid=1)]
        transfers = [make_transfer()]
        rep = assess_quality(jobs, files, transfers)
        assert rep.clean
        assert rep.n_jobs_without_files == 0

    def test_duplicate_pandaids_flagged(self):
        jobs = [make_job(pandaid=1), make_job(pandaid=1)]
        rep = assess_quality(jobs, [], [])
        assert any("duplicate pandaids" in i for i in rep.issues)

    def test_duplicate_row_ids_flagged(self):
        ts = [make_transfer(row_id=5), make_transfer(row_id=5)]
        rep = assess_quality([], [], ts)
        assert any("row_ids" in i for i in rep.issues)

    def test_jobs_without_files_counted(self):
        rep = assess_quality([make_job(pandaid=1, nin=100)], [], [])
        assert rep.n_jobs_without_files == 1

    def test_unknown_site_percentages(self):
        ts = [make_transfer(row_id=1, dst="UNKNOWN"), make_transfer(row_id=2)]
        rep = assess_quality([], [], ts)
        assert rep.pct_unknown_destination == pytest.approx(50.0)

    def test_study_telemetry_is_consistent(self, small_telemetry):
        """Degradation injects *defects*, never *inconsistencies*."""
        rep = assess_quality(
            small_telemetry.jobs, small_telemetry.files, small_telemetry.transfers)
        assert rep.clean, rep.issues
        assert rep.pct_transfers_with_taskid < 80.0
        assert rep.pct_unknown_destination > 0.0
        assert "taskid coverage" in rep.summary()
