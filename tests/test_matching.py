"""Tests for Algorithm 1 (exact), RM1, RM2, and the candidate join.

Hand-built records make every filter's behaviour explicit; the
integration-level behaviour over a full campaign is covered in
test_matching_pipeline.py.
"""

import pytest

from repro.columnar import ColumnarIndex
from repro.core.matching.base import BaseMatcher, TransferClass
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.rm1 import RM1Matcher
from repro.core.matching.rm2 import RM2Matcher
from repro.telemetry.records import UNKNOWN_SITE

from tests.helpers import make_file, make_job, make_transfer, matching_triple


def run_one(matcher: BaseMatcher, job, files, transfers):
    index = ColumnarIndex([job], files, transfers)
    return index.run(matcher, n_transfers_considered=len(transfers))


def candidates(job, files, transfers):
    """T'_j: the join's candidate transfers for one job."""
    index = ColumnarIndex([job], files, transfers)
    return [transfers[i] for i in index.cand_tpos.tolist()]


class TestCandidateJoin:
    def test_full_attribute_join(self):
        job, files, transfers = matching_triple()
        assert len(candidates(job, files, transfers)) == 3

    def test_files_require_both_ids(self):
        job, files, transfers = matching_triple()
        files[0].jeditaskid = 999  # wrong task
        lfns = {t.lfn for t in candidates(job, files, transfers)}
        assert "f0" not in lfns

    @pytest.mark.parametrize("field,value", [
        ("dataset", "other"),
        ("proddblock", "other"),
        ("scope", "other"),
        ("file_size", 999),
    ])
    def test_attribute_mismatch_excluded(self, field, value):
        job, files, transfers = matching_triple(n_files=1)
        setattr(transfers[0], field, value)
        assert candidates(job, files, transfers) == []

    def test_taskless_transfers_unreachable(self):
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].jeditaskid = 0
        assert candidates(job, files, transfers) == []

    def test_wrong_task_transfers_unreachable(self):
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].jeditaskid = 12345
        assert candidates(job, files, transfers) == []

    def test_candidates_deduplicated(self):
        job, files, transfers = matching_triple(n_files=1)
        files.append(make_file(lfn="f0", size=1000))  # duplicate file row
        assert len(candidates(job, files, transfers)) == 1


class TestExactMatcher:
    def test_perfect_match(self):
        job, files, transfers = matching_triple()
        res = run_one(ExactMatcher(), job, files, transfers)
        assert res.n_matched_jobs == 1
        assert res.n_matched_transfers == 3
        assert res.matches[0].transfer_class is TransferClass.ALL_LOCAL

    def test_time_condition(self):
        """Condition (1): transfer must start before job end."""
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].starttime = job.endtime + 1
        transfers[0].endtime = job.endtime + 2
        res = run_one(ExactMatcher(), job, files, transfers)
        assert res.n_matched_jobs == 0

    def test_size_condition_input(self):
        """Condition (2): whole-set sum must equal ninputfilebytes."""
        job, files, transfers = matching_triple(n_files=2)
        job.ninputfilebytes = 1500  # != 2000
        job.noutputfilebytes = 0
        res = run_one(ExactMatcher(), job, files, transfers)
        assert res.n_matched_jobs == 0

    def test_size_condition_output_accepted(self):
        job, files, transfers = matching_triple(n_files=2)
        job.ninputfilebytes = 777
        job.noutputfilebytes = 2000  # matches the sum instead
        res = run_one(ExactMatcher(), job, files, transfers)
        assert res.n_matched_jobs == 1

    def test_site_condition_download(self):
        """Condition (3): download destination = computing site."""
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].destination_site = "ELSEWHERE"
        res = run_one(ExactMatcher(), job, files, transfers)
        assert res.n_matched_jobs == 0

    def test_site_condition_upload(self):
        job = make_job(nin=0, nout=1000)
        files = [make_file(lfn="out", size=1000, ftype="output")]
        ok = make_transfer(lfn="out", size=1000, download=False, upload=True,
                           src="SITE-A", dst="SITE-B")
        res = run_one(ExactMatcher(), job, files, [ok])
        assert res.n_matched_jobs == 1
        bad = make_transfer(lfn="out", size=1000, download=False, upload=True,
                            src="OTHER", dst="SITE-B")
        res = run_one(ExactMatcher(), job, files, [bad])
        assert res.n_matched_jobs == 0

    def test_pollution_breaks_whole_set_size(self):
        """A duplicated transfer set doubles S_j and kills the exact
        match — why the Fig 12 job is only RM2-matched."""
        job, files, transfers = matching_triple(n_files=2)
        dupes = [
            make_transfer(row_id=100 + i, lfn=f"f{i}", size=1000,
                          start=10.0 + i, end=20.0 + i)
            for i in range(2)
        ]
        res = run_one(ExactMatcher(), job, files, transfers + dupes)
        assert res.n_matched_jobs == 0
        res_rm1 = run_one(RM1Matcher(), job, files, transfers + dupes)
        assert res_rm1.n_matched_jobs == 1
        assert res_rm1.matches[0].n_transfers == 4

    def test_unstarted_job_unmatched(self):
        job, files, transfers = matching_triple()
        job.endtime = None
        res = run_one(ExactMatcher(), job, files, transfers)
        assert res.n_matched_jobs == 0

    def test_remote_transfer_classification(self):
        job, files, transfers = matching_triple(n_files=2)
        transfers[0].source_site = "FAR-AWAY"
        res = run_one(ExactMatcher(), job, files, transfers)
        assert res.matches[0].transfer_class is TransferClass.MIXED
        local, remote = res.frame().local_remote_split()
        assert (local, remote) == (1, 1)


class TestRM1Matcher:
    def test_recovers_partial_set(self):
        """RM1 catches the subset case: one transfer lost its task id."""
        job, files, transfers = matching_triple(n_files=3)
        transfers[0].jeditaskid = 0
        assert run_one(ExactMatcher(), job, files, transfers).n_matched_jobs == 0
        res = run_one(RM1Matcher(), job, files, transfers)
        assert res.n_matched_jobs == 1
        assert res.matches[0].n_transfers == 2

    def test_still_enforces_time_and_site(self):
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].destination_site = "ELSEWHERE"
        assert run_one(RM1Matcher(), job, files, transfers).n_matched_jobs == 0

    def test_superset_of_exact(self):
        job, files, transfers = matching_triple()
        exact = run_one(ExactMatcher(), job, files, transfers)
        rm1 = run_one(RM1Matcher(), job, files, transfers)
        assert exact.matched_transfer_ids() <= rm1.matched_transfer_ids()


class TestRM2Matcher:
    def test_accepts_unknown_destination(self):
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].destination_site = UNKNOWN_SITE
        assert run_one(RM1Matcher(), job, files, transfers).n_matched_jobs == 0
        res = run_one(RM2Matcher(), job, files, transfers)
        assert res.n_matched_jobs == 1

    def test_accepts_invalid_site_name(self):
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].destination_site = "S1TE-TYP0"
        matcher = RM2Matcher(known_sites={"SITE-A", "SITE-B"})
        assert run_one(matcher, job, files, transfers).n_matched_jobs == 1

    def test_rejects_contradicting_site(self):
        """A valid-but-different site is a contradiction, not missing
        information — RM2 must still reject it."""
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].destination_site = "SITE-B"
        matcher = RM2Matcher(known_sites={"SITE-A", "SITE-B"})
        assert run_one(matcher, job, files, transfers).n_matched_jobs == 0

    def test_unknown_upload_source(self):
        job = make_job(nin=0, nout=1000)
        files = [make_file(lfn="out", size=1000, ftype="output")]
        t = make_transfer(lfn="out", size=1000, download=False, upload=True,
                          src=UNKNOWN_SITE, dst="SITE-B")
        assert run_one(RM2Matcher(), job, files, [t]).n_matched_jobs == 1

    def test_unknown_counted_remote(self):
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].destination_site = UNKNOWN_SITE
        res = run_one(RM2Matcher(), job, files, transfers)
        local, remote = res.frame().local_remote_split()
        assert (local, remote) == (0, 1)
        assert res.matches[0].transfer_class is TransferClass.ALL_REMOTE


class TestMonotonicity:
    def test_methods_nest_on_handmade_mix(self):
        """exact ⊆ RM1 ⊆ RM2 on a deliberately messy population."""
        job, files, transfers = matching_triple(n_files=3)
        transfers[0].jeditaskid = 0                      # RM1 territory
        transfers[1].destination_site = UNKNOWN_SITE     # RM2 territory
        ids = {}
        for matcher in (ExactMatcher(), RM1Matcher(), RM2Matcher()):
            ids[matcher.name] = run_one(matcher, job, files, transfers).matched_transfer_ids()
        assert ids["exact"] <= ids["rm1"] <= ids["rm2"]
        assert len(ids["rm2"]) > len(ids["rm1"])
