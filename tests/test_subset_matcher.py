"""Tests for the subset-sum matcher (the paper's skipped refinement)."""

import pytest

from repro.columnar import ColumnarIndex
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.subset import SubsetMatcher

from tests.helpers import make_file, make_job, make_transfer, matching_triple


def run_one(matcher, job, files, transfers):
    index = ColumnarIndex([job], files, transfers)
    return index.run(matcher, n_transfers_considered=len(transfers))


class TestSubsetMatcher:
    def test_agrees_with_exact_on_clean_set(self):
        job, files, transfers = matching_triple()
        exact = run_one(ExactMatcher(), job, files, transfers)
        subset = run_one(SubsetMatcher(), job, files, transfers)
        assert exact.matched_transfer_ids() == subset.matched_transfer_ids()

    def test_recovers_polluted_set(self):
        """The Fig 12 situation: duplicates double S_j; exact fails,
        subset selection recovers one-copy-per-file."""
        job, files, transfers = matching_triple(n_files=2)
        dupes = [
            make_transfer(row_id=100 + i, lfn=f"f{i}", size=1000,
                          start=500.0 + i, end=600.0 + i)
            for i in range(2)
        ]
        assert run_one(ExactMatcher(), job, files, transfers + dupes).n_matched_jobs == 0
        res = run_one(SubsetMatcher(), job, files, transfers + dupes)
        assert res.n_matched_jobs == 1
        match = res.matches[0]
        assert match.n_transfers == 2
        assert len({t.lfn for t in match.transfers}) == 2  # one per file

    def test_selected_subset_sums_exactly(self):
        job, files, transfers = matching_triple(n_files=3)
        extra = make_transfer(row_id=50, lfn="f0", size=1000, start=5.0, end=6.0)
        res = run_one(SubsetMatcher(), job, files, transfers + [extra])
        assert res.n_matched_jobs == 1
        assert sum(t.file_size for t in res.matches[0].transfers) == job.ninputfilebytes

    def test_partial_set_unmatched(self):
        """Unlike RM1, subset matching still demands an exact byte total."""
        job, files, transfers = matching_triple(n_files=3)
        res = run_one(SubsetMatcher(), job, files, transfers[:2])
        assert res.n_matched_jobs == 0

    def test_output_target_used(self):
        job = make_job(nin=0, nout=2000)
        files = [make_file(lfn=f"o{i}", size=1000, ftype="output") for i in range(2)]
        ts = [
            make_transfer(row_id=i + 1, lfn=f"o{i}", size=1000,
                          download=False, upload=True)
            for i in range(2)
        ]
        res = run_one(SubsetMatcher(), job, files, ts)
        assert res.n_matched_jobs == 1

    def test_respects_time_and_site(self):
        job, files, transfers = matching_triple(n_files=1)
        transfers[0].destination_site = "ELSEWHERE"
        assert run_one(SubsetMatcher(), job, files, transfers).n_matched_jobs == 0

    def test_budget_fallback(self):
        """With a tiny node budget the matcher falls back whole-set."""
        job, files, transfers = matching_triple(n_files=3)
        matcher = SubsetMatcher(max_nodes=1)
        res = run_one(matcher, job, files, transfers)
        # whole set sums correctly, so the fallback still matches
        assert res.n_matched_jobs == 1
        assert matcher.fallbacks >= 1

    def test_superset_of_exact_on_study(self, small_report, small_study,
                                        small_telemetry):
        """Subset matching dominates exact matching (finds everything
        exact finds, plus pollution-rescued jobs)."""
        from repro.core.matching.pipeline import MatchingPipeline

        pipeline = MatchingPipeline(
            small_study.source, known_sites=small_study.harness.known_site_names())
        t0, t1 = small_study.harness.window
        report = pipeline.run(t0, t1, matchers=[
            ExactMatcher(small_study.harness.known_site_names()),
            SubsetMatcher(small_study.harness.known_site_names()),
        ])
        exact_jobs = {m.job.pandaid for m in report["exact"].matched_jobs()}
        subset_jobs = {m.job.pandaid for m in report["subset"].matched_jobs()}
        assert exact_jobs <= subset_jobs

    def test_precision_stays_perfect_on_study(self, small_study, small_telemetry):
        from repro.core.matching.evaluation import evaluate_against_truth
        from repro.core.matching.pipeline import MatchingPipeline

        pipeline = MatchingPipeline(
            small_study.source, known_sites=small_study.harness.known_site_names())
        t0, t1 = small_study.harness.window
        report = pipeline.run(t0, t1, matchers=[
            SubsetMatcher(small_study.harness.known_site_names())])
        jobs = small_study.source.user_jobs_completed_in(t0, t1)
        transfers = small_study.source.transfers_started_in(t0, t1)
        ev = evaluate_against_truth(
            report["subset"], small_telemetry.ground_truth, jobs, transfers)
        assert ev.pair_precision >= 0.9
