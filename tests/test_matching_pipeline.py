"""Integration tests: pipeline + evaluation over the small campaign.

These assert the paper's *shape* findings hold on simulated telemetry:
method ordering, activity ordering, locality dominance, and the
evaluation's precision guarantees.
"""

import pytest

from repro.core.matching.evaluation import evaluate_against_truth, visible_true_pairs
from repro.core.matching.pipeline import MatchingPipeline
from repro.core.analysis.summary import activity_breakdown


@pytest.fixture(scope="module")
def jobs_transfers(small_study):
    t0, t1 = small_study.harness.window
    return (
        small_study.source.user_jobs_completed_in(t0, t1),
        small_study.source.transfers_started_in(t0, t1),
    )


class TestPipelineStructure:
    def test_three_methods_present(self, small_report):
        assert small_report.methods == ["exact", "rm1", "rm2"]

    def test_preselection_counts(self, small_report, small_telemetry):
        assert small_report.n_transfers <= len(small_telemetry.transfers)
        assert small_report.n_transfers_with_taskid <= small_report.n_transfers

    def test_only_user_jobs_considered(self, small_study, small_report):
        t0, t1 = small_study.harness.window
        user_jobs = small_study.source.user_jobs_completed_in(t0, t1)
        assert small_report.n_jobs == len(user_jobs)

    def test_some_matches_found(self, small_report):
        assert small_report["exact"].n_matched_jobs > 0
        assert small_report["exact"].n_matched_transfers > 0


class TestPaperShapes:
    def test_method_ordering_jobs(self, small_report):
        """Table 2b: exact <= RM1 <= RM2 in matched jobs."""
        e = small_report["exact"].n_matched_jobs
        r1 = small_report["rm1"].n_matched_jobs
        r2 = small_report["rm2"].n_matched_jobs
        assert e <= r1 <= r2

    def test_method_ordering_transfers(self, small_report):
        e = small_report["exact"].n_matched_transfers
        r1 = small_report["rm1"].n_matched_transfers
        r2 = small_report["rm2"].n_matched_transfers
        assert e <= r1 <= r2

    def test_transfer_sets_nest(self, small_report):
        assert (small_report["exact"].matched_transfer_ids()
                <= small_report["rm1"].matched_transfer_ids()
                <= small_report["rm2"].matched_transfer_ids())

    def test_exact_mostly_local(self, small_report):
        """Table 2a: the exact method's matches are dominated by local
        transfers (94% in the paper)."""
        local, remote = small_report["exact"].frame().local_remote_split()
        assert local > remote

    def test_rm2_gain_is_remote(self, small_report):
        """Table 2a: RM2's additional matches land in the remote column
        (UNKNOWN endpoints count as non-local)."""
        _, rm1_remote = small_report["rm1"].frame().local_remote_split()
        rm1_local, _ = small_report["rm1"].frame().local_remote_split()
        rm2_local, rm2_remote = small_report["rm2"].frame().local_remote_split()
        assert rm2_remote > rm1_remote
        assert rm2_local == rm1_local

    def test_match_rates_are_low(self, small_report):
        """§5.1: only a few percent of anything matches."""
        pct_jobs = small_report["exact"].n_matched_jobs / small_report.n_jobs
        assert pct_jobs < 0.15

    def test_activity_ordering(self, small_report, small_telemetry):
        """Table 1: Upload >> Download > Direct IO > Production = 0."""
        rows = {r.activity: r for r in activity_breakdown(
            small_report["exact"], small_telemetry.transfers)}
        assert rows["Production Upload"].matched == 0
        assert rows["Production Download"].matched == 0
        au = rows["Analysis Upload"]
        ad = rows["Analysis Download"]
        addio = rows["Analysis Download Direct IO"]
        if au.total:
            assert au.pct > ad.pct > addio.pct

    def test_production_never_matches(self, small_report, small_telemetry):
        matched = small_report["rm2"].matched_transfer_ids()
        prod_rows = [t for t in small_telemetry.transfers
                     if t.activity.startswith("Production")]
        assert all(t.row_id not in matched for t in prod_rows)


class TestEvaluation:
    def test_exact_has_perfect_precision(self, small_report, small_telemetry,
                                         jobs_transfers):
        """With per-job file chunks the exact join is unambiguous, so
        every asserted pair must be truly linked."""
        jobs, transfers = jobs_transfers
        ev = evaluate_against_truth(
            small_report["exact"], small_telemetry.ground_truth, jobs, transfers)
        assert ev.pair_precision == 1.0

    def test_recall_increases_with_relaxation(self, small_report, small_telemetry,
                                              jobs_transfers):
        jobs, transfers = jobs_transfers
        evals = {
            m: evaluate_against_truth(
                small_report[m], small_telemetry.ground_truth, jobs, transfers)
            for m in small_report.methods
        }
        assert evals["exact"].pair_recall <= evals["rm1"].pair_recall <= evals["rm2"].pair_recall

    def test_visible_truth_is_bounded(self, small_telemetry, jobs_transfers):
        jobs, transfers = jobs_transfers
        pairs = visible_true_pairs(small_telemetry.ground_truth, jobs, transfers)
        job_ids = {j.pandaid for j in jobs}
        row_ids = {t.row_id for t in transfers}
        assert all(p in job_ids and r in row_ids for p, r in pairs)

    def test_recall_below_one(self, small_report, small_telemetry, jobs_transfers):
        """Degradation makes full recall impossible — the paper's whole
        problem statement."""
        jobs, transfers = jobs_transfers
        ev = evaluate_against_truth(
            small_report["rm2"], small_telemetry.ground_truth, jobs, transfers)
        assert ev.pair_recall < 1.0

    def test_evaluation_str(self, small_report, small_telemetry, jobs_transfers):
        jobs, transfers = jobs_transfers
        ev = evaluate_against_truth(
            small_report["exact"], small_telemetry.ground_truth, jobs, transfers)
        assert "exact" in str(ev) and "P=" in str(ev)


class TestWindowing:
    def test_narrow_window_reduces_population(self, small_study):
        t0, t1 = small_study.harness.window
        pipeline = MatchingPipeline(
            small_study.source, known_sites=small_study.harness.known_site_names())
        narrow = pipeline.run(t0, t0 + (t1 - t0) / 4)
        full = small_study.matching_report()
        assert narrow.n_jobs <= full.n_jobs
        assert narrow.n_transfers <= full.n_transfers

    def test_empty_window(self, small_study):
        pipeline = MatchingPipeline(small_study.source)
        rep = pipeline.run(-100.0, -1.0)
        assert rep.n_jobs == 0
        assert rep["exact"].n_matched_jobs == 0
