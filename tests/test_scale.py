"""Tests for the scale-ladder workload generator and scenario.

The generator is only useful if its ground truth is *analytic*: every
rung must know exactly how many jobs each method matches, so a
paper-scale run can be verified without a reference implementation.
These tests pin that — the synthesized population matches its own
``expected_matches`` under the real pipeline, is bit-identical to the
record-based metastore fed the same records, and the rung/ladder
drivers emit the artifact schema the CI gates read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matching.pipeline import MatchingPipeline
from repro.scenarios.scale import (
    DEFAULT_RUNGS,
    PAPER_RUNG,
    run_rung,
    scale_ladder,
)
from repro.workload.scale import ScaleConfig, synthesize

from tests.oracle import RecordSource

CONFIG = ScaleConfig(n_jobs=240, seed=7)


@pytest.fixture(scope="module")
def dataset():
    return synthesize(CONFIG)


class TestSynthesize:
    def test_population_counts(self, dataset):
        ds = dataset
        assert ds.n_jobs == CONFIG.n_jobs
        assert 0 < ds.n_user_jobs <= ds.n_jobs
        assert CONFIG.files_per_job_min * ds.n_jobs <= ds.n_files
        assert ds.n_files <= CONFIG.files_per_job_max * ds.n_jobs
        assert ds.n_transfers >= ds.n_transfers_with_taskid
        assert ds.source.counts() == {
            "jobs": ds.n_jobs, "files": ds.n_files, "transfers": ds.n_transfers
        }

    def test_deterministic_for_a_seed(self):
        a, b = synthesize(CONFIG), synthesize(CONFIG)
        assert np.array_equal(a.source.columns.jobs.pandaid,
                              b.source.columns.jobs.pandaid)
        assert np.array_equal(a.source.columns.transfers.starttime,
                              b.source.columns.transfers.starttime)
        assert a.expected_matches == b.expected_matches

    def test_seeds_differ(self):
        other = synthesize(ScaleConfig(n_jobs=240, seed=8))
        assert not np.array_equal(
            other.source.columns.jobs.endtime,
            synthesize(CONFIG).source.columns.jobs.endtime,
        )

    def test_jobs_are_endtime_sorted_and_transfers_starttime_sorted(self, dataset):
        ends = dataset.source.columns.jobs.endtime
        starts = dataset.source.columns.transfers.starttime
        assert np.all(np.diff(ends) >= 0)
        assert np.all(np.diff(starts) >= 0)

    def test_expected_matches_ladder_is_monotone(self, dataset):
        e = dataset.expected_matches
        assert e["exact"] <= e["rm1"] <= e["rm2"] <= dataset.n_user_jobs


class TestGroundTruth:
    def test_pipeline_matches_exactly_the_expected_counts(self, dataset):
        ds = dataset
        report = MatchingPipeline(
            ds.source, known_sites=ds.known_sites
        ).run(*ds.window)
        for method, expected in ds.expected_matches.items():
            assert report[method].n_matched_jobs == expected

    def test_parity_with_record_based_metastore(self, dataset):
        # The same records scanned by the brute-force reference store
        # must produce a bit-identical report.
        ds = dataset
        src = ds.source
        jobs = [src.job_record(i) for i in range(ds.n_jobs)]
        files = [src.file_record(i) for i in range(ds.n_files)]
        transfers = [src.transfer_record(i) for i in range(ds.n_transfers)]
        ref = RecordSource(jobs, files, transfers)
        got = MatchingPipeline(src, known_sites=ds.known_sites).run(*ds.window)
        want = MatchingPipeline(ref, known_sites=ds.known_sites).run(*ds.window)
        for m in want.methods:
            assert got[m].matched_pairs() == want[m].matched_pairs()
            assert got[m] == want[m]
        assert got == want


class TestScaleScenario:
    def test_run_rung_emits_the_artifact_schema(self):
        row = run_rung(CONFIG)
        for key in ("n_jobs", "n_user_jobs", "n_files", "n_transfers",
                    "n_transfers_with_taskid", "shard_seconds", "shards",
                    "workers", "seed_mode", "generate_seconds",
                    "match_seconds", "analyze_seconds", "match_jobs_per_sec",
                    "match_transfers_per_sec", "matched_jobs",
                    "expected_matches", "rss_mb", "peak_rss_mb", "headline"):
            assert key in row
        assert row["matched_jobs"] == row["expected_matches"]
        assert row["seed_mode"] == "serial"
        assert row["shards"]["jobs"] >= 1
        assert row["peak_rss_mb"] > 0

    def test_run_rung_without_analyses_skips_headline(self):
        row = run_rung(ScaleConfig(n_jobs=120, seed=3), analyses=False)
        assert "headline" not in row
        assert row["analyze_seconds"] == 0.0

    def test_ladder_payload(self):
        payload = scale_ladder(rungs=(120, 240), seed=11)
        assert [r["n_jobs"] for r in payload["rungs"]] == [120, 240]
        assert payload["config"]["seed"] == 11
        assert payload["paper"]["n_user_jobs"] == 966_000
        # More jobs, more sharded time slices covered per collection.
        assert all(r["shards"]["jobs"] >= 1 for r in payload["rungs"])

    def test_default_rungs_climb_to_paper_scale(self):
        assert all(b == 10 * a for a, b in zip(DEFAULT_RUNGS, DEFAULT_RUNGS[1:]))
        assert PAPER_RUNG >= 900_000
