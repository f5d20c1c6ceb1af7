"""Edge-case and failure-injection tests across modules.

These widen coverage beyond the happy paths: empty populations,
degenerate configurations, mid-run cancellations, capacity boundaries,
and failure cascades.
"""

from typing import List

import numpy as np
import pytest

from repro.columnar import ColumnarIndex
from repro.core.analysis.bandwidth import bandwidth_series
from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.analysis.queuing import timings_for_result
from repro.core.analysis.summary import activity_breakdown
from repro.core.analysis.thresholds import threshold_sweep_result
from repro.core.matching.base import MatchResult
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.pipeline import MatchingPipeline
from repro.metastore.packsource import PackSource
from repro.sim.engine import Engine
from repro.telemetry.records import UNKNOWN_SITE

from tests.helpers import make_file, make_job, make_transfer


class TestEmptyPopulations:
    def test_empty_matcher_run(self):
        res = ColumnarIndex([], [], []).run(ExactMatcher(), 0)
        assert res.n_matched_jobs == 0
        assert res.matched_pairs() == []
        assert res.frame().local_remote_split() == (0, 0)

    def test_empty_activity_breakdown(self):
        res = MatchResult(method="exact", matches=[], n_jobs_considered=0,
                          n_transfers_considered=0)
        rows = activity_breakdown(res, [])
        assert rows[-1].activity == "Total"
        assert rows[-1].total == 0
        assert rows[-1].pct == 0.0

    def test_empty_threshold_sweep(self):
        res = MatchResult(method="exact", matches=[], n_jobs_considered=0,
                          n_transfers_considered=0)
        sweep = threshold_sweep_result(res)
        assert sweep.n_jobs == 0
        assert sweep.success_fraction() == 0.0
        assert sweep.failure_enrichment(75) == 0.0

    def test_empty_timings(self):
        res = MatchResult(method="exact", matches=[], n_jobs_considered=0,
                          n_transfers_considered=0)
        assert timings_for_result(res) == []

    def test_empty_bandwidth_series(self):
        s = bandwidth_series([], 0.0, 100.0, 10.0)
        assert s.peak_mbps == 0.0
        assert s.fluctuation == 0.0

    def test_empty_matrix(self):
        m = build_transfer_matrix([], ["A", UNKNOWN_SITE])
        assert m.total_volume == 0.0
        assert m.local_fraction == 0.0
        assert m.mean_pair_volume() == 0.0
        assert m.geometric_mean_pair_volume() == 0.0

    def test_pipeline_on_empty_store(self):
        source = PackSource.from_records([], [], [])
        report = MatchingPipeline(source).run(0.0, 100.0)
        assert report.n_jobs == 0
        assert all(report[m].n_matched_jobs == 0 for m in report.methods)


class TestEngineEdges:
    def test_callback_scheduling_at_now(self):
        e = Engine()
        hits = []
        e.schedule_at(5.0, lambda: e.schedule_at(e.now, lambda: hits.append(e.now)))
        e.run()
        assert hits == [5.0]

    def test_cancel_during_run(self):
        e = Engine()
        hits = []
        later = e.schedule_at(10.0, lambda: hits.append("later"))
        e.schedule_at(5.0, later.cancel)
        e.run()
        assert hits == []

    def test_zero_delay_chain_terminates(self):
        e = Engine()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            if count["n"] < 100:
                e.schedule_in(0.0, tick)

        e.schedule_at(0.0, tick)
        e.run()
        assert count["n"] == 100
        assert e.now == 0.0


class TestMatchingEdges:
    def test_zero_size_job_never_size_matches_positively(self):
        """ninputfilebytes == 0: sums of positive transfer sizes can't hit 0,
        but noutputfilebytes == 0 would trivially match — guard the semantics."""
        job = make_job(nin=0, nout=0)
        files = [make_file(lfn="f0", size=1000)]
        transfers = [make_transfer(lfn="f0", size=1000)]
        res = ColumnarIndex([job], files, transfers).run(ExactMatcher(), 1)
        # the whole-set sum is 1000, equal to neither 0-target
        assert res.n_matched_jobs == 0

    def test_transfer_exactly_at_job_end_excluded(self):
        job = make_job(end=2000.0, nin=1000)
        files = [make_file(lfn="f0", size=1000)]
        t = make_transfer(lfn="f0", size=1000, start=2000.0, end=2100.0)
        res = ColumnarIndex([job], files, [t]).run(ExactMatcher(), 1)
        assert res.n_matched_jobs == 0  # strict '<' per Algorithm 1

    def test_transfer_just_before_job_end_included(self):
        job = make_job(end=2000.0, nin=1000)
        files = [make_file(lfn="f0", size=1000)]
        t = make_transfer(lfn="f0", size=1000, start=1999.9, end=2100.0)
        res = ColumnarIndex([job], files, [t]).run(ExactMatcher(), 1)
        assert res.n_matched_jobs == 1

    def test_job_with_no_file_rows_unmatchable(self):
        job = make_job()
        transfers = [make_transfer()]
        res = ColumnarIndex([job], [], transfers).run(ExactMatcher(), 1)
        assert res.n_matched_jobs == 0

    def test_same_lfn_different_scopes_distinct(self):
        job = make_job(nin=1000)
        files = [make_file(lfn="f0", size=1000, scope="user.a")]
        wrong_scope = make_transfer(lfn="f0", size=1000, scope="user.b")
        res = ColumnarIndex([job], files, [wrong_scope]).run(ExactMatcher(), 1)
        assert res.n_matched_jobs == 0


class TestFailureCascades:
    def test_all_transfers_failing_still_terminates(self):
        """A campaign where every transfer fails must still complete all
        jobs (with failures) and leave consistent telemetry."""
        from repro.grid.presets import build_mini
        from repro.scenarios.runtime import HarnessConfig, SimulationHarness
        from repro.workload.generator import WorkloadConfig

        h = SimulationHarness(
            HarnessConfig(
                seed=3,
                workload=WorkloadConfig(
                    duration=24 * 3600.0,
                    analysis_tasks_per_hour=12.0,
                    production_tasks_per_hour=0.3,
                    background_transfers_per_hour=10.0,
                ),
                drain=80 * 3600.0,
                transfer_failure_rate=1.0,
            ),
            topology=build_mini(seed=3),
        )
        h.run()
        jobs = h.collector.completed_jobs
        assert jobs
        assert all(j.status.is_terminal for j in jobs)
        # copy jobs overwhelmingly fail: stage-in failure, or an
        # early (patience-triggered) start at elevated risk — a small
        # lucky minority may still finish, exactly like Fig 11's near
        # misses.
        from repro.panda.job import DataAccessMode
        copy_jobs = [j for j in jobs
                     if j.access_mode is DataAccessMode.COPY_TO_SCRATCH
                     and j.true_transfer_ids]
        if copy_jobs:
            failed = sum(1 for j in copy_jobs if not j.succeeded)
            assert failed / len(copy_jobs) > 0.6
            assert any(j.error_code == 1099 for j in copy_jobs)

    def test_unreliable_site_fails_most_jobs(self):
        from repro.grid.site import Site
        from repro.grid.tier import Tier
        from repro.panda.errors import FailureModel

        fm = FailureModel(base_failure_rate=0.1, staging_coupling=0.0)
        awful = Site("X", Tier.T3, "Asia", reliability=0.5)
        p = fm.payload_failure_probability(awful, 0.0)
        assert p >= 0.5


class TestCapacityBoundaries:
    def test_rse_exact_fill(self):
        from repro.grid.rse import RseKind, StorageElement

        rse = StorageElement("S", "S", RseKind.DATADISK, capacity_bytes=100.0)
        rse.allocate(100.0)
        assert rse.free_bytes == 0.0
        with pytest.raises(RuntimeError):
            rse.allocate(0.1)

    def test_single_slot_site(self):
        from repro.grid.site import Site
        from repro.grid.tier import Tier

        s = Site("X", Tier.T3, "Asia", compute_slots=1)
        s.occupy()
        assert s.load == 1.0
        s.release()
        assert s.load == 0.0

    def test_link_capacity_one(self):
        """FTS with capacity 1 serialises everything but loses nothing."""
        from tests.test_rucio_fts import Rig

        rig = Rig(link_capacity=1)
        ds = rig.register_dataset(n_files=5)
        for fd in ds.file_dids:
            rig.fts.submit(rig.request(fd, "BNL-ATLAS_DATADISK"))
        rig.engine.run()
        assert len(rig.events) == 5
        assert all(e.success for e in rig.events)
