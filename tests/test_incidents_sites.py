"""Tests for incident injection and per-site dashboards."""

import pytest

from repro.core.analysis.errors import ErrorFamily
from repro.core.analysis.sites import (
    build_dashboards,
    hottest_sites,
    importers_and_exporters,
)
from repro.grid.incidents import Incident, IncidentInjector
from repro.grid.presets import build_mini
from repro.sim.engine import Engine

from tests.helpers import columns_of, make_job, make_transfer


class TestIncidentValidation:
    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            Incident("X", 100.0, 100.0, "compute", 0.5)

    def test_rejects_bad_severity(self):
        with pytest.raises(ValueError):
            Incident("X", 0.0, 10.0, "compute", 1.0)
        with pytest.raises(ValueError):
            Incident("X", 0.0, 10.0, "compute", -0.1)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Incident("X", 0.0, 10.0, "quantum", 0.5)


class TestComputeIncidents:
    def _setup(self):
        engine = Engine()
        topo = build_mini(seed=1)
        return engine, topo, IncidentInjector(engine, topo)

    def test_slots_shrink_and_restore(self):
        engine, topo, inj = self._setup()
        site = topo.site("BNL-ATLAS")
        orig_slots, orig_rel = site.compute_slots, site.reliability
        inj.schedule(Incident("BNL-ATLAS", 100.0, 200.0, "compute", 0.25))
        engine.run(until=150.0)
        assert site.compute_slots == max(1, int(orig_slots * 0.25))
        assert site.reliability < orig_rel
        engine.run(until=250.0)
        assert site.compute_slots == orig_slots
        assert site.reliability == orig_rel

    def test_unknown_site_rejected(self):
        engine, topo, inj = self._setup()
        with pytest.raises(KeyError):
            inj.schedule(Incident("GHOST", 0.0, 10.0, "compute", 0.5))

    def test_active_at(self):
        engine, topo, inj = self._setup()
        inj.schedule(Incident("BNL-ATLAS", 100.0, 200.0, "compute", 0.5))
        assert inj.active_at(150.0)
        assert not inj.active_at(50.0)
        assert not inj.active_at(200.0)


class TestNetworkIncidents:
    def test_bandwidth_reduced_during_window(self):
        engine = Engine()
        topo = build_mini(seed=1)
        inj = IncidentInjector(engine, topo)
        net = topo.network
        before = net.effective_bandwidth("CERN-PROD", "BNL-ATLAS", 50.0)
        inj.schedule(Incident("BNL-ATLAS", 100.0, 200.0, "network", 0.1))
        during = net.effective_bandwidth("CERN-PROD", "BNL-ATLAS", 150.0)
        after = net.effective_bandwidth("CERN-PROD", "BNL-ATLAS", 250.0)
        # the incident factor applies inside the window only
        clean_during = inj.network_hook._orig_effective("CERN-PROD", "BNL-ATLAS", 150.0)
        assert during == pytest.approx(max(64_000.0, clean_during * 0.1))
        assert after == inj.network_hook._orig_effective("CERN-PROD", "BNL-ATLAS", 250.0)
        assert before == inj.network_hook._orig_effective("CERN-PROD", "BNL-ATLAS", 50.0)

    def test_transfer_duration_reflects_incident(self):
        engine = Engine()
        topo = build_mini(seed=1)
        inj = IncidentInjector(engine, topo)
        net = topo.network
        clean = net.transfer_duration("CERN-PROD", "BNL-ATLAS", 5e9, 50_000.0)
        inj.schedule(Incident("BNL-ATLAS", 0.0, 10**9, "network", 0.05))
        degraded = net.transfer_duration("CERN-PROD", "BNL-ATLAS", 5e9, 50_000.0)
        assert degraded > clean * 2

    def test_overlapping_incidents_take_worst(self):
        engine = Engine()
        topo = build_mini(seed=1)
        inj = IncidentInjector(engine, topo)
        inj.schedule(Incident("BNL-ATLAS", 0.0, 100.0, "network", 0.5))
        inj.schedule(Incident("BNL-ATLAS", 50.0, 150.0, "network", 0.2))
        assert inj.network_hook.factor("BNL-ATLAS", 75.0) == 0.2
        assert inj.network_hook.factor("BNL-ATLAS", 25.0) == 0.5
        assert inj.network_hook.factor("BNL-ATLAS", 125.0) == 0.2


class TestSiteDashboards:
    def _records(self):
        jobs = [
            make_job(pandaid=1, site="A", creation=0.0, start=100.0, end=200.0),
            make_job(pandaid=2, site="A", creation=0.0, start=300.0, end=400.0,
                     status="failed"),
            make_job(pandaid=3, site="B", creation=0.0, start=50.0, end=500.0),
        ]
        jobs[1].error_code = 1305
        transfers = [
            make_transfer(row_id=1, src="A", dst="A", size=100),
            make_transfer(row_id=2, src="A", dst="B", size=200),
            make_transfer(row_id=3, src="B", dst="A", size=50),
        ]
        return jobs, transfers

    def test_job_aggregation(self):
        jobs, transfers = self._records()
        boards = build_dashboards(columns_of(jobs, transfers))
        a = boards["A"]
        assert a.n_jobs == 2 and a.n_failed == 1
        assert a.failure_rate == 0.5
        assert a.mean_queue == pytest.approx(200.0)

    def test_traffic_aggregation(self):
        jobs, transfers = self._records()
        boards = build_dashboards(columns_of(jobs, transfers))
        a, b = boards["A"], boards["B"]
        assert a.bytes_local == 100
        assert a.bytes_out == 200 and a.bytes_in == 50
        assert b.bytes_in == 200 and b.bytes_out == 50
        assert a.net_flow == -150 and b.net_flow == 150

    def test_error_family(self):
        jobs, transfers = self._records()
        boards = build_dashboards(columns_of(jobs, transfers))
        assert boards["A"].dominant_error_family is ErrorFamily.COMPUTE

    def test_hottest_sites_ranking(self):
        jobs = [make_job(pandaid=i, site="HOT", status="failed") for i in range(12)]
        jobs += [make_job(pandaid=100 + i, site="COOL") for i in range(12)]
        boards = build_dashboards(columns_of(jobs))
        hottest = hottest_sites(boards, by="failure_rate", top=1)
        assert hottest[0].site == "HOT"

    def test_importers_exporters(self):
        jobs, transfers = self._records()
        boards = build_dashboards(columns_of(jobs, transfers))
        importers, exporters = importers_and_exporters(boards)
        assert importers[0].site == "B"
        assert exporters[0].site == "A"

    def test_on_study(self, small_study):
        boards = build_dashboards(small_study.source.columns)
        assert len(boards) > 10
        total_jobs = sum(b.n_jobs for b in boards.values())
        assert total_jobs == len(small_study.telemetry.jobs)


class TestIncidentCampaign:
    def test_incident_degrades_site_outcomes(self):
        """End-to-end: a long compute incident at a busy site raises its
        failure rate relative to the no-incident twin run."""
        from repro.scenarios.runtime import HarnessConfig, SimulationHarness
        from repro.workload.generator import WorkloadConfig

        def run(with_incident: bool) -> float:
            h = SimulationHarness(
                HarnessConfig(
                    seed=17,
                    workload=WorkloadConfig(
                        duration=12 * 3600.0,
                        analysis_tasks_per_hour=6.0,
                        production_tasks_per_hour=0.5,
                        background_transfers_per_hour=10.0,
                    ),
                    drain=24 * 3600.0,
                ),
                topology=build_mini(seed=17),
            )
            if with_incident:
                inj = IncidentInjector(h.engine, h.topology)
                inj.schedule(Incident("CERN-PROD", 0.0, 36 * 3600.0, "compute", 0.3))
            h.run()
            cern_jobs = [j for j in h.collector.completed_jobs
                         if j.computing_site == "CERN-PROD"]
            if not cern_jobs:
                return 0.0
            return sum(1 for j in cern_jobs if not j.succeeded) / len(cern_jobs)

        assert run(True) > run(False)
