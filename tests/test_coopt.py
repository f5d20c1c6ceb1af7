"""Tests for co-optimization: awareness, broker, policies."""

import numpy as np
import pytest

from repro.coopt.awareness import PerformanceAwareness
from repro.coopt.broker2 import CoOptimizedBroker
from repro.coopt.policies import TransferDeduplicator, advise
from repro.coopt.state import link_rows_from_matches, snapshot_from_rows
from repro.core.matching.base import JobMatch
from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.anomaly.report import AnomalyReport, build_anomaly_report
from repro.grid.presets import build_mini
from repro.panda.job import DataAccessMode, Job, JobKind
from repro.rucio.activities import TransferActivity
from repro.rucio.did import DID
from repro.rucio.transfer import TransferRequest

from tests.helpers import make_job, make_transfer


def absorb_matches(aw, matches, site_rows=()) -> None:
    """Feed matched evidence the way the control loop does: fold rows
    cut into a snapshot, installed through ``absorb``."""
    link_rows = link_rows_from_matches(matches)
    aw.absorb(snapshot_from_rows(list(site_rows), link_rows, aw.site_names))


class TestAwareness:
    @pytest.fixture()
    def aw(self):
        return PerformanceAwareness(build_mini(seed=1))

    def test_link_throughput_learns(self, aw):
        prior = aw.link_throughput("CERN-PROD", "BNL-ATLAS")
        t = make_transfer(src="CERN-PROD", dst="BNL-ATLAS", size=10**9,
                          start=0.0, end=1.0)
        absorb_matches(aw, [JobMatch(job=make_job(), transfers=[t])])
        assert aw.link_throughput("CERN-PROD", "BNL-ATLAS") != prior

    def test_failed_transfers_ignored(self, aw):
        prior = aw.link_throughput("CERN-PROD", "BNL-ATLAS")
        t = make_transfer(src="CERN-PROD", dst="BNL-ATLAS", success=False)
        absorb_matches(aw, [JobMatch(job=make_job(), transfers=[t])])
        assert aw.link_throughput("CERN-PROD", "BNL-ATLAS") == prior

    def test_queue_wait_rises_with_backlog(self, aw):
        base = aw.expected_queue_wait("CERN-PROD")
        aw.note_backlog("CERN-PROD", +50)
        assert aw.expected_queue_wait("CERN-PROD") > base

    def test_backlog_never_negative(self, aw):
        aw.note_backlog("CERN-PROD", -5)
        assert aw.expected_queue_wait("CERN-PROD") > 0

    def test_failure_rate_tracks_jobs(self, aw):
        failed = [("CERN-PROD", 10.0, True)] * 20
        absorb_matches(aw, [], site_rows=failed)
        assert aw.failure_rate("CERN-PROD") > 0.5

    def test_staging_estimate(self, aw):
        t = aw.estimate_staging_seconds("CERN-PROD", "BNL-ATLAS", 10**9)
        assert t > 0
        assert aw.estimate_staging_seconds("CERN-PROD", "BNL-ATLAS", 0) == 0.0


class TestDeduplicator:
    def _req(self, lfn="f") -> TransferRequest:
        return TransferRequest(
            request_id=1, file_did=DID("s", lfn), size=100,
            dest_rse="A_DATADISK", activity=TransferActivity.ANALYSIS_DOWNLOAD,
        )

    def test_first_allowed_second_suppressed(self):
        d = TransferDeduplicator(ttl_seconds=100.0)
        assert d.should_transfer(self._req(), "A", now=0.0)
        assert not d.should_transfer(self._req(), "A", now=50.0)
        assert d.suppressed == 1 and d.suppressed_bytes == 100

    def test_ttl_expiry_allows_again(self):
        d = TransferDeduplicator(ttl_seconds=100.0)
        d.should_transfer(self._req(), "A", now=0.0)
        assert d.should_transfer(self._req(), "A", now=200.0)

    def test_different_dest_allowed(self):
        d = TransferDeduplicator()
        d.should_transfer(self._req(), "A", now=0.0)
        assert d.should_transfer(self._req(), "B", now=0.0)

    def test_expire_cleans(self):
        d = TransferDeduplicator(ttl_seconds=10.0)
        d.should_transfer(self._req(), "A", now=0.0)
        assert d.expire(now=100.0) == 1


class TestAdvise:
    def test_empty_report_minimal_advice(self):
        assert advise(AnomalyReport()) == []

    def test_advice_on_study(self, small_report, small_telemetry, small_study):
        matrix = build_transfer_matrix(
            small_study.source.columns, small_study.harness.topology.site_names())
        report = build_anomaly_report(
            small_report["rm2"].matched_jobs(), small_telemetry.transfers, matrix=matrix)
        advice = advise(report)
        assert advice
        # sorted by priority
        assert [a.priority for a in advice] == sorted(a.priority for a in advice)
        assert all(str(a).startswith("[P") for a in advice)


class TestCoOptimizedBroker:
    def test_assigns_somewhere_sensible(self, tiny_harness):
        aw = PerformanceAwareness(tiny_harness.topology)
        broker = CoOptimizedBroker(
            tiny_harness.topology, tiny_harness.rucio, aw, np.random.default_rng(0))
        job = Job(
            pandaid=1, jeditaskid=1, kind=JobKind.ANALYSIS,
            access_mode=DataAccessMode.DIRECT_LOCAL, input_dataset=None,
            input_file_dids=[], ninputfilebytes=0, noutputfilebytes=0,
            creation_time=0.0,
        )
        d = broker.assign(job, 0.0)
        assert d.site_name in tiny_harness.topology.sites
        assert d.reason.startswith("coopt")

    def test_prefers_data_site_when_unloaded(self, tiny_harness):
        from repro.grid.rse import RseKind, rse_name
        from repro.rucio.did import DatasetDid, FileDid

        cat = tiny_harness.catalog
        f = FileDid(did=DID("s", "f1"), size=10**9, dataset_name="ds", proddblock="ds")
        cat.register_file(f)
        ds = DatasetDid(did=DID("s", "ds"), file_dids=[f.did])
        cat.register_dataset(ds)
        tiny_harness.replicas.add(f.did, rse_name("BNL-ATLAS", RseKind.DATADISK), f.size)

        aw = PerformanceAwareness(tiny_harness.topology)
        broker = CoOptimizedBroker(
            tiny_harness.topology, tiny_harness.rucio, aw, np.random.default_rng(0))
        job = Job(
            pandaid=1, jeditaskid=1, kind=JobKind.ANALYSIS,
            access_mode=DataAccessMode.COPY_TO_SCRATCH, input_dataset=ds.did,
            input_file_dids=[f.did], ninputfilebytes=f.size, noutputfilebytes=0,
            creation_time=0.0,
        )
        d = broker.assign(job, 0.0)
        assert d.site_name == "BNL-ATLAS"
        assert d.data_local

    def test_avoids_overloaded_data_site(self, tiny_harness):
        from repro.grid.rse import RseKind, rse_name
        from repro.rucio.did import DatasetDid, FileDid

        cat = tiny_harness.catalog
        f = FileDid(did=DID("s", "f2"), size=10**6, dataset_name="ds2", proddblock="ds2")
        cat.register_file(f)
        ds = DatasetDid(did=DID("s", "ds2"), file_dids=[f.did])
        cat.register_dataset(ds)
        tiny_harness.replicas.add(f.did, rse_name("BNL-ATLAS", RseKind.DATADISK), f.size)

        aw = PerformanceAwareness(tiny_harness.topology)
        # Saturate BNL with an enormous backlog.
        aw.note_backlog("BNL-ATLAS", 100000)
        broker = CoOptimizedBroker(
            tiny_harness.topology, tiny_harness.rucio, aw, np.random.default_rng(0))
        job = Job(
            pandaid=2, jeditaskid=2, kind=JobKind.ANALYSIS,
            access_mode=DataAccessMode.COPY_TO_SCRATCH, input_dataset=ds.did,
            input_file_dids=[f.did], ninputfilebytes=f.size, noutputfilebytes=0,
            creation_time=0.0,
        )
        d = broker.assign(job, 0.0)
        assert d.site_name != "BNL-ATLAS"
