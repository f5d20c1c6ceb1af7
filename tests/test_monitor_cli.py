"""Tests for the streaming anomaly monitor and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.core.anomaly.monitor import (
    Alert,
    AlertKind,
    MonitorConfig,
    StreamingAnomalyMonitor,
)
from repro.core.matching.base import JobMatch

from tests.helpers import make_job, make_transfer


def jm(transfers, **kw) -> JobMatch:
    return JobMatch(job=make_job(**kw), transfers=transfers)


class TestMonitorJobAlerts:
    def test_quiet_job_no_alerts(self):
        mon = StreamingAnomalyMonitor()
        raised = mon.observe_match(jm(
            [make_transfer(start=0.0, end=5.0)],
            creation=0.0, start=1000.0, end=2000.0))
        assert raised == []
        assert mon.jobs_observed == 1

    def test_high_transfer_time_alert(self):
        mon = StreamingAnomalyMonitor()
        raised = mon.observe_match(jm(
            [make_transfer(start=0.0, end=900.0)],
            creation=0.0, start=1000.0, end=2000.0))
        kinds = {a.kind for a in raised}
        assert AlertKind.HIGH_TRANSFER_TIME in kinds

    def test_spanning_alert(self):
        mon = StreamingAnomalyMonitor()
        raised = mon.observe_match(jm(
            [make_transfer(start=500.0, end=1500.0)],
            creation=0.0, start=1000.0, end=2000.0))
        assert any(a.kind is AlertKind.SPANNING_TRANSFER for a in raised)

    def test_sequential_alert(self):
        mon = StreamingAnomalyMonitor()
        raised = mon.observe_match(jm(
            [make_transfer(row_id=1, start=0.0, end=100.0),
             make_transfer(row_id=2, start=100.0, end=200.0)],
            creation=0.0, start=1000.0, end=2000.0))
        assert any(a.kind is AlertKind.SEQUENTIAL_STAGING for a in raised)

    def test_spread_alert(self):
        mon = StreamingAnomalyMonitor(MonitorConfig(spread_threshold=5.0))
        raised = mon.observe_match(jm(
            [make_transfer(row_id=1, size=100000, start=0.0, end=1.0),
             make_transfer(row_id=2, size=1000, start=1.0, end=10.0)],
            creation=0.0, start=1000.0, end=2000.0))
        assert any(a.kind is AlertKind.THROUGHPUT_SPREAD for a in raised)

    def test_unstarted_job_safe(self):
        mon = StreamingAnomalyMonitor()
        assert mon.observe_match(jm([], start=None, end=None)) == []


class TestMonitorTransferAlerts:
    def test_redundant_detected(self):
        mon = StreamingAnomalyMonitor()
        assert mon.observe_transfer(make_transfer(row_id=1, start=100.0)) is None
        alert = mon.observe_transfer(make_transfer(row_id=2, start=2000.0, end=2100.0))
        assert alert is not None and alert.kind is AlertKind.REDUNDANT_TRANSFER

    def test_outside_ttl_not_redundant(self):
        mon = StreamingAnomalyMonitor(MonitorConfig(redundancy_ttl=100.0))
        mon.observe_transfer(make_transfer(row_id=1, start=0.0))
        assert mon.observe_transfer(
            make_transfer(row_id=2, start=10_000.0, end=10_100.0)) is None

    def test_uploads_ignored(self):
        mon = StreamingAnomalyMonitor()
        t = make_transfer(download=False, upload=True)
        assert mon.observe_transfer(t) is None
        assert mon.observe_transfer(t) is None


class TestMonitorHealth:
    def test_site_rate_rises_with_alerts(self):
        mon = StreamingAnomalyMonitor()
        noisy = jm([make_transfer(start=0.0, end=900.0)],
                   creation=0.0, start=1000.0, end=2000.0, site="HOT")
        for _ in range(10):
            mon.observe_match(noisy)
        assert mon.site_alert_rate("HOT") > 0.3
        assert mon.worst_sites()[0][0] == "HOT"

    def test_counts_and_summary(self):
        mon = StreamingAnomalyMonitor()
        mon.observe_match(jm([make_transfer(start=0.0, end=900.0)],
                             creation=0.0, start=1000.0, end=2000.0))
        counts = mon.counts_by_kind()
        assert counts[AlertKind.HIGH_TRANSFER_TIME] == 1
        assert "alerts" in mon.summary()

    def test_on_study(self, small_report):
        mon = StreamingAnomalyMonitor()
        for m in small_report["rm2"].matched_jobs():
            mon.observe_match(m)
        assert mon.jobs_observed == small_report["rm2"].n_matched_jobs
        # some anomaly classes should appear in a realistic campaign
        assert len(mon.alerts) > 0


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for cmd in ("simulate", "match", "anomalies", "growth", "export"):
            args = parser.parse_args([cmd] if cmd == "growth" else [cmd, "--days", "1"])
            assert callable(args.fn)

    def test_growth_runs(self, capsys):
        assert main(["growth"]) == 0
        out = capsys.readouterr().out
        assert "2024" in out and "EB" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_tiny(self, capsys):
        assert main(["simulate", "--days", "0.1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "jobs completed" in out

    @pytest.mark.parametrize("cmd,expected", [
        ("match", "Analysis Upload"),
        ("analyze", "transfer volume"),
        ("anomalies", "imbalance"),
    ])
    def test_analysis_commands_tiny(self, cmd, expected, capsys):
        assert main([cmd, "--days", "0.1", "--seed", "1"]) == 0
        assert expected in capsys.readouterr().out

    def test_export_tiny(self, tmp_path, capsys):
        assert main(["export", "--days", "0.1", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "transfers.csv").exists()
        assert (tmp_path / "matching.json").exists()
