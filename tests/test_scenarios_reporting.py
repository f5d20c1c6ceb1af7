"""Tests for scenarios (runtime, growth) and reporting."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis.bandwidth import bandwidth_series
from repro.core.analysis.summary import (
    activity_breakdown,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.core.analysis.timeline import build_timeline
from repro.reporting.export import load_json, rows_to_csv, to_json_file
from repro.reporting.figures import render_series, render_timeline, series_to_rows, sparkline
from repro.reporting.tables import render_activity_table, render_method_tables, render_table
from repro.scenarios.growth import GrowthConfig, GrowthModel
from repro.scenarios.runtime import HarnessConfig, SimulationHarness
from repro.units import EB, PB
from repro.workload.generator import WorkloadConfig

from tests.helpers import make_transfer


class TestHarness:
    def test_run_once_only(self, tiny_harness):
        tiny_harness.run()
        with pytest.raises(RuntimeError):
            tiny_harness.run()

    def test_telemetry_requires_run(self):
        h = SimulationHarness(HarnessConfig(
            seed=1, workload=WorkloadConfig(duration=3600.0)))
        with pytest.raises(RuntimeError):
            h.telemetry()

    def test_telemetry_cached(self, tiny_harness):
        tiny_harness.run()
        assert tiny_harness.telemetry() is tiny_harness.telemetry()

    def test_determinism(self):
        def run(seed):
            from repro.grid.presets import build_mini
            h = SimulationHarness(
                HarnessConfig(seed=seed, workload=WorkloadConfig(
                    duration=6 * 3600.0, analysis_tasks_per_hour=3.0,
                    production_tasks_per_hour=0.5,
                    background_transfers_per_hour=20.0), drain=6 * 3600.0),
                topology=build_mini(seed=seed))
            h.run()
            return (
                h.collector.n_jobs,
                h.collector.n_transfers,
                [j.pandaid for j in h.collector.completed_jobs[:20]],
                [round(e.endtime, 6) for e in h.collector.transfer_events[:20]],
            )

        assert run(7) == run(7)

    def test_seed_changes_outcome(self):
        from repro.grid.presets import build_mini

        def run(seed):
            h = SimulationHarness(
                HarnessConfig(seed=seed, workload=WorkloadConfig(
                    duration=6 * 3600.0, analysis_tasks_per_hour=3.0)),
                topology=build_mini(seed=seed))
            h.run()
            return (h.collector.n_jobs, h.collector.n_transfers)

        assert run(1) != run(2)

    def test_known_site_names_excludes_unknown(self, tiny_harness):
        names = tiny_harness.known_site_names()
        assert "UNKNOWN" not in names
        assert "CERN-PROD" in names


class TestGrowthModel:
    def test_fig2_shape(self):
        """Fig 2: ~1 EB by 2024, more than doubled since 2018."""
        m = GrowthModel()
        c = m.cumulative_by_year()
        assert 0.5 * EB < c[2024] < 2.0 * EB
        assert m.doubling_ratio(2018, 2024) > 2.0

    def test_monotone_cumulative(self):
        pts = GrowthModel().series()
        values = [p.cumulative for p in pts]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_shutdown_years_depressed(self):
        pts = {p.year: p for p in GrowthModel(GrowthConfig(jitter=0.0)).series()}
        assert pts[2013].ingested < pts[2012].ingested

    def test_deterministic_in_seed(self):
        a = GrowthModel(GrowthConfig(seed=3)).series()
        b = GrowthModel(GrowthConfig(seed=3)).series()
        assert [p.cumulative for p in a] == [p.cumulative for p in b]

    def test_retirement_tracks_archive(self):
        pts = GrowthModel().series()
        assert pts[0].retired == 0.0
        assert pts[-1].retired > 0.0


class TestRenderTables:
    def test_render_table_alignment(self):
        out = render_table(["name", "n"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "-" in lines[1]

    def test_activity_table(self, small_report, small_study):
        rows = activity_breakdown(small_report["exact"], small_study.source.columns)
        out = render_activity_table(rows)
        assert "Analysis Download" in out and "Total" in out

    def test_method_tables(self, small_report):
        out = render_method_tables(
            method_comparison_transfers(small_report),
            method_comparison_jobs(small_report),
            small_report.n_transfers_with_taskid,
            small_report.n_jobs,
        )
        assert "(a) Matched transfers count" in out
        assert "(b) Matched job count" in out
        assert "exact" in out and "rm2" in out


class TestRenderFigures:
    def test_sparkline_shape(self):
        s = sparkline([0, 1, 2, 3, 4], width=60)
        assert len(s) == 5
        assert s[0] == "▁" and s[-1] == "█"

    def test_sparkline_pools_long_series(self):
        s = sparkline(list(range(1000)), width=50)
        assert len(s) == 50

    def test_sparkline_empty_and_flat(self):
        assert sparkline([]) == ""
        assert set(sparkline([0, 0, 0])) == {"▁"}

    def test_series_rows(self):
        s = bandwidth_series([make_transfer(size=1000, start=0.0, end=10.0)],
                             0.0, 10.0, 5.0, label="x")
        rows = series_to_rows(s)
        assert len(rows) == 2 and set(rows[0]) == {"t", "mbps"}

    def test_render_series_contains_stats(self):
        s = bandwidth_series([make_transfer(size=10**7, start=0.0, end=10.0)],
                             0.0, 10.0, 5.0, label="A->B")
        out = render_series(s)
        assert "A->B" in out and "peak" in out

    def test_render_timeline(self, small_report):
        for m in small_report["exact"].matched_jobs():
            tl = build_timeline(m)
            if tl is not None:
                out = render_timeline(tl)
                assert f"job {tl.pandaid}" in out
                # the phase axis is rendered (queue may round to zero
                # columns for wall-dominated jobs)
                assert "W" in out or "Q" in out
                assert "=" in out
                break


class TestExport:
    def test_csv_roundtrip(self, tmp_path: Path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        p = tmp_path / "out.csv"
        assert rows_to_csv(p, rows) == 2
        text = p.read_text()
        assert text.startswith("a,b")

    def test_csv_dataclasses(self, tmp_path, small_report, small_study):
        rows = activity_breakdown(small_report["exact"], small_study.source.columns)
        p = tmp_path / "t1.csv"
        assert rows_to_csv(p, rows) == len(rows)

    def test_csv_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        assert rows_to_csv(p, []) == 0
        assert p.read_text() == ""

    def test_json_numpy_and_enum(self, tmp_path):
        from repro.core.matching.base import TransferClass
        p = tmp_path / "x.json"
        to_json_file(p, {
            "arr": np.arange(3),
            "scalar": np.float64(1.5),
            "enum": TransferClass.ALL_LOCAL,
        })
        data = load_json(p)
        assert data == {"arr": [0, 1, 2], "scalar": 1.5, "enum": "all_local"}
