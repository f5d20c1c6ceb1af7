"""Tests for the packaged studies (eight-day / three-month) as wholes."""

import pytest

from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.scenarios.threemonth import ThreeMonthConfig, ThreeMonthStudy


class TestEightDayStudy:
    def test_config_propagates(self):
        cfg = EightDayConfig(seed=9, days=0.25, intensity=2.0,
                             analysis_tasks_per_hour=4.0)
        study = EightDayStudy(cfg)
        wl = study.harness.config.workload
        assert wl.duration == pytest.approx(0.25 * 86400.0)
        assert wl.analysis_tasks_per_hour == pytest.approx(8.0)

    def test_grid_scale_applied(self):
        cfg = EightDayConfig(seed=9, days=0.25, grid_scale=0.35)
        study = EightDayStudy(cfg)
        # scaled grid has smaller sites than the full preset
        from repro.grid.presets import build_wlcg
        full = build_wlcg(seed=9)
        scaled_slots = sum(s.compute_slots for s in study.harness.topology.real_sites())
        full_slots = sum(s.compute_slots for s in full.real_sites())
        assert scaled_slots < full_slots * 0.6

    def test_lazy_caching(self, small_study):
        assert small_study.source is small_study.source
        assert small_study.matching_report() is small_study.matching_report()

    def test_telemetry_before_run_raises(self):
        study = EightDayStudy(EightDayConfig(days=0.1))
        with pytest.raises(RuntimeError):
            _ = study.telemetry


class TestThreeMonthStudy:
    @pytest.fixture(scope="class")
    def study(self):
        cfg = ThreeMonthConfig(seed=4, days=0.5,
                               analysis_tasks_per_hour=4.0,
                               production_tasks_per_hour=0.5,
                               background_transfers_per_hour=60.0)
        return ThreeMonthStudy(cfg).run()

    def test_produces_matrix_material(self, study):
        tel = study.telemetry
        assert len(tel.transfers) > 50
        assert len(study.site_names()) == 111

    def test_matrix_has_fig3_structure(self, study):
        from repro.core.analysis.matrix import build_transfer_matrix

        m = build_transfer_matrix(study.source.columns, study.site_names())
        assert m.total_volume > 0
        assert 0.0 < m.local_fraction <= 1.0
        assert m.n_sites == 111
