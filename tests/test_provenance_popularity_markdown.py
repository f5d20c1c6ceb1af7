"""Tests for provenance graphs, popularity tracking, markdown reports."""

import math

import numpy as np
import pytest

from repro.core.analysis.provenance import (
    build_provenance_graph,
    failed_feed_fraction,
    feeding_sites,
    site_feed_stats,
    summarize,
)
from repro.core.matching.base import JobMatch
from repro.reporting.markdown import (
    build_markdown_report,
    load_results,
    write_markdown_report,
)
from repro.rucio.did import DID
from repro.rucio.popularity import PopularityTracker

from tests.helpers import make_job, make_transfer


def jm(transfers, **kw) -> JobMatch:
    return JobMatch(job=make_job(**kw), transfers=transfers)


class TestProvenanceGraph:
    def _graph(self):
        matches = [
            jm([make_transfer(row_id=1, src="S1", dst="A", size=100),
                make_transfer(row_id=2, src="S2", dst="A", size=200)],
               pandaid=1, site="A"),
            jm([make_transfer(row_id=3, src="S1", dst="B", size=300)],
               pandaid=2, site="B", status="failed"),
        ]
        return build_provenance_graph(matches)

    def test_structure(self):
        g = self._graph()
        kinds = {d["kind"] for _, d in g.nodes(data=True)}
        assert kinds == {"job", "transfer", "site"}
        assert g.has_edge("site:S1", "xfer:1")
        assert g.has_edge("xfer:1", "job:1")

    def test_feeding_sites(self):
        g = self._graph()
        assert feeding_sites(g, 1) == ["S1", "S2"]
        assert feeding_sites(g, 2) == ["S1"]
        assert feeding_sites(g, 999) == []

    def test_site_feed_stats(self):
        g = self._graph()
        stats = site_feed_stats(g)
        assert stats["S1"] == (2, 400.0)
        assert stats["S2"] == (1, 200.0)

    def test_failed_feed_fraction(self):
        g = self._graph()
        assert failed_feed_fraction(g, "S1") == pytest.approx(0.5)
        assert failed_feed_fraction(g, "S2") == 0.0
        assert failed_feed_fraction(g, "GHOST") == 0.0

    def test_summary(self):
        g = self._graph()
        s = summarize(g)
        assert s.n_jobs == 2 and s.n_transfers == 3 and s.n_source_sites == 2
        assert s.top_source_share == pytest.approx(400 / 600)
        assert s.mean_sources_per_job == pytest.approx(1.5)

    def test_empty(self):
        g = build_provenance_graph([])
        s = summarize(g)
        assert s.n_jobs == 0 and s.top_source_share == 0.0

    def test_on_study(self, small_report):
        g = build_provenance_graph(small_report["rm2"].matched_jobs())
        s = summarize(g)
        assert s.n_jobs == small_report["rm2"].n_matched_jobs
        assert 0.0 < s.top_source_share <= 1.0


class TestPopularityTracker:
    def test_accumulates(self):
        t = PopularityTracker()
        d = DID("s", "ds")
        t.record_access(d, now=0.0)
        t.record_access(d, now=0.0)
        assert t.score(d, now=0.0) == pytest.approx(2.0)
        assert len(t) == 1

    def test_half_life_decay(self):
        t = PopularityTracker(half_life=100.0)
        d = DID("s", "ds")
        t.record_access(d, now=0.0)
        assert t.score(d, now=100.0) == pytest.approx(0.5)
        assert t.score(d, now=200.0) == pytest.approx(0.25)

    def test_unknown_is_zero(self):
        assert PopularityTracker().score(DID("s", "x"), 0.0) == 0.0

    def test_top_ordering(self):
        t = PopularityTracker()
        hot, cold = DID("s", "hot"), DID("s", "cold")
        for _ in range(5):
            t.record_access(hot, now=0.0)
        t.record_access(cold, now=0.0)
        ranked = t.top(now=0.0, n=2)
        assert ranked[0][0] == hot

    def test_recency_beats_stale_volume(self):
        t = PopularityTracker(half_life=10.0)
        stale, fresh = DID("s", "stale"), DID("s", "fresh")
        for _ in range(4):
            t.record_access(stale, now=0.0)
        t.record_access(fresh, now=100.0)
        assert t.score(fresh, 100.0) > t.score(stale, 100.0)

    def test_weighted_pick_prefers_popular(self):
        t = PopularityTracker()
        hot, cold = DID("s", "hot"), DID("s", "cold")
        for _ in range(50):
            t.record_access(hot, now=0.0)
        t.record_access(cold, now=0.0)
        rng = np.random.default_rng(0)
        picks = [t.pick_weighted(0.0, rng) for _ in range(200)]
        assert picks.count(hot) > picks.count(cold) * 5

    def test_pick_fallback(self):
        t = PopularityTracker()
        rng = np.random.default_rng(0)
        assert t.pick_weighted(0.0, rng) is None
        fallback = [DID("s", "a"), DID("s", "b")]
        assert t.pick_weighted(0.0, rng, fallback=fallback) in fallback

    def test_bad_half_life(self):
        with pytest.raises(ValueError):
            PopularityTracker(half_life=0.0)


class TestMarkdownReport:
    def _write_artifact(self, directory, name, **extra):
        import json
        payload = {"experiment": name, "paper": {"x": 1},
                   "measured": {"x": 2, "nested": {"a": [1, 2]}}, **extra}
        (directory / f"{name}.json").write_text(json.dumps(payload))

    def test_load_results(self, tmp_path):
        self._write_artifact(tmp_path, "fig9_thresholds")
        results = load_results(tmp_path)
        assert "fig9_thresholds" in results

    def test_load_skips_garbage(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        assert load_results(tmp_path) == {}

    def test_missing_dir(self, tmp_path):
        assert load_results(tmp_path / "nope") == {}

    def test_render_order_and_content(self, tmp_path):
        self._write_artifact(tmp_path, "table1_activity")
        self._write_artifact(tmp_path, "summary_headline", notes="hello")
        md = build_markdown_report(tmp_path)
        assert md.index("## summary_headline") < md.index("## table1_activity")
        assert "*hello*" in md
        assert "**Measured:**" in md

    def test_unknown_experiments_appended(self, tmp_path):
        self._write_artifact(tmp_path, "zz_custom")
        md = build_markdown_report(tmp_path)
        assert "## zz_custom" in md

    def test_artifact_without_experiment_key_is_titled_by_file_stem(self, tmp_path):
        import json
        (tmp_path / "scale_ladder.json").write_text(
            json.dumps({"paper": {"x": 1}, "measured": {"x": 2}}))
        md = build_markdown_report(tmp_path)
        assert "## scale_ladder" in md
        assert "## unknown" not in md

    def test_write_report(self, tmp_path):
        self._write_artifact(tmp_path, "fig2_growth")
        out = tmp_path / "report.md"
        assert write_markdown_report(tmp_path, out) == 1
        assert out.read_text().startswith("# Experiment results")

    def test_cli_report(self, tmp_path, capsys):
        from repro.cli import main
        self._write_artifact(tmp_path, "fig2_growth")
        out = tmp_path / "r.md"
        assert main(["report", "--results", str(tmp_path), "--out", str(out)]) == 0
        assert out.exists()

    def test_cli_report_empty_fails(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "r.md"
        assert main(["report", "--results", str(tmp_path / "none"),
                     "--out", str(out)]) == 1
