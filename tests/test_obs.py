"""Tests for the observability layer (``repro.obs``) and its exporters.

Covers the tracer (nesting, deterministic clock, decorator form), the
metrics registry (labels, histogram bucketing), the ambient context
(scoped install/restore, noop fast path), the Chrome-trace / flat-JSON
exporters, and the load-bearing integration property: running the
matching pipeline under an enabled bundle records spans for every
dataplane stage **without changing any result**.
"""

from __future__ import annotations

import json

import pytest

from repro.core.matching.pipeline import MatchingPipeline
from repro.metastore.packsource import PackSource
from repro.obs import (
    LATENCY_BUCKETS,
    NOOP_INSTRUMENT,
    NOOP_SPAN,
    Histogram,
    MetricsRegistry,
    Obs,
    TickClock,
    Tracer,
    get_obs,
    instrument_kernel,
    set_obs,
    use_obs,
)
from repro.reporting import (
    chrome_trace,
    metrics_snapshot,
    render_stage_summary,
    stage_summary,
    write_chrome_trace,
    write_metrics_json,
)


# -- tracer -----------------------------------------------------------------------


class TestTracer:
    def test_span_records_interval_and_attrs(self):
        tr = Tracer(clock=TickClock())
        with tr.span("op", cat="kernel") as sp:
            sp.set("rows", 7)
        assert len(tr) == 1
        s = tr.spans[0]
        assert (s.name, s.cat) == ("op", "kernel")
        assert (s.start, s.end, s.duration) == (0.0, 1.0, 1.0)
        assert s.attrs == {"rows": 7}

    def test_nesting_assigns_parent_and_depth(self):
        tr = Tracer(clock=TickClock())
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert tr.active_depth == 2
        assert inner.parent_id == outer.span_id
        assert (outer.depth, inner.depth) == (0, 1)
        assert outer.parent_id is None
        # finished spans land in completion order: inner first
        assert [s.name for s in tr.spans] == ["inner", "outer"]
        assert tr.active_depth == 0

    def test_sibling_spans_share_parent(self):
        tr = Tracer(clock=TickClock())
        with tr.span("root") as root:
            with tr.span("a") as a:
                pass
            with tr.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_exception_unwinds_stack(self):
        tr = Tracer(clock=TickClock())
        with pytest.raises(RuntimeError):
            with tr.span("outer"):
                with tr.span("inner"):
                    raise RuntimeError("boom")
        assert tr.active_depth == 0
        assert {s.name for s in tr.spans} == {"inner", "outer"}

    def test_wrap_decorator(self):
        tr = Tracer(clock=TickClock())

        @tr.wrap("fib", cat="misc")
        def fib(n):
            return n if n < 2 else fib(n - 1) + fib(n - 2)

        assert fib(4) == 3
        assert len(tr.by_cat("misc")) == 9
        assert max(s.depth for s in tr.spans) > 0  # recursion nests

    def test_disabled_tracer_returns_shared_noop(self):
        tr = Tracer(enabled=False)
        assert tr.span("x") is NOOP_SPAN
        assert tr.span("y") is NOOP_SPAN  # same singleton every call
        with tr.span("z") as sp:
            sp.set("k", 1)
        assert len(tr) == 0

    def test_tick_clock_makes_traces_deterministic(self):
        def trace_once():
            tr = Tracer(clock=TickClock(step=2.0, start=100.0))
            with tr.span("a"):
                with tr.span("b"):
                    pass
            return chrome_trace(tr)

        assert trace_once() == trace_once()

    def test_clear_resets_ids(self):
        tr = Tracer(clock=TickClock())
        with tr.span("a"):
            pass
        tr.clear()
        with tr.span("b") as sp:
            pass
        assert sp.span_id == 0 and len(tr) == 1


# -- metrics ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("q", collection="jobs").inc()
        reg.counter("q", collection="jobs").inc(2)
        reg.counter("q", collection="files").inc()
        snap = reg.snapshot()
        values = {tuple(c["labels"].items()): c["value"] for c in snap["counters"]}
        assert values[(("collection", "jobs"),)] == 3
        assert values[(("collection", "files"),)] == 1

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        reg.counter("q", a="1", b="2").inc()
        reg.counter("q", b="2", a="1").inc()
        assert len(reg) == 1

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("lag")
        g.set(3.0)
        g.set(1.5)
        assert reg.snapshot()["gauges"] == [
            {"name": "lag", "labels": {}, "value": 1.5}
        ]

    def test_histogram_bucketing(self):
        h = Histogram(edges=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 10.0, 99.0, 1000.0):
            h.observe(v)
        # bucket i holds edges[i-1] < v <= edges[i] (bisect_left: a value
        # exactly on an edge counts in that edge's own bucket); 1000.0
        # overflows past the last edge.
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.sum == pytest.approx(1115.5)

    def test_histogram_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(edges=())

    def test_default_edges_are_latency_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        assert h.edges == LATENCY_BUCKETS

    def test_disabled_registry_hands_out_noop(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("c") is NOOP_INSTRUMENT
        assert reg.gauge("g") is NOOP_INSTRUMENT
        assert reg.histogram("h") is NOOP_INSTRUMENT
        reg.counter("c").inc()
        assert len(reg) == 0


# -- ambient context --------------------------------------------------------------


class TestContext:
    def test_default_ambient_is_disabled(self):
        obs = get_obs()
        assert not obs.enabled
        assert obs.tracer.span("x") is NOOP_SPAN

    def test_use_obs_installs_and_restores(self):
        before = get_obs()
        bundle = Obs.collecting(clock=TickClock())
        with use_obs(bundle) as installed:
            assert installed is bundle
            assert get_obs() is bundle
        assert get_obs() is before

    def test_use_obs_none_is_passthrough(self):
        before = get_obs()
        with use_obs(None) as obs:
            assert obs is before
        assert get_obs() is before

    def test_use_obs_restores_on_exception(self):
        before = get_obs()
        with pytest.raises(RuntimeError):
            with use_obs(Obs.collecting()):
                raise RuntimeError
        assert get_obs() is before

    def test_set_obs_returns_previous(self):
        bundle = Obs.collecting()
        prev = set_obs(bundle)
        try:
            assert get_obs() is bundle
        finally:
            set_obs(prev)

    def test_instrument_kernel_records_span_and_counters(self):
        @instrument_kernel("toy", rows=lambda xs: len(xs))
        def toy(xs):
            return [x * 2 for x in xs]

        bundle = Obs.collecting(clock=TickClock())
        with use_obs(bundle):
            assert toy([1, 2, 3]) == [2, 4, 6]
        (span,) = bundle.tracer.spans
        assert (span.name, span.cat, span.attrs["rows"]) == ("kernel.toy", "kernel", 3)
        counters = {c["name"]: c["value"] for c in bundle.metrics.snapshot()["counters"]}
        assert counters == {"kernel.calls": 1, "kernel.rows": 3}

    def test_instrument_kernel_disabled_is_transparent(self):
        calls = []

        @instrument_kernel("toy", rows=lambda xs: calls.append("rows") or len(xs))
        def toy(xs):
            return xs

        assert toy([1]) == [1]
        assert calls == []  # rows callable never evaluated when disabled


# -- exporters --------------------------------------------------------------------


def _traced_bundle() -> Obs:
    bundle = Obs.collecting(clock=TickClock())
    with use_obs(bundle) as obs:
        with obs.tracer.span("outer", cat="study") as sp:
            sp.set("days", 2.0)
            with obs.tracer.span("inner", cat="kernel"):
                pass
        obs.metrics.counter("c", k="v").inc(3)
        obs.metrics.gauge("g").set(1.5)
        obs.metrics.histogram("h", edges=(1.0, 2.0)).observe(1.5)
    return bundle


class TestExporters:
    def test_chrome_trace_shape(self):
        doc = chrome_trace(_traced_bundle().tracer)
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["outer", "inner"]  # start order
        for e in events:
            assert e["ph"] == "X"
            assert {"name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(e)
        outer, inner = events
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert outer["args"]["days"] == 2.0
        # TickClock: outer spans ticks 0..3 -> ts 0us, dur 3 ticks * 1e6
        assert outer["ts"] == 0.0 and outer["dur"] == 3_000_000.0

    def test_chrome_trace_round_trip(self, tmp_path):
        bundle = _traced_bundle()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(path, bundle.tracer)
        assert n == 2
        loaded = json.loads(path.read_text())
        assert loaded == chrome_trace(bundle.tracer)

    def test_metrics_snapshot_round_trip(self, tmp_path):
        bundle = _traced_bundle()
        path = tmp_path / "metrics.json"
        doc = write_metrics_json(path, bundle)
        loaded = json.loads(path.read_text())
        assert loaded == doc == metrics_snapshot(bundle)
        assert loaded["n_spans"] == 2
        assert set(loaded["spans"]) == {"study", "kernel"}
        assert loaded["metrics"]["counters"] == [
            {"name": "c", "labels": {"k": "v"}, "value": 3}
        ]

    def test_stage_summary_orders_by_total_time(self):
        tr = Tracer(clock=TickClock())
        with tr.span("slow", cat="a"):
            with tr.span("fast", cat="b"):
                pass
        rows = stage_summary(tr)
        assert [r["name"] for r in rows] == ["slow", "fast"]
        assert rows[0]["count"] == 1
        text = render_stage_summary(tr, top=1)
        assert "slow" in text and "fast" not in text


# -- integration: instrumented pipeline, identical results ------------------------


@pytest.fixture(scope="module")
def obs_run(small_telemetry, small_study):
    """Matching + stream replay under an enabled bundle, plus baselines."""
    tele = small_telemetry
    baseline_source = PackSource.from_records(tele.jobs, tele.files, tele.transfers)
    t0, t1 = small_study.harness.window
    known = small_study.harness.known_site_names()
    baseline = MatchingPipeline(baseline_source, known_sites=known).run(t0, t1)

    bundle = Obs.collecting()
    with use_obs(bundle):
        source = PackSource.from_records(tele.jobs, tele.files, tele.transfers)
    pipeline = MatchingPipeline(source, known_sites=known, obs=bundle)
    report = pipeline.run(t0, t1)
    with use_obs(bundle):
        from repro.stream import replay_window

        processor = replay_window(small_telemetry, t0, t1, known_sites=known)
    return bundle, report, baseline, processor


class TestInstrumentedPipeline:
    def test_results_bit_identical_to_uninstrumented(self, obs_run):
        _, report, baseline, processor = obs_run
        for method in baseline.methods:
            assert report[method] == baseline[method]
            assert processor.report()[method].matched_pairs() == \
                baseline[method].matched_pairs()

    def test_spans_cover_all_dataplane_stages(self, obs_run):
        bundle, _, _, _ = obs_run
        cats = bundle.tracer.cats()
        assert {"metastore", "artifact", "kernel", "executor", "stream"} <= set(cats)

    def test_metastore_metrics_recorded(self, obs_run):
        bundle, _, _, _ = obs_run
        snap = bundle.metrics.snapshot()
        names = {c["name"] for c in snap["counters"]}
        assert "metastore.queries" in names
        assert "metastore.ingested_records" in names
        assert any(h["name"] == "metastore.hit_size" for h in snap["histograms"])

    def test_cache_and_stream_metrics_recorded(self, obs_run):
        bundle, _, _, _ = obs_run
        snap = bundle.metrics.snapshot()
        cache_events = {
            c["labels"]["event"]: c["value"]
            for c in snap["counters"] if c["name"] == "artifact.cache"
        }
        assert cache_events.get("miss", 0) >= 1
        gauges = {g["name"] for g in snap["gauges"]}
        assert "stream.watermark_lag" in gauges

    def test_ambient_left_disabled_after_run(self, obs_run):
        assert not get_obs().enabled

    def test_empty_stream_skips_lag_gauge(self, small_study):
        # Regression companion to the watermark NaN fix: with no events
        # observed the lag gauge must not be written (it would have been
        # NaN under the old WatermarkTracker.lag).
        from repro.stream import StreamProcessor

        bundle = Obs.collecting()
        with use_obs(bundle):
            proc = StreamProcessor(
                0.0, 10.0, known_sites=small_study.harness.known_site_names()
            )
            proc.run([[]])
        gauges = {g["name"]: g["value"] for g in bundle.metrics.snapshot()["gauges"]}
        assert "stream.watermark_lag" not in gauges
        assert gauges.get("stream.pending_jobs") == 0.0


# -- thread safety ----------------------------------------------------------------


class TestObsThreadSafety:
    """Regression hammers for the serving layer's concurrency contract.

    Eight service threads update shared counters, histograms, and spans;
    a single lost ``+=`` would silently corrupt shed-rate / hit-rate
    accounting, so these assert exact totals.
    """

    THREADS = 8
    ROUNDS = 2_000

    def _hammer(self, work):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(self.THREADS) as pool:
            for f in [pool.submit(work, i) for i in range(self.THREADS)]:
                f.result()

    def test_counter_loses_no_updates(self):
        reg = MetricsRegistry()

        def work(_):
            counter = reg.counter("serve.requests", tenant="t", status="ok")
            for _ in range(self.ROUNDS):
                counter.inc()

        self._hammer(work)
        assert reg.counter("serve.requests", tenant="t", status="ok").value \
            == self.THREADS * self.ROUNDS

    def test_histogram_loses_no_observations(self):
        reg = MetricsRegistry()

        def work(i):
            hist = reg.histogram("serve.latency")
            for k in range(self.ROUNDS):
                hist.observe(0.0005 * ((i + k) % 9))

        self._hammer(work)
        hist = reg.histogram("serve.latency")
        assert hist.count == self.THREADS * self.ROUNDS
        assert sum(hist.counts) == hist.count

    def test_concurrent_creation_yields_one_instrument(self):
        import threading

        reg = MetricsRegistry()
        barrier = threading.Barrier(self.THREADS)
        got = []

        def work(_):
            barrier.wait()
            got.append(reg.counter("hot", path="x"))

        self._hammer(work)
        assert all(c is got[0] for c in got)
        assert len(reg) == 1

    def test_histogram_quantile_bucket_resolution(self):
        hist = Histogram(edges=(0.001, 0.01, 0.1))
        for _ in range(90):
            hist.observe(0.0005)
        for _ in range(10):
            hist.observe(0.05)
        assert hist.quantile(0.5) == 0.001
        assert hist.quantile(0.95) == 0.1
        hist.observe(5.0)  # overflow
        assert hist.quantile(1.0) == float("inf")
        import math

        assert math.isnan(Histogram(edges=(1.0,)).quantile(0.5))

    def test_tracer_spans_from_many_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        tr = Tracer()
        per_thread = 200

        def work(i):
            for k in range(per_thread):
                with tr.span(f"outer-{i}") as outer:
                    with tr.span(f"inner-{i}"):
                        pass
            return i

        with ThreadPoolExecutor(self.THREADS) as pool:
            for f in [pool.submit(work, i) for i in range(self.THREADS)]:
                f.result()
        spans = tr.spans
        assert len(spans) == self.THREADS * per_thread * 2
        assert len({s.span_id for s in spans}) == len(spans)  # ids never collide
        # nesting is per-thread: every inner span's parent is an outer
        # span from its own thread (same -<i> suffix)
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.name.startswith("inner"):
                parent = by_id[s.parent_id]
                assert parent.name == "outer" + s.name[5:]
