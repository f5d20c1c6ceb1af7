"""The four perf workloads, their spans and their correctness checks.

Every workload is a function ``(seed, seconds, sizes, trace) -> Outcome``
that builds its inputs from ``seed``, measures for about ``seconds`` and
checks its outputs outside the timed region (serve's inline sampling is
the one exception).  Layers are timed from outside, around calls into
their public functions; nothing under ``src/`` is touched.

Why these four (each stresses a different layer; see README.md):

* ``campaign`` -- the PanDA/Rucio simulator dominates; matching and
  analysis are about 1%.  A dataplane gain must leave it unchanged.
* ``ladder``   -- a synthesized rung that bypasses the simulator and
  record ingest, so nearly all time is materialize, join, filter/score
  and analysis.
* ``stream``   -- incremental ``ingest_batch`` appends dominate; the
  write-path twin of campaign's bulk ingest.
* ``serve``    -- reads beside writes: every ingest invalidates the
  memo and the artifact cache, so recompute latency and capacity show.

How a run measures.  On a shared virtual machine, slowdowns from other
tenants are one-sided, so a batch workload repeats each unit (a
campaign, a ladder pass, a micro-batch) and reports its fastest
repetition; set-up is repeated and reported the same way.  The number of repetitions follows from ``seconds`` and a
nominal cost per cycle over the units, not from how fast the code under
test runs, so a faster change does not also get more tries at a lower
minimum; only a machine slower than nominal stops early, once
``seconds`` are spent.  Repetitions must also agree on their outputs,
which checks that a seeded run is deterministic.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import repro.serve.service as service_mod
from repro.core.matching.base import MatchingReport
from repro.core.matching.rm3 import RM3Matcher
from repro.exec.analysis import DEFAULT_ANALYSES, analyze_report
from repro.exec.artifacts import WindowArtifacts, match_artifacts
from repro.exec.executor import SerialExecutor, default_matchers
from repro.exec.plan import WindowPlan
from repro.obs import Tracer
from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.serve.bench import default_tenants, synthetic_batch
from repro.serve.loadgen import LoadSpec, Workload
from repro.serve.service import MatchService, ServeConfig
from repro.stream import EventLog, StreamProcessor
from repro.workload.scale import ScaleConfig, synthesize

RM3_SWEEP = (0.2, 0.5)
#: Set-up is one-shot, so a slow stretch would move it; it is repeated
#: and reported as its fastest repetition, like the units.  Batch
#: workloads set up again before every repetition, which spreads the
#: samples over the run; serve has no repetitions and sets up this
#: often, back to back.
SETUP_REPEATS = 5
#: Every unit runs at least twice: once to measure, once to check that
#: the output repeats (and, traced, once with tracing off).
MIN_REPEATS = 2
#: Seconds one cycle over a workload's units takes at FULL sizes on a
#: 2-vCPU Xeon at 2.1 GHz; only the repetition count is derived from it.
NOMINAL_CYCLE_S = {"campaign": 2.5, "ladder": 1.5, "stream": 4.0}
STREAM_BATCH_SECONDS = 300.0
SERVE_TENANTS = 8
SERVE_NOMINAL_RPS = 400.0
#: About twice what a 2-core box serves, so goodput reads capacity.
SERVE_OVERLOAD_RPS = 8000.0
SERVE_GOOD_S = 0.25
SERVE_INGEST_EVERY_S = 0.5
SERVE_INGEST_RECORDS = 32
SERVE_VERIFY_EVERY = 50


@dataclass(frozen=True)
class Sizes:
    """Input sizes and the measured time per run; ``SMOKE`` keeps the
    self-test under a minute."""

    seconds: float
    campaign_days: float
    campaign_count: int
    scale_jobs: int
    stream_jobs: int
    serve_days: float
    serve_warmup_s: float


SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
FULL = Sizes(seconds=float(SPEC["run_seconds"]), campaign_days=0.5, campaign_count=3,
             scale_jobs=36_000, stream_jobs=3_000, serve_days=1.0, serve_warmup_s=2.0)
SMOKE = Sizes(seconds=1.0, campaign_days=0.1, campaign_count=2, scale_jobs=3_600,
              stream_jobs=1_800, serve_days=0.5, serve_warmup_s=0.5)

#: sha256 pins at seed 2025, keyed by (workload, input size): the byte
#: identity of the first campaign's degraded telemetry plus every
#: method's matched_pairs(), and of RM3's matched_pairs() on the ladder
#: rung.
PINS = {
    ("campaign", FULL.campaign_days): "b61e97bc72e53b957222abfbea28c0b038289b92083ae5c94ae65f8da17cb648",
    ("campaign", SMOKE.campaign_days): "dd05e2926a900c0091f9449cb1dcd862bb493224ee9480975a1f9436428ab196",
    ("ladder", FULL.scale_jobs): "2cdf85a43d68c37d3be9b086f858e9e84fd8f092fc1ac74c85dab901fbde0cfa",
    ("ladder", SMOKE.scale_jobs): "51467f6de54958c9bad40687821c6f926bfa806c3ba588df1650191381c91408",
}
PIN_SEED = 2025


# -- spans --------------------------------------------------------------------


class Trace:
    """The benchmark's own spans: a ``repro.obs`` tracer that is never
    installed globally, so only spans opened here are recorded.  Each
    span carries the run id and the thread it ran on."""

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.tracer = Tracer(enabled=enabled)
        self.run_id = run_id

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def span(self, name: str):
        sp = self.tracer.span(name, cat=name.split(".")[0])
        return sp.set("run", self.run_id).set("thread", threading.get_ident())

    def mark(self) -> int:
        return len(self.tracer.spans)

    def since(self, mark: int) -> list:
        return list(self.tracer.spans[mark:])


def self_times(spans: Sequence) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child: Dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child[s.parent_id] = child.get(s.parent_id, 0.0) + s.duration
    return {s.span_id: s.duration - child.get(s.span_id, 0.0) for s in spans}


def coverage(spans: Sequence, root: str) -> float:
    """Share of the root spans' time covered by their direct children."""
    roots = {s.span_id: s.duration for s in spans if s.name == root}
    covered = sum(s.duration for s in spans if s.parent_id in roots)
    total = sum(roots.values())
    return covered / total if total else 0.0


def span_seconds(spans: Sequence, workload: str) -> Dict[str, float]:
    """``<span>_s``: seconds spent inside each layer call, summed over
    its spans.  The workload's own structure spans (``<workload>.*``)
    are left out."""
    out: Dict[str, float] = {}
    for s in spans:
        if not s.name.startswith(workload + "."):
            out[f"{s.name}_s"] = out.get(f"{s.name}_s", 0.0) + s.duration
    return out


@contextlib.contextmanager
def traced_calls(trace: Trace, targets):
    """While tracing, run every call of functions the workload does not
    call itself (serve's worker threads) inside a span.  ``targets``
    holds ``(owner, attribute, span name)``.  Originals are restored on
    exit; an untraced run wraps nothing."""
    saved = []
    try:
        for owner, attr, name in (targets if trace.enabled else ()):
            raw = owner.__dict__[attr]
            fn = getattr(owner, attr)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                with trace.span(_name):
                    return _fn(*args, **kwargs)

            setattr(owner, attr,
                    staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            saved.append((owner, attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- runs, repetitions and metrics ---------------------------------------------


@dataclass
class Rep:
    """One timed repetition of a unit."""

    unit: int
    seconds: float
    traced: bool = False
    layers: Dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    setup: List[float] = field(default_factory=list)
    synthesize: List[float] = field(default_factory=list)
    #: unit repetitions, and per-layer numbers of whole traced repetitions
    reps: List[Rep] = field(default_factory=list)
    layer_reps: List[Rep] = field(default_factory=list)
    #: values measured directly (serve's open loop has no repetitions)
    override: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)
        print(f"[{self.workload}] FAILED: {what}", file=sys.stderr)

    def guard(self, what: str, fn: Callable[[], None]) -> None:
        """Run one repetition; an exception fails it and the run goes on."""
        self.attempted += 1
        try:
            fn()
        except Exception:
            self.fail(f"{what}: {traceback.format_exc()}")

    def metrics(self) -> Dict[str, float]:
        """End-to-end and per-layer values.  A unit's time is its
        fastest untraced repetition; latency is the median unit time.
        Set-up is the fastest set-up.  Per-layer numbers come from each
        unit's fastest traced repetition, as the median over units."""
        plain = [r for r in self.reps if not r.traced]
        traced = [r for r in self.reps if r.traced]
        chosen = plain or traced
        if not chosen and not self.override:
            raise RuntimeError(f"{self.workload}: no repetition completed")
        out = {
            "setup_s": min(self.setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if chosen:
            times = unit_times(chosen)
            units = list(times.values())
            out.update({
                "latency_ms": 1000.0 * statistics.median(units),
                "latency_p99_ms": 1000.0 * quantile(units, 0.99),
                "repetitions": len(chosen) / len(times),
            })
        if plain and traced:
            out["obs.trace_overhead_frac"] = (
                sum(unit_times(traced).values()) / sum(unit_times(plain).values()) - 1.0)
        if self.synthesize:
            out["workload.synthesize_s"] = min(self.synthesize)
        layered = fastest(self.layer_reps)
        for name in sorted({k for r in layered for k in r.layers}):
            out[name] = statistics.median(r.layers.get(name, 0.0) for r in layered)
        out.update(self.override)
        return out


def fastest(reps: Sequence[Rep]) -> List[Rep]:
    """The fastest repetition of each unit."""
    best: Dict[int, Rep] = {}
    for r in reps:
        if r.unit not in best or r.seconds < best[r.unit].seconds:
            best[r.unit] = r
    return [best[k] for k in sorted(best)]


def unit_times(reps: Sequence[Rep]) -> Dict[int, float]:
    """Unit -> its fastest repetition's seconds."""
    return {r.unit: r.seconds for r in fastest(reps)}


def run_cycles(units: Sequence[Callable[[], None]], workload: str, seconds: float,
               trace: Trace) -> None:
    """Run the whole cycle of units as often as ``seconds`` hold the
    workload's nominal cycle cost, at least ``MIN_REPEATS`` times, and
    no further cycle once ``seconds`` are spent.  A traced run alternates
    cycles with tracing on and off, starting on, so it also measures
    what tracing costs."""
    count = max(MIN_REPEATS, round(seconds / NOMINAL_CYCLE_S[workload]))
    deadline = time.perf_counter() + seconds
    tracing = trace.enabled
    try:
        for i in range(count):
            if i >= MIN_REPEATS and time.perf_counter() > deadline:
                break
            trace.tracer.enabled = tracing and i % 2 == 0
            for unit in units:
                unit()
    finally:
        trace.tracer.enabled = tracing


def quantile(values: Sequence[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q))


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        for item in part:
            h.update(repr(item).encode())
            h.update(b"\n")
    return h.hexdigest()


def sub_seeds(seed: int, n: int) -> List[int]:
    """``seed`` itself, then ``n - 1`` seeds derived from it."""
    derived = np.random.SeedSequence(seed).generate_state(max(0, n - 1))
    return [seed] + [int(s) for s in derived]


def timed_setup(out: Outcome, build: Callable[[], object], repeats: int = 1):
    """Run ``build`` ``repeats`` times, recording each in ``out.setup``;
    returns the last result.  The previous result is released before
    the next build."""
    for _ in range(repeats):
        result = None
        t = time.perf_counter()
        result = build()
        out.setup.append(time.perf_counter() - t)
    return result


class Agreement:
    """Per unit, the first repetition's output digest; later
    repetitions must reproduce it."""

    def __init__(self) -> None:
        self.first: Dict[int, str] = {}

    def check(self, key: int, value: str) -> Optional[str]:
        first = self.first.setdefault(key, value)
        return None if value == first else "repetition output differs from the first"


def check_pin(key, value: str) -> Optional[str]:
    pinned = PINS.get(key)
    if pinned and value != pinned:
        return f"digest {value} != pinned {pinned}"
    return None


# -- the matching ladder, shared by campaign and ladder -------------------------


def match_and_analyze(source, plan: WindowPlan, matchers, trace: Trace):
    """materialize -> join -> method ladder -> the 10 default analyses.
    The report is ``build_report``'s, with one ``match_artifacts`` call
    per method and one ``analyze_report`` call per spec so each can be
    traced."""
    with trace.span("metastore.materialize"):
        artifacts = WindowArtifacts.materialize(source, plan)
    with trace.span("columnar.join"):
        index = artifacts.columnar
    results = {}
    for m in matchers:
        with trace.span(f"match.{m.name}"):
            results[m.name] = match_artifacts(m, artifacts)
    report = MatchingReport(
        window=artifacts.window, n_jobs=len(artifacts.jobs),
        n_transfers=len(artifacts.transfers),
        n_transfers_with_taskid=artifacts.n_transfers_with_taskid, results=results)
    with trace.span("analysis.total"):
        for spec in DEFAULT_ANALYSES:
            with trace.span(f"analysis.{spec}"):
                analyze_report(report, artifacts, [spec])
    return artifacts, len(index.cand_job), report


def ladder_counts(report: MatchingReport, candidates: int) -> Dict[str, float]:
    """Matched jobs and yield (matched pairs / strict-join candidate
    pairs) per method in the report."""
    out: Dict[str, float] = {"columnar.candidates": float(candidates)}
    for m in report.methods:
        res = report[m]
        out[f"match.{m}.jobs"] = float(res.n_matched_jobs)
        out[f"match.{m}.yield"] = len(res.matched_pairs()) / candidates if candidates else 0.0
    return out


# -- campaign -----------------------------------------------------------------


def check_campaign(report: MatchingReport) -> Optional[str]:
    """Exact ⊆ RM1 ⊆ RM2 on matched job sets."""
    jobs = {m: {jm.job.pandaid for jm in report[m].matches} for m in report.methods}
    if not jobs["exact"] <= jobs["rm1"] <= jobs["rm2"]:
        return "matched job sets violate Exact ⊆ RM1 ⊆ RM2"
    return None


def campaign(seed: int, seconds: float, sizes: Sizes, trace: Trace) -> Outcome:
    """Simulate -> degrade -> bulk ingest -> Exact/RM1/RM2 -> 10 analyses,
    for ``campaign_count`` campaigns seeded from ``seed``.  Set-up is
    each campaign's harness build, once per repetition, outside the
    timed unit."""
    out = Outcome("campaign")
    agree = Agreement()

    def unit(k: int, s: int) -> Callable[[], None]:
        def run() -> None:
            t = time.perf_counter()
            study = EightDayStudy(EightDayConfig(seed=s, days=sizes.campaign_days))
            out.setup.append(time.perf_counter() - t)
            known = study.harness.known_site_names()
            traced = trace.enabled
            mark = trace.mark()
            t = time.perf_counter()
            with trace.span("campaign.unit"):
                with trace.span("sim.run"):
                    study.run()
                with trace.span("telemetry.degrade"):
                    telemetry = study.telemetry
                with trace.span("metastore.ingest"):
                    source = study.source
                _, candidates, report = match_and_analyze(
                    source, WindowPlan(*study.harness.window), default_matchers(known), trace)
            dt = time.perf_counter() - t
            out.reps.append(Rep(k, dt, traced))
            if traced:
                records = len(telemetry.jobs) + len(telemetry.files) + len(telemetry.transfers)
                spans = trace.since(mark)
                layers = span_seconds(spans, "campaign")
                events = study.harness.engine.events_executed
                out.layer_reps.append(Rep(k, dt, traced, layers={
                    **layers,
                    **ladder_counts(report, candidates),
                    "trace.coverage": coverage(spans, "campaign.unit"),
                    "sim.events": float(events),
                    "sim.events_per_s": events / layers["sim.run_s"],
                    "telemetry.records": float(records),
                    "metastore.ingest_rows_per_s": records / layers["metastore.ingest_s"],
                }))
            value = digest(telemetry.jobs, telemetry.files, telemetry.transfers,
                           *(report[m].matched_pairs() for m in report.methods))
            problem = check_campaign(report) or agree.check(k, value)
            if problem is None and k == 0 and seed == PIN_SEED:
                problem = check_pin(("campaign", sizes.campaign_days), value)
            if problem:
                out.fail(f"campaign seed {s}: {problem}")

        return lambda: out.guard(f"campaign seed {s}", run)

    seeds = sub_seeds(seed, sizes.campaign_count)
    run_cycles([unit(k, s) for k, s in enumerate(seeds)], "campaign", seconds, trace)
    return out


# -- ladder -------------------------------------------------------------------


def check_ladder(report: MatchingReport, sweep: Dict[float, int],
                 expected: Dict[str, int]) -> Optional[str]:
    """Ladder counts equal the generator's ground truth; RM3's matched
    jobs do not grow with its threshold."""
    for m, n in expected.items():
        if report[m].n_matched_jobs != n:
            return f"{m} matched {report[m].n_matched_jobs} jobs, expected {n}"
    counts = [sweep[t] for t in sorted(sweep)]
    if any(a < b for a, b in zip(counts, counts[1:])):
        return f"RM3 matched jobs grow with threshold: {dict(sorted(sweep.items()))}"
    return None


def ladder(seed: int, seconds: float, sizes: Sizes, trace: Trace) -> Outcome:
    """materialize -> join -> Exact/RM1/RM2/RM3 -> RM3 sweep -> 10
    analyses over one synthesized rung.  Set-up is the synthesis, done
    again before every pass."""
    out = Outcome("ladder")
    out.synthesize = out.setup
    agree = Agreement()

    def run() -> None:
        ds = timed_setup(out, lambda: synthesize(ScaleConfig(n_jobs=sizes.scale_jobs, seed=seed)))
        plan = WindowPlan(*ds.window)
        known = ds.known_sites
        matchers = default_matchers(known) + [RM3Matcher(known)]
        traced = trace.enabled
        mark = trace.mark()
        t = time.perf_counter()
        with trace.span("ladder.unit"):
            artifacts, candidates, report = match_and_analyze(ds.source, plan, matchers, trace)
            with trace.span("match.rm3_sweep"):
                swept = {theta: match_artifacts(RM3Matcher(known, threshold=theta), artifacts)
                         for theta in RM3_SWEEP}
        dt = time.perf_counter() - t
        out.reps.append(Rep(0, dt, traced))
        if traced:
            spans = trace.since(mark)
            out.layer_reps.append(Rep(0, dt, traced, layers={
                **span_seconds(spans, "ladder"),
                **ladder_counts(report, candidates),
                "trace.coverage": coverage(spans, "ladder.unit"),
            }))
        sweep = {theta: r.n_matched_jobs for theta, r in swept.items()}
        sweep[matchers[-1].threshold] = report["rm3"].n_matched_jobs
        value = digest(report["rm3"].matched_pairs())
        problem = check_ladder(report, sweep, ds.expected_matches) or agree.check(0, value)
        if problem is None and seed == PIN_SEED:
            problem = check_pin(("ladder", sizes.scale_jobs), value)
        if problem:
            out.fail(f"ladder: {problem}")

    run_cycles([lambda: out.guard("ladder pass", run)], "ladder", seconds, trace)
    return out


# -- stream -------------------------------------------------------------------


def stream_inputs(ds):
    """A synthesized window as records, cut into micro-batches."""
    src = ds.source
    telemetry = SimpleNamespace(
        jobs=[src.job_record(i) for i in range(ds.n_jobs)],
        files=[src.file_record(i) for i in range(ds.n_files)],
        transfers=[src.transfer_record(i) for i in range(ds.n_transfers)],
    )
    log = EventLog.from_telemetry(telemetry, *ds.window)
    return [list(b) for b in log.micro_batches(batch_seconds=STREAM_BATCH_SECONDS)]


def check_stream(streamed: MatchingReport, batch: MatchingReport,
                 expected: Dict[str, int]) -> Optional[str]:
    """The replay equals the batch executor's report and the ground truth."""
    if streamed != batch:
        return "streamed report differs from the batch executor's report"
    for m, n in expected.items():
        if streamed[m].n_matched_jobs != n:
            return f"{m} matched {streamed[m].n_matched_jobs} jobs, expected {n}"
    return None


def stream(seed: int, seconds: float, sizes: Sizes, trace: Trace) -> Outcome:
    """Replay one synthesized window through ``StreamProcessor`` in
    five-minute micro-batches, closed loop: the next batch goes in when
    the previous call returns.  Each call is a unit.  Set-up is the
    synthesis plus turning it into records, an event log and batches,
    done again before every replay."""
    out = Outcome("stream")

    def build():
        t = time.perf_counter()
        ds = synthesize(ScaleConfig(n_jobs=sizes.stream_jobs, seed=seed))
        out.synthesize.append(time.perf_counter() - t)
        return ds, stream_inputs(ds)

    def run() -> None:
        ds, batches = timed_setup(out, build)
        t0, t1 = ds.window
        known = ds.known_sites
        proc = StreamProcessor(t0, t1, known_sites=known)
        traced = trace.enabled
        mark = trace.mark()
        lat: List[float] = []
        with trace.span("stream.replay"):
            for b in batches:
                t = time.perf_counter()
                with trace.span("stream.process"):
                    proc.process(b)
                lat.append(time.perf_counter() - t)
            t = time.perf_counter()
            with trace.span("stream.finish"):
                proc.finish()
            lat.append(time.perf_counter() - t)
        out.reps.extend(Rep(i, dt, traced) for i, dt in enumerate(lat))
        if traced:
            m = proc.metrics()
            out.layer_reps.append(Rep(0, sum(lat), traced, layers={
                "trace.coverage": coverage(trace.since(mark), "stream.replay"),
                "metastore.append_s": m.ingest_s,
                "metastore.append_events_per_s": m.n_events / m.ingest_s if m.ingest_s else 0.0,
                "stream.match_s": m.match_s,
                "stream.fold_s": m.fold_s,
                "stream.flush_ms": 1000.0 * lat[-1],
                "stream.batches": float(m.n_batches),
                "stream.events": float(m.n_events),
                "stream.late_events": float(m.n_late_events),
                **{f"match.{k}.jobs": float(v) for k, v in m.total_matched.items()},
            }))
        expected = SerialExecutor().execute(ds.source, [WindowPlan(t0, t1)], known_sites=known)[0]
        problem = check_stream(proc.report(), expected, ds.expected_matches)
        if problem:
            out.fail(f"stream: {problem}")

    run_cycles([lambda: out.guard("stream replay", run)], "stream", seconds, trace)
    return out


# -- serve --------------------------------------------------------------------


@dataclass
class _Request:
    """One request's schedule and outcome.  Only the response's flags
    are kept: holding the response would keep every memoized answer
    alive after ingests invalidate it."""

    at: float
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    cached: bool = False
    queued: float = 0.0
    error: bool = False


def ms_quantile(values: Sequence[float], q: float) -> float:
    return 1000.0 * quantile(values, q) if values else 0.0


def serve(seed: int, seconds: float, sizes: Sizes, trace: Trace) -> Outcome:
    """Open-loop Poisson traffic from 8 weighted tenants against one
    ``MatchService`` over a campaign store, while a writer thread
    ingests a small batch every half second.  Two thirds of the time
    run at the nominal rate, the rest at overload.  Set-up is the
    campaign's simulation and ingest."""
    out = Outcome("serve")

    def build():
        study = EightDayStudy(EightDayConfig(seed=seed, days=sizes.serve_days)).run()
        return study.source, study.harness.window, study.harness.known_site_names()

    with trace.span("serve.setup"):
        source, (t0, t1), known = timed_setup(out, build, SETUP_REPEATS)
    tenants = default_tenants(SERVE_TENANTS)
    service = MatchService(source, known_sites=known, tenants=tenants,
                           config=ServeConfig(max_workers=2, verify_every=SERVE_VERIFY_EVERY))
    warm = sizes.serve_warmup_s
    nominal = seconds * 2.0 / 3.0
    overload = seconds - nominal
    spec = LoadSpec.make(tenants, seed=seed, ramp=(
        (SERVE_NOMINAL_RPS, warm), (SERVE_NOMINAL_RPS, nominal), (SERVE_OVERLOAD_RPS, overload)))
    arrivals = Workload(spec, t0, t1).schedule()
    requests = [_Request(at=a.at) for a in arrivals]
    holds: List[float] = []
    rungs = {}

    async def drive() -> None:
        loop = asyncio.get_running_loop()
        stop = threading.Event()

        def writer() -> None:
            k = 0
            while not stop.wait(SERVE_INGEST_EVERY_S):
                jobs, files, transfers = synthetic_batch(
                    t0, t1, n=SERVE_INGEST_RECORDS, base_id=9_000_000 + k * 10_000)
                t = time.perf_counter()
                with trace.span("metastore.ingest"):
                    service.ingest(jobs=jobs, files=files, transfers=transfers)
                holds.append(time.perf_counter() - t)
                k += 1

        async def fire(arrival, req: _Request) -> None:
            req.sent = loop.time()
            try:
                response = await service.submit(arrival.tenant, arrival.query)
                req.ok, req.cached, req.queued = response.ok, response.cached, response.queued
            except Exception:
                req.error = True
                print(traceback.format_exc(), file=sys.stderr)
            req.done = loop.time()

        async def generate(inflight: set) -> None:
            """Send each request when it is due, whatever the service is
            doing.  A task exists only while its request is in flight,
            so the generator adds little to the heap the collector walks."""
            for arrival, req in zip(arrivals, requests):
                delay = req.due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                task = asyncio.ensure_future(fire(arrival, req))
                inflight.add(task)
                task.add_done_callback(inflight.discard)

        async with service:
            start = loop.time() + 0.05
            for req in requests:
                req.due = start + req.at
            thread = threading.Thread(target=writer, name="serve-writer")
            thread.start()
            inflight: set = set()
            try:
                sender = asyncio.ensure_future(generate(inflight))
                await asyncio.sleep(max(0.0, start + warm - loop.time()))
                rungs["start"] = time.perf_counter()
                await sender
                await asyncio.gather(*inflight)
            finally:
                stop.set()
                thread.join()

    mark = trace.mark()
    # Traced runs time each request's compute on the worker threads
    # (``serve.compute``) and the layer calls inside it.
    worker_calls = [
        (MatchService, "_compute", "serve.compute"),
        (service_mod, "build_report", "match.report"),
        (service_mod, "analyze_report", "analysis.report"),
        (WindowArtifacts, "materialize", "metastore.materialize"),
    ]
    with traced_calls(trace, worker_calls):
        asyncio.run(drive())

    nom = [r for r in requests if warm <= r.at < warm + nominal]
    over = [r for r in requests if r.at >= warm + nominal]
    measured = nom + over
    out.attempted = len(measured)
    for r in measured:
        if r.error:
            out.fail("serve: request raised")
    for r in nom:
        if not r.error and not r.ok:
            out.fail("serve: request shed at the nominal rate")
    for _ in range(service.verify_violations):
        out.fail("serve: served response differs from direct recompute")

    # Latency from each request's due time; a shed request never completes.
    lat = [r.done - r.due if r.ok else float("inf") for r in nom]
    out.override.update({
        "latency_ms": 1000.0 * quantile(lat, 0.5),
        "latency_p99_ms": 1000.0 * quantile(lat, 0.99),
    })
    if trace.enabled:
        # Only the measured rungs count; warm-up spans are dropped.
        spans = [s for s in trace.since(mark) if s.start >= rungs["start"]]
        fresh = [r.done - r.due for r in nom if r.ok and not r.cached]
        completed = [r for r in measured if r.ok]
        queued = [r.queued for r in nom if r.ok]
        cache = service.cache.stats
        out.layer_reps.append(Rep(0, seconds, True, layers={
            **span_seconds(spans, "serve"),
            # Share of the workers' request compute inside layer calls;
            # the rest is memo hits, lock and single-flight waits, and
            # verification's comparison.
            "trace.coverage": coverage(spans, "serve.compute"),
            "serve.ingest_ms": ms_quantile(holds, 0.5),
            # Answers within SERVE_GOOD_S of their due time, per second.
            "serve.goodput_rps": sum(1 for r in over if r.ok and r.done - r.due <= SERVE_GOOD_S)
            / overload,
            "serve.hit_rate": sum(1 for r in completed if r.cached) / len(completed)
            if completed else 0.0,
            "serve.shed_frac": sum(1 for r in over if not r.ok) / len(over) if over else 0.0,
            "serve.fresh": float(len(fresh)),
            "serve.fresh_p50_ms": ms_quantile(fresh, 0.5),
            "serve.fresh_p95_ms": ms_quantile(fresh, 0.95),
            "serve.queue_wait_p50_ms": ms_quantile(queued, 0.5),
            "serve.queue_wait_p99_ms": ms_quantile(queued, 0.99),
            "serve.gen_late_p99_ms": ms_quantile([r.sent - r.due for r in nom], 0.99),
            "serve.verify_samples": float(service.verify_samples),
            "exec.cache_hits": float(cache["hits"]),
            "exec.cache_misses": float(cache["misses"]),
        }))
    return out


WORKLOADS = {
    "campaign": campaign,
    "ladder": ladder,
    "stream": stream,
    "serve": serve,
}
