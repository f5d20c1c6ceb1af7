"""Tests for the closed co-optimization control loop.

Three load-bearing properties:

1. **Snapshot parity** — awareness state built *incrementally* from
   ``MatchDelta`` emissions (the ``site_awareness``/``link_awareness``
   folds) is bit-identical to the state *batch-computed* from the
   accumulated ``MatchResult``, at every micro-batch boundary, under
   any delivery order and batch size (hypothesis-driven).
2. **Decision determinism** — two control-loop runs at the same seed
   produce identical decision logs and identical end-state metrics;
   every stochastic choice draws from streams keyed by (seed, epoch).
3. **Steering mechanics** — re-brokerage legally moves READY jobs
   across sites (carrying stage-in accounting), dedup suppresses only
   ephemeral downloads, pre-staging pins datasets through the rule
   engine, and absorbed snapshots replace only observed cells.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coopt import (
    POLICY_LADDER,
    AwarenessSnapshot,
    ControlLoop,
    DecisionRecord,
    PerformanceAwareness,
    PolicySpec,
    get_policy,
    policy_names,
    register_policy,
    snapshot_from_result,
    snapshot_from_rows,
)
from repro.coopt.state import (
    link_rows_from_matches,
    site_rows_from_matches,
)
from repro.grid.presets import WlcgPresetConfig, build_mini
from repro.obs import Obs
from repro.panda.job import JobStatus
from repro.scenarios.runtime import HarnessConfig, SimulationHarness
from repro.stream import FoldSet, StreamingCollector, StreamProcessor
from repro.workload.generator import WorkloadConfig

METHOD = "rm2"


# -- shared material ---------------------------------------------------------------


@pytest.fixture(scope="module")
def live_harness() -> SimulationHarness:
    cfg = HarnessConfig(
        seed=13,
        workload=WorkloadConfig(
            duration=18 * 3600.0,
            analysis_tasks_per_hour=6.0,
            production_tasks_per_hour=0.5,
            background_transfers_per_hour=30.0,
        ),
        drain=10 * 3600.0,
    )
    harness = SimulationHarness(
        cfg, topology=build_mini(seed=13), collector_factory=StreamingCollector
    )
    harness.run()
    return harness


@pytest.fixture(scope="module")
def site_names(live_harness):
    return tuple(live_harness.topology.site_names())


def _congested_config(seed: int = 5) -> HarnessConfig:
    """Small overloaded grid: queues long enough that steering fires."""
    return HarnessConfig(
        seed=seed,
        workload=WorkloadConfig(
            duration=6 * 3600.0,
            analysis_tasks_per_hour=120.0,
            production_tasks_per_hour=0.2,
            background_transfers_per_hour=20.0,
        ),
        grid=WlcgPresetConfig(n_tier2=4, n_tier3=2, scale=0.08),
        drain=6 * 3600.0,
    )


def _congested_loop(policy: str = "full", seed: int = 5) -> ControlLoop:
    return ControlLoop(
        _congested_config(seed),
        policy,
        epoch_seconds=3600.0,
        rebroker_wait_threshold=600.0,
        prestage_min_demand=2,
    )


# -- incremental vs batch snapshot parity ------------------------------------------


def _incremental_snapshots(live_harness, site_names, events, batch_events, lateness):
    """Stream the events; cut an (incremental, batch) snapshot pair at
    every micro-batch boundary plus after finish()."""
    t0, t1 = live_harness.window
    proc = StreamProcessor(
        t0,
        t1,
        known_sites=live_harness.known_site_names(),
        lateness=lateness,
        folds=FoldSet.with_awareness(METHOD),
    )
    pairs = []

    def cut(epoch):
        inc = snapshot_from_rows(
            proc.folds["site_awareness"].rows(),
            proc.folds["link_awareness"].rows(),
            site_names,
            generation=epoch,
        )
        batch = snapshot_from_result(
            proc.results()[METHOD], site_names, generation=epoch
        )
        pairs.append((inc, batch))

    epoch = 0
    for i in range(0, len(events), batch_events):
        proc.process(events[i : i + batch_events])
        epoch += 1
        cut(epoch)
    proc.finish()
    cut(epoch + 1)
    return pairs


class TestSnapshotParity:
    def test_in_order_parity_every_epoch(self, live_harness, site_names):
        events = list(live_harness.collector.log)
        pairs = _incremental_snapshots(live_harness, site_names, events, 300, 0.0)
        assert len(pairs) > 3
        for inc, batch in pairs:
            assert inc.bit_identical(batch)
        final, _ = pairs[-1]
        assert int(final.n_jobs.sum()) > 0  # the property is not vacuous
        assert int(final.link_count.sum()) > 0

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        batch_events=st.integers(min_value=1, max_value=500),
        extra_lateness=st.floats(min_value=0.0, max_value=7200.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_shuffled_parity_every_epoch(
        self, live_harness, site_names, seed, batch_events, extra_lateness
    ):
        """THE property: whatever the delivery order, batch size, or
        lateness bound, incremental fold state and batch recomputation
        agree byte-for-byte at every epoch — both views derive from the
        same finalized matches, so parity holds even when insufficient
        lateness makes those matches incomplete."""
        events = list(live_harness.collector.log)
        random.Random(seed).shuffle(events)
        pairs = _incremental_snapshots(
            live_harness, site_names, events, batch_events, extra_lateness
        )
        for inc, batch in pairs:
            assert inc.bit_identical(batch)

    def test_rows_from_matches_respects_first_claim(self, live_harness, site_names):
        """Batch row extraction dedups transfers by row id, keeping the
        first claimant in (job seq, position) order, and filters failed
        and zero-duration transfers before claiming."""
        t0, t1 = live_harness.window
        proc = StreamProcessor(
            t0, t1, known_sites=live_harness.known_site_names(),
            folds=FoldSet.with_awareness(METHOD),
        )
        proc.run([list(live_harness.collector.log)])
        result = proc.results()[METHOD]
        link_rows = link_rows_from_matches(result.matches)
        for src, dst, thpt in link_rows:
            assert thpt > 0.0
        site_rows = site_rows_from_matches(result.matches)
        assert len(site_rows) == len(result.matches)

    def test_bit_identical_is_nan_safe(self, site_names):
        a = snapshot_from_rows([], [], site_names)
        b = snapshot_from_rows([], [], site_names)
        assert np.isnan(a.queue_wait).all()
        assert a.bit_identical(b)
        c = snapshot_from_rows([(site_names[0], 5.0, False)], [], site_names)
        assert not a.bit_identical(c)


# -- policy registry ---------------------------------------------------------------


class TestPolicyRegistry:
    def test_ladder_is_registered_and_cumulative(self):
        assert POLICY_LADDER == (
            "baseline", "aware", "aware+dedup", "aware+rebroker", "full",
        )
        specs = [get_policy(p) for p in POLICY_LADDER]
        # Each rung enables a superset of the features below it.
        feats = [
            (s.aware_broker, s.dedup, s.rebroker, s.prestage) for s in specs
        ]
        for lower, upper in zip(feats, feats[1:]):
            assert all(a <= b for a, b in zip(lower, upper))
        assert feats[0] == (False, False, False, False)
        assert feats[-1] == (True, True, True, True)

    def test_unknown_policy_raises_with_known_names(self):
        with pytest.raises(KeyError, match="baseline"):
            get_policy("nope")

    def test_register_custom_policy(self):
        spec = PolicySpec(name="test-only", aware_broker=True)
        register_policy(spec)
        try:
            assert get_policy("test-only") is spec
            assert "test-only" in policy_names()
        finally:
            from repro.coopt.policies import _POLICY_REGISTRY

            _POLICY_REGISTRY.pop("test-only", None)


# -- decision determinism ----------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_decision_log(self):
        r1 = _congested_loop().run()
        r2 = _congested_loop().run()
        assert len(r1.decisions) > 10  # steering actually fired
        assert {d.kind for d in r1.decisions} == {"rebroker", "prestage"}
        assert r1.decisions == r2.decisions
        assert r1.makespan == r2.makespan
        assert r1.transfer_volume == r2.transfer_volume
        assert r1.suppressed == r2.suppressed
        assert r1.row() == r2.row()

    def test_different_seed_different_decisions(self):
        r1 = _congested_loop(seed=5).run()
        r2 = _congested_loop(seed=6).run()
        assert r1.decisions != r2.decisions

    def test_decision_records_are_generation_keyed(self):
        res = _congested_loop().run()
        for d in res.decisions:
            assert isinstance(d, DecisionRecord)
            assert d.generation >= 1  # never keyed on the empty model
            assert d.epoch >= 0
        gens = [d.generation for d in res.decisions]
        assert gens == sorted(gens)

    def test_loop_runs_once(self):
        loop = _congested_loop()
        loop.run()
        with pytest.raises(RuntimeError):
            loop.run()


# -- control loop end-to-end -------------------------------------------------------


class TestControlLoop:
    @pytest.fixture(scope="class")
    def full_run(self):
        loop = _congested_loop()
        return loop, loop.run()

    def test_epochs_and_generations_advance(self, full_run):
        loop, res = full_run
        assert res.n_epochs > 3
        # one generation per epoch plus the final flush
        assert res.final_generation == res.n_epochs + 1
        gens = [s.generation for s in loop.snapshots]
        assert gens == list(range(1, res.final_generation + 1))

    def test_later_telemetry_reflects_decisions(self, full_run):
        """Closed loop: jobs re-brokered at epoch N must appear in the
        final telemetry at their *new* site — decisions feed forward."""
        loop, res = full_run
        moved = {int(d.subject): d.detail.split("->")[1]
                 for d in res.decisions if d.kind == "rebroker"}
        assert moved
        terminal = {j.pandaid: j for j in loop.harness.panda.terminal_jobs()}
        relocated = [p for p in moved if p in terminal]
        assert relocated
        for pandaid in relocated:
            assert terminal[pandaid].computing_site == moved[pandaid]

    def test_rebrokered_jobs_complete(self, full_run):
        loop, res = full_run
        moved_ids = {int(d.subject) for d in res.decisions if d.kind == "rebroker"}
        done = {j.pandaid for j in loop.harness.panda.terminal_jobs()}
        # nearly all moved jobs reach a terminal state within the drain;
        # stragglers must still sit in a legal live state (not lost)
        assert len(moved_ids & done) > len(moved_ids) * 0.8
        for pandaid in moved_ids - done:
            job = loop.harness.panda.jobs[pandaid]
            assert job.status in (
                JobStatus.ASSIGNED, JobStatus.READY, JobStatus.RUNNING,
            )

    def test_prestage_pins_datasets(self, full_run):
        loop, res = full_run
        staged = [d for d in res.decisions if d.kind == "prestage"]
        assert staged
        assert res.prestaged == len(staged)
        assert len(loop._prestaged) >= len(staged)

    def test_baseline_policy_never_steers(self):
        res = _congested_loop("baseline").run()
        assert res.decisions == []
        assert res.suppressed == 0
        # ... but the observation half still runs
        assert res.final_generation == res.n_epochs + 1

    def test_baseline_rung_is_the_plain_campaign(self):
        """The baseline rung is the locality-only campaign: the same
        degraded telemetry as a plain harness on the same config, and
        no events beyond one per control-loop epoch."""
        cfg = HarnessConfig(
            seed=11,
            workload=WorkloadConfig(
                duration=0.25 * 86400.0,
                analysis_tasks_per_hour=8.0,
                production_tasks_per_hour=1.0,
                background_transfers_per_hour=60.0,
            ),
        )
        loop = ControlLoop(cfg, "baseline")
        res = loop.run()
        plain = SimulationHarness(cfg).run()

        def rows(harness):
            tele = harness.telemetry()
            return [repr(r) for part in (tele.jobs, tele.files, tele.transfers) for r in part]

        assert rows(loop.harness) == rows(plain)
        assert loop.harness.engine.events_executed == (
            plain.engine.events_executed + res.n_epochs)

    def test_obs_records_spans_and_counters(self):
        obs = Obs.collecting()
        cfg = _congested_config()
        ControlLoop(cfg, "full", epoch_seconds=3600.0,
                    rebroker_wait_threshold=600.0, prestage_min_demand=2,
                    obs=obs).run()
        cats = {s.cat for s in obs.tracer.spans}
        assert "coopt" in cats
        names = {s.name for s in obs.tracer.spans}
        assert {"coopt.loop", "coopt.epoch"} <= names
        snap = obs.metrics.snapshot()
        gauge_names = {g["name"] for g in snap["gauges"]}
        counter_names = {c["name"] for c in snap["counters"]}
        assert "coopt.awareness_staleness" in gauge_names
        assert "coopt.decisions" in counter_names
        kinds = {
            c["labels"].get("kind")
            for c in snap["counters"]
            if c["name"] == "coopt.decisions"
        }
        assert {"rebroker", "prestage", "suppress"} <= kinds


# -- steering mechanics ------------------------------------------------------------


class TestRebrokerMechanics:
    def test_steal_ready_takes_newest_analysis_job(self):
        harness = SimulationHarness(_congested_config())
        # run long enough that some site has a ready backlog
        harness.generator.prime()
        harness.engine.run(until=4 * 3600.0)
        sites = sorted(
            harness.panda.harvesters.values(),
            key=lambda h: h.ready_backlog,
            reverse=True,
        )
        h = sites[0]
        if h.ready_backlog == 0:
            pytest.skip("no backlog at this seed")
        before = h.ready_backlog
        job = h.steal_ready()
        assert job is not None
        assert job.status is JobStatus.READY
        assert h.ready_backlog == before - 1
        h.readopt(job)
        assert h.ready_backlog in (before, before - 1)  # may have started

    def test_ready_to_assigned_transition_is_legal(self):
        from repro.panda.job import DataAccessMode, Job, JobKind

        job = Job(
            pandaid=1, jeditaskid=1, kind=JobKind.ANALYSIS,
            access_mode=DataAccessMode.COPY_TO_SCRATCH, input_dataset=None,
            input_file_dids=[], ninputfilebytes=0, noutputfilebytes=0,
            creation_time=0.0,
        )
        job.transition(JobStatus.ASSIGNED)
        job.transition(JobStatus.READY)
        job.transition(JobStatus.ASSIGNED)  # re-brokerage path
        job.transition(JobStatus.READY)
        job.transition(JobStatus.RUNNING)


class TestAbsorb:
    def test_absorb_replaces_only_observed_cells(self, site_names):
        mini = build_mini(seed=1)
        aw = PerformanceAwareness(mini)
        names = aw.site_names
        rows = [(names[0], 200.0, False), (names[0], 400.0, False)]
        snap = snapshot_from_rows(rows, [], names, generation=7, as_of=3600.0)
        aw.absorb(snap)
        assert aw.generation == 7
        assert aw.as_of == 3600.0
        # observed site got the fold mean; unobserved keeps the prior
        assert aw.expected_queue_wait(names[0]) > 0
        idx0 = aw.site_index(names[0])
        assert float(aw._queue_value[idx0]) == 300.0
        for other in names[1:]:
            assert np.isnan(aw._queue_value[aw.site_index(other)])

    def test_absorb_rejects_mismatched_sites(self):
        aw = PerformanceAwareness(build_mini(seed=1))
        snap = snapshot_from_rows([], [], ("X", "Y"))
        with pytest.raises(ValueError):
            aw.absorb(snap)

    def test_snapshot_is_immutable_record(self, site_names):
        snap = snapshot_from_rows([], [], site_names, generation=3)
        assert isinstance(snap, AwarenessSnapshot)
        with pytest.raises(AttributeError):
            snap.generation = 4
