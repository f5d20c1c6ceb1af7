"""The simulator's hot path against its references in ``tests/oracle.py``.

Four cuts make each simulated event cheaper without changing one bit
of what is simulated: the congestion factor is memoized per
``(link, bucket)``, the replica selector evaluates bandwidth only to
break ties among the candidates of best locality, the event heap holds
``(time, seq, event)`` tuples, and ``pick_weighted`` decays popularity
in one in-place pass.  Each unit test checks one cut against the
algorithm it replaced; the whole-world test runs short campaigns with
and without the references patched in and compares the degraded
telemetry byte for byte.
"""

from __future__ import annotations

import hashlib
import random
import types

import numpy as np
import pytest

from repro.grid.incidents import Incident, IncidentAwareNetwork
from repro.grid.network import CONGESTION_BUCKET_SECONDS, NetworkModel
from repro.grid.presets import build_mini, build_wlcg
from repro.grid.rse import RseKind, rse_name
from repro.rucio.did import DID
from repro.rucio.popularity import PopularityTracker
from repro.rucio.replica import ReplicaRegistry, ReplicaState
from repro.rucio.selector import ReplicaSelector
from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.sim.engine import Engine, Event

from tests import oracle

# -- congestion memo -------------------------------------------------------------


def _queries(topo, seed: int, n: int = 400):
    """Random (src, dst, t) triples: some links and buckets repeat, and
    some times share a bucket; then the list again, shuffled."""
    rng = random.Random(seed)
    names = [s.name for s in topo.real_sites()]
    links = [(rng.choice(names), rng.choice(names)) for _ in range(12)]
    out = []
    for _ in range(n):
        src, dst = rng.choice(links)
        bucket = rng.randrange(40)
        t = bucket * CONGESTION_BUCKET_SECONDS + rng.uniform(0.0, CONGESTION_BUCKET_SECONDS)
        out.append((src, dst, t))
    again = list(out)
    rng.shuffle(again)
    return out + again


def _with_oracle_congestion(network: NetworkModel) -> NetworkModel:
    network.congestion_factor = types.MethodType(oracle.congestion_factor, network)
    return network


def _hook_incidents(network: NetworkModel, topo) -> IncidentAwareNetwork:
    hook = IncidentAwareNetwork(network)
    names = [s.name for s in topo.real_sites()]
    for k, site in enumerate(names[::2]):
        start = (3 + 5 * k) * CONGESTION_BUCKET_SECONDS
        hook.add(Incident(site, start, start + 4000.0, "network", 0.1 + 0.1 * (k % 5)))
    return hook


class TestCongestionMemo:
    @pytest.mark.parametrize("seed", [0, 7, 2025])
    def test_memo_returns_the_fresh_draw(self, seed):
        topo = build_mini(seed=seed)
        net = topo.network
        for src, dst, t in _queries(topo, seed):
            prof = net.profile(src, dst)
            assert net.congestion_factor(prof, t) == oracle.congestion_factor(net, prof, t)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_effective_bandwidth_matches_with_and_without_incidents(self, seed):
        topo, ref_topo = build_mini(seed=seed), build_mini(seed=seed)
        net, ref = topo.network, _with_oracle_congestion(ref_topo.network)
        queries = _queries(topo, seed)
        for share, (src, dst, t) in enumerate(queries):
            share = 1 + share % 4
            assert net.effective_bandwidth(src, dst, t, share) == ref.effective_bandwidth(
                src, dst, t, share
            )
        _hook_incidents(net, topo)
        _hook_incidents(ref, ref_topo)
        slowed = 0
        for src, dst, t in queries:
            got = net.effective_bandwidth(src, dst, t)
            assert got == ref.effective_bandwidth(src, dst, t)
            slowed += got < NetworkModel.effective_bandwidth(net, src, dst, t)
            prof = net.profile(src, dst)
            assert net.congestion_factor(prof, t) == oracle.congestion_factor(net, prof, t)
        assert slowed > 0  # the incidents did bite

    def test_transfer_durations_match(self):
        topo, ref_topo = build_mini(seed=5), build_mini(seed=5)
        net, ref = topo.network, _with_oracle_congestion(ref_topo.network)
        for src, dst, t in _queries(topo, 5, n=100):
            nbytes = 1e9 + 1e7 * (t % 997)
            assert net.transfer_duration(src, dst, nbytes, t) == ref.transfer_duration(
                src, dst, nbytes, t
            )


# -- replica selector ------------------------------------------------------------


def _replica_world(seed: int, n_files: int = 60):
    """The WLCG preset with each file on random RSEs of 1-6 random
    sites, some replicas still copying.  Every locality class sees
    ties; two disks of one site tie exactly on bandwidth."""
    topo = build_wlcg(seed=seed)
    replicas = ReplicaRegistry(topo)
    rng = random.Random(seed)
    sites = [s.name for s in topo.real_sites()]
    files = []
    for k in range(n_files):
        fd = DID("user.t", f"f{k}")
        for site in rng.sample(sites, rng.randint(1, 6)):
            kinds = [RseKind.DATADISK, RseKind.SCRATCHDISK, RseKind.TAPE]
            for kind in rng.sample(kinds, rng.randint(1, 3)):
                name = rse_name(site, kind)
                if name in topo.rses:
                    state = (ReplicaState.AVAILABLE if rng.random() < 0.85
                             else ReplicaState.COPYING)
                    replicas.add(fd, name, 10**6, state=state)
        files.append(fd)
    return topo, replicas, files


def _selector_queries(topo, replicas, files, seed: int):
    rng = random.Random(seed)
    sites = [s.name for s in topo.real_sites()]
    for fd in files:
        held = sorted(r.rse_name for r in replicas.replicas_of(fd))
        for _ in range(6):
            exclude = None
            if rng.random() < 0.4:
                exclude = set(rng.sample(held, rng.randint(0, len(held))))
            yield fd, rng.choice(sites), rng.uniform(0.0, 2 * 86400.0), exclude


def _n_best(topo, replicas, fd, dest, exclude) -> int:
    """How many transferable candidates share the best locality."""
    region = topo.site(dest).region
    locs = []
    for r in replicas.available_replicas_of(fd):
        rse = topo.rse(r.rse_name)
        if rse.kind.is_tape or (exclude and r.rse_name in exclude):
            continue
        site = rse.site_name
        locs.append(2 if site == dest else int(topo.site(site).region == region))
    return locs.count(max(locs)) if locs else 0


class TestSelectorTiesOnly:
    @pytest.mark.parametrize("seed", [1, 2025])
    @pytest.mark.parametrize("incidents", [False, True])
    def test_choose_is_the_locality_bandwidth_argmax(self, seed, incidents):
        topo, replicas, files = _replica_world(seed)
        if incidents:
            _hook_incidents(topo.network, topo)
        sel = ReplicaSelector(topo, replicas)
        ties = unique = 0
        for fd, dest, now, exclude in _selector_queries(topo, replicas, files, seed):
            want = oracle.choose(sel, fd, dest, now, exclude)
            assert sel.choose(fd, dest, now, exclude) == want
            n_best = _n_best(topo, replicas, fd, dest, exclude)
            ties += n_best > 1
            unique += n_best == 1
        assert ties > 50 and unique > 50

    def test_bandwidth_only_for_ties(self):
        topo, replicas, files = _replica_world(4)
        calls = []
        real = topo.network.effective_bandwidth
        topo.network.effective_bandwidth = lambda *a: calls.append(a) or real(*a)
        sel = ReplicaSelector(topo, replicas)
        for fd, dest, now, exclude in _selector_queries(topo, replicas, files, 4):
            n_best = _n_best(topo, replicas, fd, dest, exclude)
            del calls[:]
            sel.choose(fd, dest, now, exclude)
            assert len(calls) == (n_best if n_best > 1 else 0)

    def test_exact_tie_keeps_the_first_candidate(self):
        topo, replicas, _ = _replica_world(9, n_files=0)
        fd = DID("user.t", "tied")
        replicas.add(fd, rse_name("CERN-PROD", RseKind.SCRATCHDISK), 10**6)
        replicas.add(fd, rse_name("CERN-PROD", RseKind.DATADISK), 10**6)
        sel = ReplicaSelector(topo, replicas)
        choice = sel.choose(fd, "CERN-PROD", 0.0)
        assert choice == oracle.choose(sel, fd, "CERN-PROD", 0.0)
        assert choice.source_rse == rse_name("CERN-PROD", RseKind.SCRATCHDISK)
        assert [c.source_rse for c in sel.rank(fd, "CERN-PROD", 0.0)] == [
            rse_name("CERN-PROD", RseKind.SCRATCHDISK),
            rse_name("CERN-PROD", RseKind.DATADISK),
        ]


# -- popularity ------------------------------------------------------------------


def _entry_state(tracker: PopularityTracker):
    return [(d, e.score, e.last_update) for d, e in tracker._entries.items()]


class TestPopularityOnePass:
    @pytest.mark.parametrize("seed,half_life", [(0, 2 * 86400.0), (5, 600.0), (9, 3.0)])
    def test_picks_and_entry_state_match_the_score_scan(self, seed, half_life):
        tracker = PopularityTracker(half_life=half_life)
        ref = PopularityTracker(half_life=half_life)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = random.Random(seed)
        datasets = [DID("data", f"ds{k}") for k in range(300)]
        fallback = datasets[:5]
        now = 0.0
        picks = 0
        for _ in range(2000):
            # Mostly forward in time, sometimes the same instant, now
            # and then a step back (a decay with dt <= 0 is a no-op).
            now += draw.choice([0.0, draw.expovariate(1 / 60.0), -5.0])
            if draw.random() < 0.6:
                d, w = draw.choice(datasets), draw.choice([1.0, 0.5, 3.0, 1e-300])
                tracker.record_access(d, now, weight=w)
                ref.record_access(d, now, weight=w)
            else:
                fb = fallback if draw.random() < 0.5 else None
                got = tracker.pick_weighted(now, rng, fallback=fb)
                assert got == oracle.pick_weighted(ref, now, ref_rng, fallback=fb)
                assert _entry_state(tracker) == _entry_state(ref)
                picks += 1
        assert picks > 500

    def test_empty_and_underflowed_trackers_fall_back(self):
        fallback = [DID("data", "a"), DID("data", "b")]
        for tracker, ref in [(PopularityTracker(), PopularityTracker()),
                             (PopularityTracker(half_life=1.0), PopularityTracker(half_life=1.0))]:
            tracker.record_access(fallback[0], 0.0)
            ref.record_access(fallback[0], 0.0)
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            for now in (0.0, 5.0, 1e5):  # with half_life=1, 1e5 s decays the score to 0
                got = tracker.pick_weighted(now, rng, fallback=fallback)
                assert got == oracle.pick_weighted(ref, now, ref_rng, fallback=fallback)
                assert _entry_state(tracker) == _entry_state(ref)
            assert tracker.pick_weighted(2e5, rng) == oracle.pick_weighted(ref, 2e5, ref_rng)


# -- event heap ------------------------------------------------------------------


class TestTupleHeap:
    def test_pops_in_time_then_seq_order(self):
        engine = Engine()
        rng = random.Random(17)
        popped = []
        scheduled = []
        for k in range(3000):
            t = float(rng.randrange(50)) + rng.choice([0.0, 0.25])
            ev = engine.schedule_at(t, lambda k=k: popped.append(k), label=f"e{k}")
            scheduled.append((t, ev.seq, k))
            if rng.random() < 0.1:
                ev.cancel()
                scheduled.pop()
        assert engine.pending() == len(scheduled)
        engine.run()
        assert popped == [k for _, _, k in sorted(scheduled)]

    def test_events_are_not_ordered(self):
        a = Event(time=1.0, seq=0, callback=lambda: None)
        b = Event(time=2.0, seq=1, callback=lambda: None)
        with pytest.raises(TypeError):
            a < b  # noqa: B015 - the heap orders (time, seq) keys, never events


# -- the whole world -------------------------------------------------------------


def _world(seed: int, days: float):
    study = EightDayStudy(EightDayConfig(seed=seed, days=days)).run()
    tele = study.telemetry
    h = hashlib.sha256()
    for part in (tele.jobs, tele.files, tele.transfers):
        for item in part:
            h.update(repr(item).encode())
            h.update(b"\n")
    return h.hexdigest(), study.harness.engine.events_executed


@pytest.mark.parametrize("seed,days", [(7, 0.15), (2025, 0.25)])
def test_world_is_bit_identical_to_the_references(seed, days, monkeypatch):
    digest, events = _world(seed, days)
    assert events > 1000
    # The pre-memo congestion draw, the every-candidate selector and
    # the score() scan, back in the simulator.
    monkeypatch.setattr(NetworkModel, "congestion_factor", oracle.congestion_factor)
    monkeypatch.setattr(ReplicaSelector, "choose", oracle.choose)
    monkeypatch.setattr(PopularityTracker, "pick_weighted", oracle.pick_weighted)
    assert _world(seed, days) == (digest, events)
