"""Network model.

Bandwidth between two sites is modelled as

``effective(t) = nominal * diurnal(t) * congestion(link, t) / share``

* ``nominal`` derives from the endpoint tiers (LAN speed for intra-site
  transfers, min of the WAN uplinks for remote ones), scaled down for
  inter-region distance and perturbed by a stable per-pair factor so the
  grid is heterogeneous.
* ``diurnal(t)`` is a smooth daily cycle (busy hours depress capacity).
* ``congestion(link, t)`` is a piecewise-constant stochastic factor,
  deterministic in ``(seed, link, time-bucket)``, with occasional deep
  drops — reproducing the short-interval fluctuation the paper measures
  in Figs 7-8 (10 → 130 MBps swings remote, 60 → 430 MBps local).
* ``share`` is the number of concurrently active transfers on the link;
  the transfer engine snapshots it at transfer start.

Evaluating bandwidth is a pure function of time, so transfer durations
can be integrated without a global bandwidth-recomputation event storm —
the dominant cost stays O(active transfers), per the HPC guides' advice
to keep hot paths simple and vectorisable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.grid.site import Site, UNKNOWN_SITE_NAME
from repro.grid.tier import TIER_LAN_BANDWIDTH, TIER_WAN_BANDWIDTH


@dataclass(frozen=True)
class LinkProfile:
    """Static parameters of a (source site, destination site) link."""

    src: str
    dst: str
    nominal_bandwidth: float  # bytes/s under ideal conditions
    latency: float  # seconds, fixed per-transfer overhead
    congestion_sigma: float  # spread of the lognormal congestion factor
    deep_drop_prob: float  # chance a bucket collapses to ~5-20% capacity
    diurnal_amplitude: float  # 0..1, depth of the daily cycle

    @property
    def is_local(self) -> bool:
        return self.src == self.dst


#: Bandwidth multiplier applied when endpoints sit in different regions.
CROSS_REGION_FACTOR = 0.55
#: Length of one congestion bucket (piecewise-constant period).
CONGESTION_BUCKET_SECONDS = 900.0
#: Hour of day at which the diurnal cycle bottoms out (busiest).
DIURNAL_PEAK_HOUR = 15.0


def _stable_u32(*parts: object) -> int:
    """Stable 32-bit hash of a tuple of printable parts (crc32-based)."""
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


class NetworkModel:
    """Derives link profiles and time-varying effective bandwidth.

    Parameters
    ----------
    sites:
        Mapping site name -> :class:`Site`.
    seed:
        Root seed; all congestion draws are deterministic in it.
    """

    def __init__(self, sites: Dict[str, Site], seed: int = 0) -> None:
        self.sites = sites
        self.seed = int(seed)
        self._profiles: Dict[Tuple[str, str], LinkProfile] = {}
        self._active: Dict[Tuple[str, str], int] = {}
        #: (src, dst, bucket) -> congestion factor
        self._congestion: Dict[Tuple[str, str, int], float] = {}

    # -- static link profile --------------------------------------------------

    def profile(self, src: str, dst: str) -> LinkProfile:
        """Link profile for the ordered pair, derived lazily and cached."""
        key = (src, dst)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached

        s = self.sites[src]
        d = self.sites[dst]
        if src == dst:
            nominal = TIER_LAN_BANDWIDTH[s.tier]
            latency = 0.2
            sigma = 0.55
            drop = 0.06
            diurnal = 0.25
        else:
            nominal = min(TIER_WAN_BANDWIDTH[s.tier], TIER_WAN_BANDWIDTH[d.tier])
            if s.region != d.region:
                nominal *= CROSS_REGION_FACTOR
            latency = 2.0 if s.region == d.region else 6.0
            sigma = 0.75
            drop = 0.10
            diurnal = 0.35

        # Stable per-pair heterogeneity in [0.5, 1.5); direction-dependent,
        # which produces the asymmetric A->B vs B->A usage of Fig 7a/7b.
        h = _stable_u32(self.seed, "pair", src, dst)
        nominal *= 0.5 + (h / 0xFFFFFFFF)

        prof = LinkProfile(
            src=src,
            dst=dst,
            nominal_bandwidth=nominal,
            latency=latency,
            congestion_sigma=sigma,
            deep_drop_prob=drop,
            diurnal_amplitude=diurnal,
        )
        self._profiles[key] = prof
        return prof

    # -- time-varying factors --------------------------------------------------

    def diurnal_factor(self, prof: LinkProfile, t: float) -> float:
        """Smooth daily cycle in [1 - amplitude, 1]."""
        hour = (t / 3600.0) % 24.0
        phase = 2.0 * np.pi * (hour - DIURNAL_PEAK_HOUR) / 24.0
        # cos(phase)=1 at the peak hour -> deepest depression.
        return 1.0 - prof.diurnal_amplitude * 0.5 * (1.0 + np.cos(phase))

    def congestion_factor(self, prof: LinkProfile, t: float) -> float:
        """Piecewise-constant stochastic factor, deterministic per bucket.

        A pure function of ``(seed, link, bucket)``: each bucket's draw
        seeds its own generator, so it is made once and memoized for
        the life of the model.
        """
        key = (prof.src, prof.dst, int(t // CONGESTION_BUCKET_SECONDS))
        factor = self._congestion.get(key)
        if factor is None:
            rng = np.random.default_rng(_stable_u32(self.seed, "cong", *key))
            if rng.random() < prof.deep_drop_prob:
                # Deep drop: the link collapses to 5-20% of capacity for
                # one bucket (the intermittent dips of Fig 8).
                factor = float(rng.uniform(0.05, 0.20))
            else:
                # Lognormal around 1 with the profile's spread, capped at
                # 1 so congestion never *adds* capacity.
                factor = min(1.0, float(rng.lognormal(0.0, prof.congestion_sigma)))
            self._congestion[key] = factor
        return factor

    def effective_bandwidth(self, src: str, dst: str, t: float, share: int = 1) -> float:
        """Per-transfer effective bandwidth on the link at time ``t``.

        ``share`` is the number of transfers splitting the link; the
        floor of 64 KB/s keeps durations finite under pathological
        congestion.
        """
        if UNKNOWN_SITE_NAME in (src, dst):
            # The UNKNOWN pseudo-site never carries real traffic; it only
            # appears in *records* after degradation.  If asked anyway,
            # answer with a modest default.
            return 10e6 / max(1, share)
        prof = self.profile(src, dst)
        bw = (
            prof.nominal_bandwidth
            * self.diurnal_factor(prof, t)
            * self.congestion_factor(prof, t)
            / max(1, share)
        )
        return max(64_000.0, bw)

    # -- active-transfer accounting ---------------------------------------------

    def acquire(self, src: str, dst: str) -> int:
        """Register an active transfer; returns the new share count."""
        key = (src, dst)
        self._active[key] = self._active.get(key, 0) + 1
        return self._active[key]

    def release(self, src: str, dst: str) -> None:
        key = (src, dst)
        n = self._active.get(key, 0)
        if n <= 0:
            raise RuntimeError(f"link {key} released with no active transfers")
        if n == 1:
            del self._active[key]
        else:
            self._active[key] = n - 1

    def active_on(self, src: str, dst: str) -> int:
        return self._active.get((src, dst), 0)

    def transfer_duration(self, src: str, dst: str, nbytes: float, t: float) -> float:
        """Estimate wall time to move ``nbytes`` starting at ``t``.

        Integrates the piecewise-constant effective bandwidth across
        congestion buckets, including the current share snapshot, so a
        transfer that straddles a deep drop genuinely slows down — the
        mechanism behind the 20x throughput spreads of Figs 10-11.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        share = self.active_on(src, dst) or 1
        prof = None if UNKNOWN_SITE_NAME in (src, dst) else self.profile(src, dst)
        latency = prof.latency if prof else 1.0
        remaining = float(nbytes)
        now = t
        elapsed = latency
        # Hard cap on integration steps; beyond it, finish at current rate.
        for _ in range(10_000):
            if remaining <= 0:
                break
            bw = self.effective_bandwidth(src, dst, now, share)
            bucket_end = (int(now // CONGESTION_BUCKET_SECONDS) + 1) * CONGESTION_BUCKET_SECONDS
            window = bucket_end - now
            can_move = bw * window
            if can_move >= remaining:
                elapsed += remaining / bw
                remaining = 0.0
            else:
                remaining -= can_move
                elapsed += window
                now = bucket_end
        else:  # pragma: no cover - pathological sizes only
            bw = self.effective_bandwidth(src, dst, now, share)
            elapsed += remaining / bw
        return elapsed
