"""Bandwidth usage over time (Figs 7-8).

The paper plots, per site-pair (remote) or per site (local), the
"accumulated bandwidth usage of matched transfers" over consecutive
time buckets.  Each transfer's bytes are spread uniformly across its
[start, end] interval and accumulated into the buckets it overlaps —
an exact discretisation of the instantaneous aggregate rate, computed
vectorised over bucket arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.telemetry.records import TransferRecord
from repro.units import MB


@dataclass
class BandwidthSeries:
    """Aggregate throughput per bucket for one link/site selection."""

    label: str
    bucket_seconds: float
    t0: float
    #: bytes moved per bucket (len = n buckets)
    bytes_per_bucket: np.ndarray

    @cached_property
    def mbps(self) -> np.ndarray:
        """Per-bucket mean rate in the paper's MBps.

        Cached: ``peak_mbps``/``mean_mbps``/``active_buckets``/
        ``fluctuation`` all derive from it, and each used to redo the
        division over the whole series on every access.
        """
        return self.bytes_per_bucket / self.bucket_seconds / MB

    @property
    def peak_mbps(self) -> float:
        return float(self.mbps.max()) if len(self.bytes_per_bucket) else 0.0

    @property
    def mean_mbps(self) -> float:
        return float(self.mbps.mean()) if len(self.bytes_per_bucket) else 0.0

    def active_buckets(self) -> np.ndarray:
        return self.mbps[self.mbps > 0]

    @property
    def fluctuation(self) -> float:
        """Coefficient of variation over active buckets — the paper's
        "fluctuate noticeably even within relatively short intervals"."""
        act = self.active_buckets()
        if len(act) < 2 or act.mean() == 0:
            return 0.0
        return float(act.std() / act.mean())

    def times(self) -> np.ndarray:
        """Bucket start times (absolute)."""
        return self.t0 + np.arange(len(self.bytes_per_bucket)) * self.bucket_seconds


def bandwidth_series(
    transfers: Sequence[TransferRecord],
    t0: float,
    t1: float,
    bucket_seconds: float = 300.0,
    label: str = "",
) -> BandwidthSeries:
    """Accumulate the transfers' bytes into uniform buckets over [t0, t1)."""
    if t1 <= t0:
        raise ValueError("empty window")
    n = int(np.ceil((t1 - t0) / bucket_seconds))
    buckets = np.zeros(n)
    for t in transfers:
        dur = t.endtime - t.starttime
        if dur <= 1e-9:
            # Instantaneous (or sub-nanosecond: the byte rate would
            # overflow) bookkeeping event: drop all bytes in one bucket.
            k = int((t.starttime - t0) // bucket_seconds)
            if 0 <= k < n:
                buckets[k] += t.file_size
            continue
        rate = t.file_size / dur
        first = max(0, int((t.starttime - t0) // bucket_seconds))
        last = min(n - 1, int((t.endtime - t0) // bucket_seconds))
        for k in range(first, last + 1):
            lo = max(t.starttime, t0 + k * bucket_seconds)
            hi = min(t.endtime, t0 + (k + 1) * bucket_seconds)
            if hi > lo:
                buckets[k] += rate * (hi - lo)
    return BandwidthSeries(
        label=label, bucket_seconds=bucket_seconds, t0=t0, bytes_per_bucket=buckets
    )


def busiest_links(
    transfers: Sequence[TransferRecord],
    kind: str = "remote",
    top: int = 6,
) -> List[Tuple[Tuple[str, str], int]]:
    """The ``top`` most active (src, dst) pairs by transfer count.

    ``kind`` is ``"remote"`` (src != dst, both known) or ``"local"``
    (src == dst) — the selections behind Figs 7 and 8 respectively.
    """
    counts: Dict[Tuple[str, str], int] = {}
    for t in transfers:
        if t.has_unknown_site:
            continue
        is_local = t.source_site == t.destination_site
        if (kind == "local") != is_local:
            continue
        key = (t.source_site, t.destination_site)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]


def link_transfers(
    transfers: Sequence[TransferRecord], src: str, dst: str
) -> List[TransferRecord]:
    return [t for t in transfers if t.source_site == src and t.destination_site == dst]


def directional_asymmetry(
    transfers: Sequence[TransferRecord], a: str, b: str, t0: float, t1: float,
    bucket_seconds: float = 300.0,
) -> Tuple[BandwidthSeries, BandwidthSeries]:
    """Fig 7a/7b: the two directions of one site pair, for comparing
    peak usage asymmetry."""
    fwd = bandwidth_series(link_transfers(transfers, a, b), t0, t1, bucket_seconds, f"{a}->{b}")
    rev = bandwidth_series(link_transfers(transfers, b, a), t0, t1, bucket_seconds, f"{b}->{a}")
    return fwd, rev
