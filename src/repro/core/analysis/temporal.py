"""Temporal imbalance analysis.

§3.2 observes that the WLCG moves data "with significant spatial and
temporal imbalance".  The spatial half is the Fig 3 matrix
(:mod:`repro.core.analysis.matrix`); this module quantifies the
temporal half: per-interval transfer volume series, peak-to-trough
ratios, busiest-hour concentration, and a temporal Gini coefficient —
plus the same measures for job submissions.  Both profiles bucket the
time columns of :class:`~repro.columnar.packs.WindowColumns`;
``tests/oracle.py`` holds the per-record loops the parity tests check
them against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.columnar.kernels import bucket_accumulate
from repro.columnar.packs import WindowColumns
from repro.core.anomaly.imbalance import gini_coefficient


@dataclass
class TemporalProfile:
    """Volume/count per uniform time bucket, with imbalance measures."""

    t0: float
    bucket_seconds: float
    volume: np.ndarray  # bytes (or counts) per bucket

    @property
    def n_buckets(self) -> int:
        return len(self.volume)

    @property
    def total(self) -> float:
        return float(self.volume.sum())

    def peak_to_mean(self) -> float:
        active = self.volume[self.volume > 0]
        if len(active) == 0:
            return 0.0
        return float(self.volume.max() / active.mean())

    def peak_to_trough(self) -> float:
        """Max over min across *active* buckets."""
        active = self.volume[self.volume > 0]
        if len(active) < 2:
            return 1.0
        return float(active.max() / active.min())

    def temporal_gini(self) -> float:
        return gini_coefficient(self.volume)

    def busiest_share(self, fraction: float = 0.1) -> float:
        """Share of total carried by the busiest ``fraction`` of buckets."""
        if self.total == 0:
            return 0.0
        k = max(1, int(np.ceil(fraction * len(self.volume))))
        top = np.sort(self.volume)[::-1][:k]
        return float(top.sum() / self.total)

    def hour_of_day_profile(self) -> np.ndarray:
        """Mean volume per hour-of-day (24 values) — the diurnal shape."""
        hours = ((self.t0 + np.arange(len(self.volume)) * self.bucket_seconds)
                 / 3600.0) % 24
        out = np.zeros(24)
        counts = np.zeros(24)
        for h, v in zip(hours.astype(int), self.volume):
            out[h] += v
            counts[h] += 1
        with np.errstate(invalid="ignore"):
            means = np.where(counts > 0, out / np.maximum(counts, 1), 0.0)
        return means


def transfer_volume_profile(
    columns: WindowColumns, t0: float, t1: float, bucket_seconds: float = 3600.0
) -> TemporalProfile:
    """Bytes whose transfer *started* in each bucket.

    One vectorized pass (``bucket_accumulate``): floor-divide each start
    time into its bucket and add the bytes in input order.
    """
    if t1 <= t0:
        raise ValueError("empty window")
    n = int(np.ceil((t1 - t0) / bucket_seconds))
    tp = columns.transfers
    volume = bucket_accumulate(tp.starttime, tp.size, t0, bucket_seconds, n)
    return TemporalProfile(t0=t0, bucket_seconds=bucket_seconds, volume=volume)


def submission_profile(
    columns: WindowColumns, t0: float, t1: float, bucket_seconds: float = 3600.0
) -> TemporalProfile:
    """Job submissions per bucket."""
    if t1 <= t0:
        raise ValueError("empty window")
    n = int(np.ceil((t1 - t0) / bucket_seconds))
    jp = columns.jobs
    counts = bucket_accumulate(
        jp.creation, np.ones(len(jp), dtype=np.float64), t0, bucket_seconds, n
    )
    return TemporalProfile(t0=t0, bucket_seconds=bucket_seconds, volume=counts)
