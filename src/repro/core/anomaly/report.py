"""Aggregated anomaly report.

One call produces everything §5 diagnoses by hand: redundant transfers,
staging anomalies, under-utilization findings, imbalance statistics,
and site inferences — with summary counts suitable for monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.analysis.matrix import TransferMatrix
from repro.core.anomaly.imbalance import ImbalanceStats, assess_imbalance
from repro.core.anomaly.inference import SiteInference, infer_unknown_sites
from repro.core.anomaly.redundant import RedundantGroup, find_redundant_transfers, total_wasted_bytes
from repro.core.anomaly.staging import StagingAnomaly, find_staging_anomalies
from repro.core.anomaly.underutil import (
    UnderutilizationFinding,
    find_underutilization,
    total_headroom_seconds,
)
from repro.core.matching.base import JobMatch
from repro.telemetry.records import TransferRecord
from repro.units import bytes_to_human, seconds_to_human


@dataclass
class AnomalyReport:
    redundant: List[RedundantGroup] = field(default_factory=list)
    staging: List[StagingAnomaly] = field(default_factory=list)
    underutilization: List[UnderutilizationFinding] = field(default_factory=list)
    imbalance: Optional[ImbalanceStats] = None
    inferences: List[SiteInference] = field(default_factory=list)

    @property
    def wasted_bytes(self) -> int:
        return total_wasted_bytes(self.redundant)

    @property
    def recoverable_queue_seconds(self) -> float:
        return total_headroom_seconds(self.underutilization)

    def summary_lines(self) -> List[str]:
        lines = [
            f"redundant transfer groups : {len(self.redundant)} "
            f"(wasted {bytes_to_human(self.wasted_bytes)})",
            f"staging anomalies         : {len(self.staging)}",
            f"under-utilized jobs       : {len(self.underutilization)} "
            f"(headroom {seconds_to_human(self.recoverable_queue_seconds)})",
            f"site inferences recovered : {len(self.inferences)}",
        ]
        if self.imbalance is not None:
            lines.append(
                f"imbalance                 : mean/geomean "
                f"{self.imbalance.mean_to_geomean:.1f}x, gini {self.imbalance.gini:.2f}, "
                f"local {self.imbalance.local_fraction:.0%}"
            )
        return lines

    def __str__(self) -> str:
        return "\n".join(self.summary_lines())


def build_anomaly_report(
    matches: Sequence[JobMatch],
    transfers: Sequence[TransferRecord],
    matrix: Optional[TransferMatrix] = None,
) -> AnomalyReport:
    """Run every detector over one window's matches and records.

    Imbalance statistics are computed only when ``matrix`` is given.
    """
    return AnomalyReport(
        redundant=find_redundant_transfers(transfers),
        staging=find_staging_anomalies(matches),
        underutilization=find_underutilization(matches),
        imbalance=assess_imbalance(matrix) if matrix is not None else None,
        inferences=infer_unknown_sites(matches, transfers),
    )
