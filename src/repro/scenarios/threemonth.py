"""The three-month transfer-matrix study (§3.2, Fig 3).

The paper's Fig 3 aggregates 92 days of site-to-site transfer volume
(957.98 PB total, 737.85 PB local, with Tier-0/1 outliers above 30 PB
and a 42.4 PB CERN→UNKNOWN cell).  We run a campaign over a
(configurable, default shorter) window and build the same matrix from
*degraded* records — the UNKNOWN row/column appears exactly the way it
does in production, via mislabelled endpoints.  The matrix reads the
study's :class:`~repro.metastore.packsource.PackSource` columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.metastore.packsource import PackSource
from repro.scenarios.runtime import HarnessConfig, SimulationHarness
from repro.telemetry.degradation import DegradationConfig, DegradedTelemetry
from repro.workload.generator import WorkloadConfig


@dataclass
class ThreeMonthConfig:
    """Scale knobs.  ``days`` defaults below 92 to keep runs fast; the
    matrix's structure (local dominance, tier outliers, heavy tail) is
    already stable after a few simulated days."""

    seed: int = 92
    days: float = 6.0
    analysis_tasks_per_hour: float = 6.0
    production_tasks_per_hour: float = 1.5
    background_transfers_per_hour: float = 260.0
    degradation: DegradationConfig = field(default_factory=DegradationConfig)

    def harness_config(self) -> HarnessConfig:
        wl = WorkloadConfig(
            duration=self.days * 86400.0,
            analysis_tasks_per_hour=self.analysis_tasks_per_hour,
            production_tasks_per_hour=self.production_tasks_per_hour,
            background_transfers_per_hour=self.background_transfers_per_hour,
        )
        return HarnessConfig(seed=self.seed, workload=wl, degradation=self.degradation)


class ThreeMonthStudy:
    """Simulate the campaign and expose the degraded transfer population."""

    def __init__(self, config: Optional[ThreeMonthConfig] = None) -> None:
        self.config = config or ThreeMonthConfig()
        self.harness = SimulationHarness(self.config.harness_config())
        self._source: Optional[PackSource] = None

    def run(self) -> "ThreeMonthStudy":
        self.harness.run()
        return self

    @property
    def telemetry(self) -> DegradedTelemetry:
        return self.harness.telemetry()

    @property
    def source(self) -> PackSource:
        """The degraded telemetry in the metastore, lowered once."""
        if self._source is None:
            tele = self.telemetry
            self._source = PackSource.from_records(tele.jobs, tele.files, tele.transfers)
        return self._source

    def site_names(self) -> list[str]:
        return self.harness.topology.site_names()
