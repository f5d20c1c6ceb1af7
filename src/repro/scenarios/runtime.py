"""Simulation harness: one object wiring every subsystem together.

The composition mirrors Fig 1's architecture: PanDA (server, brokerage,
Harvester, pilots) on one side, Rucio (catalog, replicas, rules,
transfer service) on the other, the network underneath, telemetry
collection alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.grid.presets import WlcgPresetConfig, build_wlcg
from repro.grid.topology import GridTopology
from repro.ids import IdFactory
from repro.panda.brokerage import Broker, DataLocalityBroker
from repro.panda.errors import FailureModel
from repro.panda.server import PandaServer
from repro.rng import RngRegistry
from repro.rucio.catalog import DidCatalog
from repro.rucio.client import RucioClient
from repro.rucio.fts import TransferService
from repro.idds.delivery import DeliveryService
from repro.rucio.reaper import Reaper
from repro.rucio.replica import ReplicaRegistry
from repro.rucio.rules import RuleEngine
from repro.rucio.tape import TapeSystem
from repro.sim.engine import Engine
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.degradation import DegradationConfig, DegradedTelemetry, MetadataDegrader
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


@dataclass
class HarnessConfig:
    """Everything needed to assemble and run one simulation."""

    seed: int = 0
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    degradation: DegradationConfig = field(default_factory=DegradationConfig)
    grid: Optional[WlcgPresetConfig] = None
    #: extra settle time after the last arrival so in-flight jobs finish
    drain: float = 86400.0
    link_capacity: int = 12
    transfer_failure_rate: float = 0.015
    #: model tape recalls for tape-resident production inputs
    enable_tape: bool = True
    #: run periodic unprotected-replica deletion sweeps
    enable_reaper: bool = False
    #: automatic re-attempts for failed analysis jobs (0 = off, the
    #: calibrated default; retries add same-task candidate pollution)
    retry_limit: int = 0


class SimulationHarness:
    """Assembled simulation; build → run → degrade → analyse."""

    def __init__(self, config: HarnessConfig, topology: Optional[GridTopology] = None,
                 broker: Optional[Broker] = None,
                 collector_factory: Optional[Callable[[DidCatalog], TelemetryCollector]] = None) -> None:
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.engine = Engine()
        self.topology = topology or build_wlcg(config.grid, seed=config.seed)
        self.ids = IdFactory()
        self.catalog = DidCatalog()
        self.replicas = ReplicaRegistry(self.topology)
        # A custom factory lets live consumers tap the sinks as events
        # happen — e.g. repro.stream's StreamingCollector appending to
        # an event log — while inheriting all collector behavior.
        self.collector = (
            collector_factory(self.catalog)
            if collector_factory is not None
            else TelemetryCollector(self.catalog)
        )
        self.fts = TransferService(
            self.engine,
            self.topology,
            self.replicas,
            self.ids,
            self.collector.on_transfer,
            self.rngs.get("fts"),
            link_capacity=config.link_capacity,
            failure_rate=config.transfer_failure_rate,
        )
        self.tape = (
            TapeSystem(
                self.engine,
                self.topology,
                self.replicas,
                self.ids,
                self.collector.on_transfer,
                self.rngs.get("tape"),
            )
            if config.enable_tape
            else None
        )
        self.rules = RuleEngine(
            self.topology, self.catalog, self.replicas, self.fts, self.ids, tape=self.tape
        )
        self.rucio = RucioClient(
            self.topology, self.catalog, self.replicas, self.fts, self.rules, self.ids
        )
        self.reaper = (
            Reaper(self.engine, self.topology, self.replicas, self.rules)
            if config.enable_reaper
            else None
        )
        self.delivery = DeliveryService(self.engine, self.replicas)
        self.broker = broker or DataLocalityBroker(
            self.topology, self.rucio, self.rngs.get("broker")
        )
        self.panda = PandaServer(
            self.engine,
            self.topology,
            self.rucio,
            self.broker,
            self.rngs.get("panda"),
            failure_model=FailureModel(),
            retry_limit=config.retry_limit,
            ids=self.ids,
        )
        self.panda.on_job_done(self.collector.on_job_done)
        self.generator = WorkloadGenerator(
            self.engine,
            self.topology,
            self.rucio,
            self.rules,
            self.panda,
            self.ids,
            self.rngs.get("workload"),
            config.workload,
            delivery=self.delivery,
        )
        self._ran = False
        self._telemetry: Optional[DegradedTelemetry] = None

    # -- lifecycle -------------------------------------------------------------

    def run(self) -> "SimulationHarness":
        """Prime the workload and run the campaign plus drain time."""
        if self._ran:
            raise RuntimeError("harness already ran")
        if self.reaper is not None:
            self.reaper.start()
        self.generator.prime()
        horizon = self.config.workload.duration + self.config.drain
        self.engine.run(until=horizon)
        self._ran = True
        return self

    @property
    def window(self) -> tuple[float, float]:
        """The study window: the campaign duration plus drain.

        Jobs completing during the drain are inside the window, matching
        §4.2's requirement that the selected period cover end-to-end job
        lifetimes.
        """
        return (0.0, self.config.workload.duration + self.config.drain)

    def telemetry(self) -> DegradedTelemetry:
        """Degraded records for the whole run (cached)."""
        if not self._ran:
            raise RuntimeError("run() the harness before extracting telemetry")
        if self._telemetry is None:
            degrader = MetadataDegrader(self.config.degradation, self.rngs.get("degradation"))
            self._telemetry = degrader.degrade(self.collector, self.panda.tasks)
        return self._telemetry

    def known_site_names(self) -> set[str]:
        return {s.name for s in self.topology.real_sites()}
