"""Shared fixtures.

The expensive fixtures (a completed small campaign and its matching
report) are session-scoped: integration-level tests across many files
reuse one simulation instead of re-running it per test.
"""

from __future__ import annotations

import pytest

from repro.columnar import ColumnarIndex
from repro.scenarios.eightday import EightDayConfig, EightDayStudy
from repro.scenarios.runtime import HarnessConfig, SimulationHarness
from repro.workload.generator import WorkloadConfig


@pytest.fixture(autouse=True)
def _reset_index_build_counts():
    """Zero the join-build counter before every test.

    Cache-hit assertions (e.g. in ``tests/test_exec.py``) count builds
    via this process-wide class counter; without the reset their
    baseline depends on which tests ran earlier in the session.
    """
    ColumnarIndex.build_count = 0
    yield


@pytest.fixture(scope="session")
def small_study() -> EightDayStudy:
    """A 1.5-day campaign, enough for every analysis to have material."""
    cfg = EightDayConfig(
        seed=424242,
        days=1.5,
        analysis_tasks_per_hour=8.0,
        production_tasks_per_hour=1.0,
        background_transfers_per_hour=120.0,
    )
    return EightDayStudy(cfg).run()


@pytest.fixture(scope="session")
def small_report(small_study):
    return small_study.matching_report()


@pytest.fixture(scope="session")
def small_telemetry(small_study):
    return small_study.telemetry


@pytest.fixture()
def tiny_harness() -> SimulationHarness:
    """A very small, fast harness for per-test simulations (unrun)."""
    from repro.grid.presets import build_mini

    cfg = HarnessConfig(
        seed=7,
        workload=WorkloadConfig(
            duration=6 * 3600.0,
            analysis_tasks_per_hour=3.0,
            production_tasks_per_hour=0.5,
            background_transfers_per_hour=20.0,
        ),
        drain=6 * 3600.0,
    )
    return SimulationHarness(cfg, topology=build_mini(seed=7))
