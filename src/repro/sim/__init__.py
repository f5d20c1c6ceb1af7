"""Discrete-event simulation substrate.

A minimal but complete discrete-event kernel: a monotone simulation
clock, a binary-heap event queue with stable tie-breaking, and callback
and coroutine-style processes.  PanDA, Rucio, and the workload
generator are all built as processes over this kernel.
"""

from repro.sim.clock import SimClock
from repro.sim.engine import Engine, Event, StopSimulation

__all__ = [
    "SimClock",
    "Engine",
    "Event",
    "StopSimulation",
]
