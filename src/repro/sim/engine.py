"""Discrete-event engine.

The engine owns a binary heap of ``(time, seq, event)`` entries.  Each
event carries a callback; running the engine pops events in (time,
sequence) order, advances the shared clock, and invokes the callback.
Sequence numbers are unique, so they make ordering stable for
simultaneous events (FIFO among equals), which keeps seeded runs
bit-reproducible, and the heap never compares two events.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.sim.clock import SimClock


class StopSimulation(Exception):
    """Raised by a callback to end the run immediately."""


@dataclass
class Event:
    """A scheduled callback.

    The engine's heap orders events by ``(time, seq)``.  ``cancelled``
    events are popped and skipped rather than removed, the standard
    lazy-deletion idiom for heap schedulers.
    """

    time: float
    seq: int
    callback: Callable[[], Any]
    label: str = ""
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class Engine:
    """Event loop: schedule callbacks, run until exhaustion or a horizon."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self._heap: list[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.events_executed = 0

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule_at(self, t: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``t`` (>= now)."""
        if t < self.clock.now:
            raise ValueError(f"cannot schedule in the past: {t} < {self.clock.now}")
        seq = next(self._seq)
        ev = Event(time=t, seq=seq, callback=callback, label=label)
        heapq.heappush(self._heap, (t, seq, ev))
        return ev

    def schedule_in(self, delay: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.clock.now + delay, callback, label)

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        while self._heap:
            ev = heapq.heappop(self._heap)[2]
            if ev.cancelled:
                continue
            self.clock.advance_to(ev.time)
            self.events_executed += 1
            ev.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue empties, ``until`` is reached, or a budget hits.

        Events scheduled exactly at ``until`` are executed; the clock
        finishes at ``until`` when a horizon is given (so that duration
        accounting for still-open intervals is well-defined).
        """
        executed = 0
        try:
            while True:
                nxt = self.peek_time()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                self.step()
                executed += 1
        except StopSimulation:
            pass
        if until is not None and self.clock.now < until:
            self.clock.advance_to(until)

    def pending(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)
