"""Declarative window plans — the "what" of the plan/execute split.

Rucio scales by separating declarative intent (rules) from daemon-driven
execution; this package applies the same split to the §4.2 analysis
workflow.  A :class:`WindowPlan` *describes* one pre-selection — the
time window and the job population — without touching the metastore.
Materialization (`repro.exec.artifacts`) and scheduling
(`repro.exec.executor`) consume plans; because plans are small frozen
values they hash, pickle, and dedupe cheaply, which is what makes the
artifact cache and process fan-out work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True, order=True)
class WindowPlan:
    """One pre-selection, declaratively: [t0, t1) over a job population."""

    t0: float
    t1: float
    user_jobs_only: bool = True

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ValueError(f"window ends before it starts: [{self.t0}, {self.t1})")

    @property
    def length(self) -> float:
        return self.t1 - self.t0

    @property
    def window(self) -> Tuple[float, float]:
        return (self.t0, self.t1)

    def key(self, generation: int) -> Tuple[int, float, float, bool]:
        """Cache key: the source's data generation, then the plan."""
        return (generation, self.t0, self.t1, self.user_jobs_only)


def growing_plans(
    t0: float,
    t1: float,
    n_points: int = 6,
    user_jobs_only: bool = True,
) -> List[WindowPlan]:
    """Plans anchored at ``t0`` growing to the full window (§4.2 curve)."""
    if n_points < 2:
        raise ValueError("need at least two points")
    return [
        WindowPlan(t0, t0 + (t1 - t0) * k / n_points, user_jobs_only)
        for k in range(1, n_points + 1)
    ]


def sliding_plans(
    t0: float,
    t1: float,
    window_length: float,
    step: Optional[float] = None,
    user_jobs_only: bool = True,
) -> List[WindowPlan]:
    """Fixed-length plans sliding across [t0, t1]."""
    if window_length <= 0:
        raise ValueError("window_length must be positive")
    step = step or window_length
    out: List[WindowPlan] = []
    start = t0
    while start + window_length <= t1 + 1e-9:
        out.append(WindowPlan(start, start + window_length, user_jobs_only))
        start += step
    return out
