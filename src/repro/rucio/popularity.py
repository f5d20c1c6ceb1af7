"""Dataset popularity tracking.

Rucio's rebalancing decisions weigh how often data is accessed; the
paper's co-optimization discussion (§7) likewise needs demand signals
shared between the systems.  The tracker keeps exponentially-decayed
access counts per dataset and exposes the rankings both the background
rebalancer and a placement policy can consult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.rucio.did import DID


@dataclass
class _Entry:
    score: float
    last_update: float


class PopularityTracker:
    """Exponentially-decayed per-dataset access scores.

    ``half_life`` controls how quickly old accesses stop mattering;
    scores are lazily decayed at read/update time, so tracking cost is
    O(1) per access regardless of dataset count.
    """

    def __init__(self, half_life: float = 2 * 86400.0) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.half_life = float(half_life)
        self._entries: Dict[DID, _Entry] = {}
        self.total_accesses = 0

    def _decay(self, entry: _Entry, now: float) -> None:
        dt = now - entry.last_update
        if dt > 0:
            entry.score *= math.exp(-math.log(2.0) * dt / self.half_life)
            entry.last_update = now

    def record_access(self, dataset: DID, now: float, weight: float = 1.0) -> None:
        """One access (job brokered against / files read from the dataset)."""
        self.total_accesses += 1
        entry = self._entries.get(dataset)
        if entry is None:
            self._entries[dataset] = _Entry(score=weight, last_update=now)
            return
        self._decay(entry, now)
        entry.score += weight

    def score(self, dataset: DID, now: float) -> float:
        entry = self._entries.get(dataset)
        if entry is None:
            return 0.0
        self._decay(entry, now)
        return entry.score

    def top(self, now: float, n: int = 10) -> List[Tuple[DID, float]]:
        scored = [(d, self.score(d, now)) for d in list(self._entries)]
        scored.sort(key=lambda kv: (-kv[1], str(kv[0])))
        return scored[:n]

    def pick_weighted(
        self, now: float, rng, fallback: Optional[List[DID]] = None
    ) -> Optional[DID]:
        """Sample a dataset proportionally to popularity (for
        demand-driven rebalancing); uniform over ``fallback`` when
        nothing has been accessed yet."""
        # One pass: decay each entry in place exactly as _decay does.
        items = []
        neg_ln2, half_life = -math.log(2.0), self.half_life
        for d, entry in self._entries.items():
            dt = now - entry.last_update
            if dt > 0:
                entry.score *= math.exp(neg_ln2 * dt / half_life)
                entry.last_update = now
            if entry.score > 0:
                items.append((d, entry.score))
        if not items:
            if fallback:
                return fallback[int(rng.integers(len(fallback)))]
            return None
        total = sum(s for _, s in items)
        x = float(rng.random()) * total
        acc = 0.0
        for d, s in items:
            acc += s
            if x <= acc:
                return d
        return items[-1][0]

    def __len__(self) -> int:
        return len(self._entries)
