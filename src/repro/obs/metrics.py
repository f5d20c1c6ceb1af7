"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the scalar half of the observability
layer: where spans record *when* something ran, metrics record *how
often* and *how big* — id queries per store collection, artifact
cache hits/misses/evictions, kernel rows processed, watermark lag.

Instruments are keyed by ``(name, labels)`` so one registry holds e.g.
the ``collection=jobs`` and ``collection=transfers`` counters of the
store's window queries side by side.  A disabled
registry hands out shared no-op instruments, so call sites need no
conditionals.  ``snapshot()`` freezes everything into a deterministic,
JSON-ready dict (sorted by name then labels).

The registry and every instrument are thread-safe: the serving layer
(:mod:`repro.serve`) updates tenant counters and latency histograms
from a pool of worker threads, and a lost ``+=`` under contention would
silently corrupt shed-rate and hit-rate accounting.  Counters and
gauges share one registry-wide lock with instrument creation;
histograms take it around their three-field update so ``counts``,
``count``, and ``sum`` can never be observed torn.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

#: Default latency bucket edges, in seconds.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0
)

#: Default result-size bucket edges (hit counts, row counts).
SIZE_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Fixed-edge histogram with count and sum.

    ``edges`` are upper bounds: an observation ``v`` lands in the first
    bucket whose edge satisfies ``v <= edge`` (``bisect_left``, so a
    value exactly on an edge counts *in* that edge's bucket); values
    above the last edge land in the overflow bucket.
    """

    __slots__ = ("edges", "counts", "count", "sum", "_lock")

    def __init__(self, edges: Sequence[float]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("histogram edges must be non-empty and sorted")
        self.edges = tuple(float(e) for e in edges)
        self.counts = [0] * (len(self.edges) + 1)  # +1: overflow
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.edges, value)] += 1
            self.count += 1
            self.sum += value

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper edge of the bucket
        the ``q``-th observation falls in; ``inf`` for the overflow)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            total, counts = self.count, list(self.counts)
        if total == 0:
            return float("nan")
        rank = q * (total - 1)
        seen = 0
        for i, c in enumerate(counts):
            seen += c
            if seen > rank:
                return self.edges[i] if i < len(self.edges) else float("inf")
        return float("inf")


class _NoopInstrument:
    """Shared sink for disabled registries — accepts every call."""

    __slots__ = ()
    value = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NOOP_INSTRUMENT = _NoopInstrument()

_LabelKey = Tuple[Tuple[str, str], ...]


class MetricsRegistry:
    """Labelled instruments, created on first use."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, _LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, _LabelKey], Histogram] = {}

    @staticmethod
    def _key(name: str, labels: dict) -> Tuple[str, _LabelKey]:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    def counter(self, name: str, **labels):
        if not self.enabled:
            return NOOP_INSTRUMENT
        key = self._key(name, labels)
        inst = self._counters.get(key)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(key, Counter())
        return inst

    def gauge(self, name: str, **labels):
        if not self.enabled:
            return NOOP_INSTRUMENT
        key = self._key(name, labels)
        inst = self._gauges.get(key)
        if inst is None:
            with self._lock:
                inst = self._gauges.setdefault(key, Gauge())
        return inst

    def histogram(self, name: str, edges: Optional[Sequence[float]] = None, **labels):
        if not self.enabled:
            return NOOP_INSTRUMENT
        key = self._key(name, labels)
        inst = self._histograms.get(key)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(
                    key, Histogram(edges if edges is not None else LATENCY_BUCKETS)
                )
        return inst

    # -- export ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything observed so far, as a flat JSON-ready dict."""

        def rows(table, render):
            return [
                {"name": name, "labels": dict(labels), **render(inst)}
                for (name, labels), inst in sorted(table.items())
            ]

        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": rows(counters, lambda c: {"value": c.value}),
            "gauges": rows(gauges, lambda g: {"value": g.value}),
            "histograms": rows(
                histograms,
                lambda h: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "count": h.count,
                    "sum": h.sum,
                },
            ),
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)
