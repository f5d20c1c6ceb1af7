"""The one generation-keyed, single-flight LRU of the dataplane.

Window materializations (:class:`~repro.exec.artifacts.ArtifactCache`),
the process pool's whole-window reports
(:func:`~repro.exec.executor.worker_report`) and the serving layer's
answers (``MatchService.memo``) are all :class:`GenerationCache`\\ s:

* **Generation keying.**  ``key[0]`` is the store generation, so an
  ``ingest_batch`` (which bumps it) makes every older entry
  unreachable, and the first miss of the newer generation evicts them.
* **Single flight.**  Concurrent callers of one key share one
  computation: the first computes, the rest wait on its future and
  reuse the result object.  A failure reaches every waiter and is
  never cached, so the next caller retries.
* **LRU bound.**  At most ``max_entries`` keys; a new flight never
  evicts itself.

Flights nest in one order only — an analysis, then its match report,
then the window's artifacts — and materializing a window calls no
cache, so a joiner never waits on its own flight.
:meth:`GenerationCache.lookup` returns an entry's future without ever
starting a flight, which lets the serving event loop answer a hit or
await a flight without taking a worker.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Optional, Tuple

from repro.obs import get_obs


class GenerationCache:
    """LRU map of generation-led key → value, safe for many threads.

    ``counter`` names the obs counter the instance's ``hit``, ``miss``
    and ``evict`` events are counted under (``artifact.cache``,
    ``serve.memo``, ...).
    """

    def __init__(self, counter: str, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.counter = counter
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, Future]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: tuple) -> Optional[Future]:
        """The entry for ``key`` — finished or in flight — or None.

        A found entry counts as a hit and moves to the LRU's young end;
        a missing one counts nothing and starts no flight (the caller
        computes through :meth:`get_or_compute`, which counts it).
        """
        obs = get_obs()
        with self._lock:
            return self._hit(key, obs)

    def get_or_compute(self, key: tuple, compute: Callable[[], object]) -> Tuple[object, bool]:
        """The memoized value for ``key``, computing it on first use.

        Returns ``(value, cached)`` where ``cached`` is True when the
        value came from the cache (including joining another caller's
        in-flight computation).  ``key[0]`` must be the store
        generation.
        """
        obs = get_obs()
        with self._lock:
            flight = self._hit(key, obs)
            leader = flight is None
            if leader:
                self.misses += 1
                self._count(obs, "miss")
                stale = [k for k in self._entries if k[0] != key[0]]
                for k in stale:
                    del self._entries[k]
                self._evicted(obs, len(stale))
                flight = Future()
                self._entries[key] = flight
                while len(self._entries) > self.max_entries:
                    dropped_key, dropped = next(iter(self._entries.items()))
                    if dropped is flight:  # never evict our own flight
                        break
                    del self._entries[dropped_key]
                    self._evicted(obs, 1)

        if not leader:
            return flight.result(), True

        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                if self._entries.get(key) is flight:
                    del self._entries[key]
            flight.set_exception(exc)
            raise
        flight.set_result(value)
        return value, False

    def _hit(self, key: tuple, obs) -> Optional[Future]:
        """The entry for ``key``, counted as a hit; call under the lock."""
        flight = self._entries.get(key)
        if flight is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            self._count(obs, "hit")
        return flight

    def _evicted(self, obs, n: int) -> None:
        if n:
            self.evictions += n
            self._count(obs, "evict", n)

    def _count(self, obs, event: str, n: int = 1) -> None:
        if obs.enabled:
            obs.metrics.counter(self.counter, event=event).inc(n)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }
