"""Cross-tenant result memoization, generation-keyed and single-flight.

Dashboard traffic is dominated by a small set of hot (window, matcher,
analysis) queries asked over and over by many tenants.  The service
memoizes *served results* — one level above the
:class:`~repro.exec.artifacts.ArtifactCache`, which memoizes window
materializations — so a repeated query costs a dictionary lookup
instead of a matching run.

Two properties carry the correctness story:

* **Generation keying.**  Every key starts with the source generation.
  A flight starts and computes under the service's read lock, so an
  entry keyed by generation g holds a result computed entirely at g;
  an ``ingest_batch`` bumps the generation, so stale entries can never
  be *looked up* again, and they are evicted eagerly on the first miss
  of a newer generation (same rule as the artifact cache).
* **Single flight.**  Concurrent identical queries — the common case
  when eight tenants watch one dashboard — share one computation: the
  first caller computes while the rest wait on its future and then
  reuse the result object.  Failures are never cached; the leader's
  exception propagates to every waiter and the key is released for
  retry.

Two entry points share the entries.  :meth:`ResultMemo.lookup` is the
service's front door: it returns the entry's future, finished or in
flight, and never starts a computation, so the event loop can answer a
hit or await a flight without taking a worker.
:meth:`ResultMemo.get_or_compute` is the worker's: it leads a new
flight on a miss, or blocks on an existing one (a request that missed
at the front door and found its key computed while it queued).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Optional, Tuple

from repro.obs import get_obs


class ResultMemo:
    """LRU map of query key → served result, safe for many threads."""

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
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
        value came from the memo (including joining another caller's
        in-flight computation).  ``key[0]`` must be the source
        generation.
        """
        obs = get_obs()
        with self._lock:
            flight = self._hit(key, obs)
            leader = flight is None
            if leader:
                self.misses += 1
                if obs.enabled:
                    obs.metrics.counter("serve.memo", event="miss").inc()
                stale = [k for k in self._entries if k[0] != key[0]]
                for k in stale:
                    del self._entries[k]
                self._note_evictions(obs, len(stale))
                flight = Future()
                self._entries[key] = flight
                while len(self._entries) > self.max_entries:
                    dropped_key, dropped = next(iter(self._entries.items()))
                    if dropped is flight:  # never evict our own flight
                        break
                    del self._entries[dropped_key]
                    self._note_evictions(obs, 1)

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
            if obs.enabled:
                obs.metrics.counter("serve.memo", event="hit").inc()
        return flight

    def _note_evictions(self, obs, n: int) -> None:
        if n:
            self.evictions += n
            if obs.enabled:
                obs.metrics.counter("serve.memo", event="evict").inc(n)

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
