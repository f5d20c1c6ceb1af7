"""Shared performance awareness.

The dynamic system information §3.1 says is missing: "The critical
challenge … is to acquire sufficient dynamic system information to
guide both data placement and job allocation decisions in real time."
This class is that information bus: both PanDA (brokerage) and Rucio
(source selection, policies) read the same live estimates.

State is structure-of-arrays indexed by topology site order (one float
per site, one ``n × n`` matrix per link quantity), so the broker's
candidate scoring is a handful of vectorized kernel calls
(:mod:`repro.coopt.state`) instead of per-site dict probes.  Two feeds
update it:

* **backlog** — :meth:`note_backlog`, the live PanDA queue state the
  broker maintains as it assigns and finishes jobs;
* **fold snapshots** — :meth:`absorb` installs a generation-keyed
  :class:`~repro.coopt.state.AwarenessSnapshot` cut from the streaming
  matcher's awareness folds as the historical layer, which is how the
  closed control loop (:mod:`repro.coopt.loop`) learns from *matched
  telemetry* rather than from ground truth it would not have.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coopt.state import (
    DEFAULT_FAILURE_RATE,
    MIN_STAGING_THROUGHPUT,
    AwarenessSnapshot,
    queue_wait_kernel,
)
from repro.grid.topology import GridTopology


class PerformanceAwareness:
    """Live cross-system state: queue pressure, throughput, failures."""

    def __init__(self, topology: GridTopology) -> None:
        self.topology = topology
        self.site_names = tuple(topology.site_names())
        self._index = {name: i for i, name in enumerate(self.site_names)}
        n = len(self.site_names)
        #: observed queuing time per site (value / sample count)
        self._queue_value = np.full(n, np.nan)
        self._queue_n = np.zeros(n, dtype=np.int64)
        #: observed failure rate per site
        self._fail_value = np.full(n, np.nan)
        self._fail_n = np.zeros(n, dtype=np.int64)
        #: ready-but-not-running backlog per site, maintained by callers
        self._backlog = np.zeros(n, dtype=np.int64)
        #: observed per-transfer throughput per directed site pair (bytes/s)
        self._link_value = np.full((n, n), np.nan)
        self._link_n = np.zeros((n, n), dtype=np.int64)
        #: lazily filled topology prior: nominal bandwidth × 0.5
        self._link_prior = np.full((n, n), np.nan)
        #: version of the last absorbed fold snapshot (0 = none yet)
        self.generation = 0
        #: simulation time the last snapshot was cut at
        self.as_of = 0.0

    # -- index helpers -----------------------------------------------------------

    def site_index(self, name: str) -> Optional[int]:
        return self._index.get(name)

    # -- live queue state --------------------------------------------------------

    def note_backlog(self, site: str, delta: int) -> None:
        i = self._index.get(site)
        if i is None:
            return
        self._backlog[i] = max(0, int(self._backlog[i]) + int(delta))

    # -- fold snapshots ----------------------------------------------------------

    def absorb(self, snapshot: AwarenessSnapshot) -> None:
        """Install a fold snapshot as the historical layer.

        Observed cells (count > 0) replace the per-site/per-link history
        wholesale — the snapshot *is* the accumulated matched evidence,
        so blending it with itself each epoch would double-count.
        Unobserved cells keep what earlier snapshots installed.  Backlog
        is untouched: it is live PanDA queue state, not telemetry.
        """
        if snapshot.site_names != self.site_names:
            raise ValueError("snapshot site order does not match topology")
        qmask = snapshot.n_jobs > 0
        wmask = qmask & ~np.isnan(snapshot.queue_wait)
        self._queue_value[wmask] = snapshot.queue_wait[wmask]
        self._queue_n[wmask] = snapshot.n_jobs[wmask]
        self._fail_value[qmask] = snapshot.failure_rate[qmask]
        self._fail_n[qmask] = snapshot.n_jobs[qmask]
        lmask = snapshot.link_count > 0
        self._link_value[lmask] = snapshot.link_throughput[lmask]
        self._link_n[lmask] = snapshot.link_count[lmask]
        self.generation = snapshot.generation
        self.as_of = snapshot.as_of

    # -- vectorized accessors ------------------------------------------------------

    def queue_wait_vector(self, idx: np.ndarray) -> np.ndarray:
        """Expected queue wait for the given site indices."""
        running = np.array(
            [self.topology.site(self.site_names[i]).running_jobs for i in idx],
            dtype=np.float64,
        )
        slots = np.array(
            [self.topology.site(self.site_names[i]).compute_slots for i in idx],
            dtype=np.float64,
        )
        return queue_wait_kernel(
            self._queue_value[idx],
            self._queue_n[idx],
            self._backlog[idx].astype(np.float64),
            running,
            slots,
        )

    def failure_vector(self, idx: np.ndarray) -> np.ndarray:
        return np.where(
            self._fail_n[idx] > 0, self._fail_value[idx], DEFAULT_FAILURE_RATE
        )

    def link_matrix(self, src_idx: Sequence[int], dst_idx: Sequence[int]) -> np.ndarray:
        """Throughput estimates for every (source, destination) pair.

        Returns a ``(len(src_idx), len(dst_idx))`` array; cells without
        observed history fall back to the topology prior (nominal
        bandwidth × 0.5), filled lazily and cached.
        """
        src = np.asarray(src_idx, dtype=np.int64)
        dst = np.asarray(dst_idx, dtype=np.int64)
        network = self.topology.network
        assert network is not None
        for i in src:
            for j in dst:
                if np.isnan(self._link_prior[i, j]):
                    self._link_prior[i, j] = (
                        network.profile(
                            self.site_names[i], self.site_names[j]
                        ).nominal_bandwidth
                        * 0.5
                    )
        observed = self._link_value[np.ix_(src, dst)]
        counts = self._link_n[np.ix_(src, dst)]
        return np.where(counts > 0, observed, self._link_prior[np.ix_(src, dst)])

    # -- scalar estimates (original static-sketch API) ----------------------------

    def link_throughput(self, src: str, dst: str) -> float:
        """Expected per-transfer throughput, with a topology-based prior."""
        i, j = self._index[src], self._index[dst]
        return float(self.link_matrix([i], [j])[0, 0])

    def expected_queue_wait(self, site_name: str) -> float:
        """Expected queue wait from occupancy, backlog, and history."""
        i = self._index[site_name]
        return float(self.queue_wait_vector(np.array([i], dtype=np.int64))[0])

    def failure_rate(self, site_name: str) -> float:
        i = self._index[site_name]
        return float(self.failure_vector(np.array([i], dtype=np.int64))[0])

    def estimate_staging_seconds(self, src: str, dst: str, nbytes: float) -> float:
        if nbytes <= 0:
            return 0.0
        return nbytes / max(MIN_STAGING_THROUGHPUT, self.link_throughput(src, dst))
