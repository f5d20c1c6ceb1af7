"""Replica source selection.

Implements step (2) of the Rucio transfer workflow (§2.2): choose the
best source replica for a transfer "based on protocol, throughput, and
network performance metrics".  Preference order: a replica already at
the destination site (local copy between RSEs), then same-region
sources, then the source with the highest current effective bandwidth
to the destination.  Bandwidth only breaks ties between candidates of
the best locality, so it is evaluated only when such a tie exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.grid.topology import GridTopology
from repro.rucio.did import DID
from repro.rucio.replica import ReplicaRegistry


@dataclass(frozen=True)
class SourceChoice:
    """The selector's verdict for one file transfer."""

    source_rse: str
    source_site: str


class ReplicaSelector:
    """Scores candidate source replicas for a destination site."""

    def __init__(self, topology: GridTopology, replicas: ReplicaRegistry) -> None:
        self.topology = topology
        self.replicas = replicas

    def choose(
        self,
        file_did: DID,
        dest_site: str,
        now: float,
        exclude_rses: Optional[set[str]] = None,
    ) -> Optional[SourceChoice]:
        """Best source for moving ``file_did`` toward ``dest_site``.

        Returns None when no available replica exists anywhere (the
        caller decides whether that is an error or a wait).
        """
        candidates = self.replicas.available_replicas_of(file_did)
        # Tape copies are not directly transferable: they must be staged
        # to a disk buffer first (see repro.rucio.tape).
        candidates = [
            r for r in candidates if not self.topology.rse(r.rse_name).kind.is_tape
        ]
        if exclude_rses:
            candidates = [r for r in candidates if r.rse_name not in exclude_rses]
        if not candidates:
            return None

        # Rank by locality: 2 = at the destination site, 1 = same region.
        dest_region = self.topology.site(dest_site).region
        best_locality = -1
        best: List[Tuple[str, str]] = []  # (rse, site) of the best locality
        for rep in candidates:
            src_site = self.topology.rse(rep.rse_name).site_name
            if src_site == dest_site:
                locality = 2
            elif self.topology.site(src_site).region == dest_region:
                locality = 1
            else:
                locality = 0
            if locality > best_locality:
                best_locality, best = locality, [(rep.rse_name, src_site)]
            elif locality == best_locality:
                best.append((rep.rse_name, src_site))

        rse, site = best[0]
        if len(best) > 1:
            # A tie: the first candidate with the highest bandwidth wins.
            network = self.topology.network
            assert network is not None
            best_bw = -1.0
            for cand_rse, cand_site in best:
                bw = network.effective_bandwidth(cand_site, dest_site, now)
                if bw > best_bw:
                    rse, site, best_bw = cand_rse, cand_site, bw
        return SourceChoice(source_rse=rse, source_site=site)

    def rank(self, file_did: DID, dest_site: str, now: float) -> List[SourceChoice]:
        """All candidate sources, best first (diagnostics / co-optimization)."""
        out: List[SourceChoice] = []
        excluded: set[str] = set()
        while True:
            choice = self.choose(file_did, dest_site, now, exclude_rses=excluded)
            if choice is None:
                return out
            out.append(choice)
            excluded.add(choice.source_rse)
