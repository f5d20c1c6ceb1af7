"""Per-site operational dashboards.

Aggregates everything an operator needs per site — job throughput and
failure rates, queuing statistics, inbound/outbound traffic, and error
composition — from one window's column packs.  This is the
"site view" that turns the paper's global diagnoses (hot spots,
imbalance, shifted error patterns) into actionable per-site facts.
``tests/oracle.py`` holds the per-record loop the parity tests check
it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.columnar.kernels import group_boundaries
from repro.columnar.packs import WindowColumns
from repro.core.analysis.errors import ErrorFamily, ErrorMix, grouped_error_mixes
from repro.telemetry.records import UNKNOWN_SITE


@dataclass
class SiteDashboard:
    """One site's operational summary."""

    site: str
    n_jobs: int = 0
    n_failed: int = 0
    queue_times: List[float] = field(default_factory=list)
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    bytes_local: float = 0.0
    error_mix: ErrorMix = field(
        default_factory=lambda: ErrorMix(0, 0, {}, {}))

    @property
    def failure_rate(self) -> float:
        return self.n_failed / self.n_jobs if self.n_jobs else 0.0

    @property
    def mean_queue(self) -> float:
        return float(np.mean(self.queue_times)) if self.queue_times else 0.0

    @property
    def p95_queue(self) -> float:
        return float(np.percentile(self.queue_times, 95)) if self.queue_times else 0.0

    @property
    def net_flow(self) -> float:
        """Positive = net importer of data."""
        return self.bytes_in - self.bytes_out

    @property
    def dominant_error_family(self) -> ErrorFamily:
        return self.error_mix.dominant_family()


def build_dashboards(columns: WindowColumns) -> Dict[str, SiteDashboard]:
    """Per-site dashboards over one window's packs; returns site -> dashboard.

    The counts, byte totals and error mixes are bincounts over site
    codes and the job pack's status and error-code columns.  Sites
    appear in first-appearance order: jobs first, then each transfer's
    source before its destination.  That insertion order decides ties
    in :func:`hottest_sites` and :meth:`ErrorMix.dominant_family`.
    """
    jp, tp, it = columns.jobs, columns.transfers, columns.interner
    # Canonical site codes: the empty label folds into UNKNOWN (a
    # record's ``site or UNKNOWN_SITE``).  When UNKNOWN itself was
    # never interned, a synthetic code one past the vocabulary stands
    # in for it.
    unk = it.code_of(UNKNOWN_SITE)
    synthetic_unk = unk < 0
    if synthetic_unk:
        unk = len(it)
    empty = it.code_of("")

    def canon(codes: np.ndarray) -> np.ndarray:
        return np.where(codes == empty, unk, codes) if empty >= 0 else codes

    j_site = canon(jp.site)
    t_src = canon(tp.src)
    t_dst = canon(tp.dst)

    # Dict insertion order: jobs first, then each transfer's source
    # before its destination.  (A local transfer only touches its
    # source board, but since src == dst there, the interleaved
    # sequence has the same first appearances.)  Each code's first
    # position is one minimum-scatter over the small code domain, not
    # a sort of the whole sequence.
    pair = np.stack([t_src, t_dst], axis=1).ravel() if len(t_src) else t_src
    seq = np.concatenate([j_site, pair])
    n_codes = unk + 1 if synthetic_unk else len(it)
    first_pos = np.full(n_codes, len(seq), dtype=np.int64)
    np.minimum.at(first_pos, seq, np.arange(len(seq), dtype=np.int64))
    seen = np.flatnonzero(first_pos < len(seq))
    site_codes = seen[np.argsort(first_pos[seen])]
    n_sites = len(site_codes)
    lut = np.full(n_codes, -1, dtype=np.int64)
    lut[site_codes] = np.arange(n_sites, dtype=np.int64)

    j_idx = lut[j_site]
    failed = jp.status != it.code_of("finished")
    mixes = grouped_error_mixes(j_idx, failed, jp.error_code, n_sites)

    # np.bincount adds its weights in input order, the same float
    # additions as a per-transfer ``+=``.
    local = t_src == t_dst
    sizes = tp.size.astype(np.float64)
    bytes_local = np.bincount(lut[t_src[local]], sizes[local], minlength=n_sites)
    bytes_out = np.bincount(lut[t_src[~local]], sizes[~local], minlength=n_sites)
    bytes_in = np.bincount(lut[t_dst[~local]], sizes[~local], minlength=n_sites)

    started = ~np.isnan(jp.start)
    queue = jp.start - jp.creation

    # Per-site job groups in record order (stable argsort), for the
    # queue-time lists.
    order = np.argsort(j_idx, kind="stable")
    starts = group_boundaries(j_idx[order])
    groups: Dict[int, np.ndarray] = {}
    for i, lo in enumerate(starts.tolist()):
        hi = starts[i + 1] if i + 1 < len(starts) else len(order)
        members = order[lo:int(hi)]
        groups[int(j_idx[members[0]])] = members

    boards: Dict[str, SiteDashboard] = {}
    for k, code in enumerate(site_codes.tolist()):
        name = UNKNOWN_SITE if (synthetic_unk and code == unk) else it.decode(code)
        board = SiteDashboard(
            site=name,
            n_jobs=mixes[k].n_jobs,
            n_failed=mixes[k].n_failed,
            bytes_in=float(bytes_in[k]),
            bytes_out=float(bytes_out[k]),
            bytes_local=float(bytes_local[k]),
            error_mix=mixes[k],
        )
        members = groups.get(k)
        if members is not None:
            board.queue_times = queue[members[started[members]]].tolist()
        boards[name] = board
    return boards


def hottest_sites(
    boards: Dict[str, SiteDashboard], by: str = "failure_rate", top: int = 5,
    min_jobs: int = 10,
) -> List[SiteDashboard]:
    """Rank sites by a dashboard attribute (failure_rate, p95_queue, ...)."""
    eligible = [b for b in boards.values() if b.n_jobs >= min_jobs]
    return sorted(eligible, key=lambda b: -getattr(b, by))[:top]


def importers_and_exporters(
    boards: Dict[str, SiteDashboard], top: int = 5
) -> tuple[List[SiteDashboard], List[SiteDashboard]]:
    """Largest net data importers and exporters."""
    ranked = sorted(boards.values(), key=lambda b: b.net_flow)
    exporters = [b for b in ranked[:top] if b.net_flow < 0]
    importers = [b for b in ranked[::-1][:top] if b.net_flow > 0]
    return importers, exporters
