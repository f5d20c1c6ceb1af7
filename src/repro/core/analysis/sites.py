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
    indices and the job pack's status and error-code columns.  Sites
    appear in first-appearance order: jobs first, then each transfer's
    source before its destination.  That insertion order decides ties
    in :func:`hottest_sites` and :meth:`ErrorMix.dominant_family`.
    """
    jp, tp, it = columns.jobs, columns.transfers, columns.interner
    # Canonical site codes: the empty label folds into UNKNOWN (a
    # record's ``site or UNKNOWN_SITE``).  When UNKNOWN itself was
    # never interned, a synthetic code one past every site code stands
    # in for it.
    unk = it.code_of(UNKNOWN_SITE)
    empty = it.code_of("")
    # Site codes live in [0, top]: the small arrays below cover that
    # range, not the whole vocabulary (file names share the interner).
    top = max(
        int(jp.site.max(initial=-1)), int(tp.src.max(initial=-1)),
        int(tp.dst.max(initial=-1)), unk,
    )
    synthetic_unk = unk < 0
    if synthetic_unk:
        top = unk = top + 1
    if empty > top:
        empty = -1  # interned, but no site carries it
    n_codes = top + 1

    # First appearances, in the order jobs, then each transfer's source
    # before its destination (a local transfer only touches its source
    # board, but since src == dst there, the interleaved sequence has
    # the same first appearances).  Jobs carry nearly every site, so
    # one minimum-scatter over the jobs orders the sites; only
    # endpoints naming a site no job carries are scanned after it.
    n_jobs = len(jp)
    none = n_jobs + 2 * len(tp)  # past every position
    first = np.full(n_codes, none, dtype=np.int64)
    np.minimum.at(first, jp.site, np.arange(n_jobs, dtype=np.int64))
    if empty >= 0:
        first[unk] = min(first[unk], first[empty])
        first[empty] = none

    def order_sites():
        """Site codes by first appearance, and each raw code's site
        index (-1 for codes not seen yet; empty reads as UNKNOWN)."""
        present = np.flatnonzero(first < none)
        codes = present[np.argsort(first[present])]
        lut = np.full(n_codes, -1, dtype=np.int64)
        lut[codes] = np.arange(len(codes))
        if empty >= 0:
            lut[empty] = lut[unk]
        return codes, lut

    site_codes, lut = order_sites()
    s_idx = lut[tp.src]
    d_idx = lut[tp.dst]
    missing = [np.flatnonzero(s_idx < 0), np.flatnonzero(d_idx < 0)]
    if len(missing[0]) or len(missing[1]):
        for side, (rows, labels) in enumerate(zip(missing, (tp.src, tp.dst))):
            found = np.where(labels[rows] == empty, unk, labels[rows])
            np.minimum.at(first, found, n_jobs + 2 * rows + side)
        site_codes, lut = order_sites()
        s_idx[missing[0]] = lut[tp.src[missing[0]]]
        d_idx[missing[1]] = lut[tp.dst[missing[1]]]
    n_sites = len(site_codes)

    j_idx = lut[jp.site]
    failed = jp.status != it.code_of("finished")
    mixes = grouped_error_mixes(j_idx, failed, jp.error_code, n_sites)

    # np.bincount adds its weights in input order, the same float
    # additions as a per-transfer ``+=``.  Keying each endpoint by
    # ``2 * site + local`` splits local from remote bytes inside one
    # unmasked bincount per side.
    local = s_idx == d_idx
    s_idx *= 2
    s_idx += local
    d_idx *= 2
    d_idx += local
    sizes = tp.size.astype(np.float64)
    by_src = np.bincount(s_idx, sizes, minlength=2 * n_sites)
    by_dst = np.bincount(d_idx, sizes, minlength=2 * n_sites)
    bytes_out, bytes_local = by_src[0::2].tolist(), by_src[1::2].tolist()
    bytes_in = by_dst[0::2].tolist()

    # Started jobs grouped by site in record order (a stable sort), for
    # the queue-time lists.
    started = np.flatnonzero(~np.isnan(jp.start))
    site_of = j_idx[started]
    # Small site indices make the stable sort a radix sort.
    small = np.int16 if n_sites <= 2**15 else np.int64
    order = started[np.argsort(site_of.astype(small), kind="stable")]
    queue = (jp.start[order] - jp.creation[order]).tolist()
    bounds = np.zeros(n_sites + 1, dtype=np.int64)
    np.cumsum(np.bincount(site_of, minlength=n_sites), out=bounds[1:])
    bounds = bounds.tolist()

    boards: Dict[str, SiteDashboard] = {}
    for k, code in enumerate(site_codes.tolist()):
        name = UNKNOWN_SITE if (synthetic_unk and code == unk) else it.decode(code)
        boards[name] = SiteDashboard(
            site=name,
            n_jobs=mixes[k].n_jobs,
            n_failed=mixes[k].n_failed,
            queue_times=queue[bounds[k]:bounds[k + 1]],
            bytes_in=bytes_in[k],
            bytes_out=bytes_out[k],
            bytes_local=bytes_local[k],
            error_mix=mixes[k],
        )
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
