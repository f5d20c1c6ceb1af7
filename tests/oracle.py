"""Reference implementations the production dataplane is checked against.

Production runs one dataplane: the columnar Algorithm-1 join
(:class:`repro.columnar.engine.ColumnarIndex`) and the
:class:`~repro.columnar.frame.MatchFrame` analyses.  This module keeps
the plain-record versions of both — a dict hash join, a per-job loop
over each matcher's predicate hooks (``match_job``/``select_job``, RM3's
``match_job_scored``), and per-record analysis loops — as the
specification.  The parity suites (``test_columnar``, ``test_rm3``,
``test_analysis_frame``, ``test_stream``) assert that production output
is bit-identical to what this module computes; no production code
imports it.

:class:`RecordSource` is the store's reference the same way: record
lists scanned per window, against which
:class:`~repro.metastore.packsource.PackSource` is checked.

The simulator's hot path has references too (the last section):
a congestion factor drawn afresh on every call, a replica selector
that scores every candidate by ``(locality, bandwidth)``, and a
popularity pick that decays one entry per ``score()`` call.  Each has
the signature of the production method it specifies, so the
whole-world test in ``test_sim_hot_path`` can patch them in.

Four record-level analyses keep their loops in production for callers
that hold records but no packs (Table 1, site dashboards, the transfer
matrix, the temporal profiles); :func:`analyze` calls those with
``columns=None``.
"""

from __future__ import annotations

from typing import Dict, List, Literal, Optional, Sequence, Set, Tuple

import numpy as np

from repro.columnar.interner import StringInterner
from repro.columnar.packs import WindowColumns
from repro.core.analysis.matrix import build_transfer_matrix
from repro.core.analysis.queuing import (
    JobTransferTiming,
    compute_timing,
    geomean_transfer_pct,
    mean_transfer_pct,
)
from repro.core.analysis.sites import build_dashboards
from repro.core.analysis.summary import (
    HeadlineStats,
    MethodJobRow,
    MethodTransferRow,
    activity_breakdown,
)
from repro.core.analysis.temporal import submission_profile, transfer_volume_profile
from repro.core.analysis.thresholds import DEFAULT_THRESHOLDS, StatusCombo, ThresholdSweep
from repro.core.matching.base import (
    BaseMatcher,
    JobMatch,
    MatchingReport,
    MatchResult,
    TransferClass,
)
from repro.exec.analysis import DEFAULT_ANALYSES, AnalysisSpec
from repro.exec.plan import WindowPlan
from repro.grid.network import CONGESTION_BUCKET_SECONDS, LinkProfile, _stable_u32
from repro.rucio.did import DID
from repro.rucio.selector import SourceChoice
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord
from repro.window import in_window

# -- the store ----------------------------------------------------------------


class RecordSource:
    """The metastore's window semantics over plain record lists.

    The brute-force reference
    :class:`~repro.metastore.packsource.PackSource` is checked against:
    no index, no shards, no lazy views.  A window is a scan of each
    list in storage order — jobs that ended in ``[t0, t1)`` (with the
    ``user`` label when asked), the file rows of those jobs' pandaids,
    transfers that started in ``[t0, t1)`` — lowered through the
    source's own interner.  It plugs into the production executors
    like any store, and pickles as the record lists it holds.
    """

    def __init__(
        self,
        jobs: Sequence[JobRecord] = (),
        files: Sequence[FileRecord] = (),
        transfers: Sequence[TransferRecord] = (),
    ) -> None:
        self.jobs, self.files = list(jobs), list(files)
        self.transfers = list(transfers)
        self.interner = StringInterner()
        self.generation = 1

    def materialize_window(self, t0: float, t1: float, user_jobs_only: bool = True):
        jobs = [
            j for j in self.jobs
            if j.endtime is not None and in_window(j.endtime, t0, t1)
            and (not user_jobs_only or j.prodsourcelabel == "user")
        ]
        pandaids = {j.pandaid for j in jobs}
        files = [f for f in self.files if f.pandaid in pandaids]
        transfers = [t for t in self.transfers if in_window(t.starttime, t0, t1)]
        columns = WindowColumns.lower(jobs, files, transfers, self.interner)
        return jobs, files, transfers, columns


# -- the join -----------------------------------------------------------------


class CandidateIndex:
    """The jobs → files → transfers hash join of Algorithm 1, on dicts."""

    def __init__(
        self,
        files: Sequence[FileRecord],
        transfers: Sequence[TransferRecord],
    ) -> None:
        # F'_j: file rows grouped by (pandaid, jeditaskid).
        self._files_by_job: Dict[Tuple[int, int], List[FileRecord]] = {}
        for f in files:
            self._files_by_job.setdefault((f.pandaid, f.jeditaskid), []).append(f)

        # Transfer rows by (jeditaskid, lfn); rows without a positive
        # task id can never be reached by the join (the paper's 77%
        # invisible mass) — the same rule every denominator counts by.
        self._transfers_by_key: Dict[Tuple[int, str], List[TransferRecord]] = {}
        for t in transfers:
            if t.jeditaskid > 0:
                self._transfers_by_key.setdefault((t.jeditaskid, t.lfn), []).append(t)

    def files_for_job(self, job: JobRecord) -> List[FileRecord]:
        return self._files_by_job.get((job.pandaid, job.jeditaskid), [])

    def candidates_for_job(self, job: JobRecord) -> List[TransferRecord]:
        """T'_j: transfers attribute-matching any of the job's files on
        lfn (the index key), dataset, proddblock, scope and file_size;
        duplicates dropped on first occurrence."""
        out: List[TransferRecord] = []
        seen: Set[int] = set()
        for f in self.files_for_job(job):
            for t in self._transfers_by_key.get((job.jeditaskid, f.lfn), []):
                if t.row_id in seen:
                    continue
                if (
                    t.dataset == f.dataset
                    and t.proddblock == f.proddblock
                    and t.scope == f.scope
                    and t.file_size == f.file_size
                ):
                    seen.add(t.row_id)
                    out.append(t)
        return out

    def scored_candidates_for_job(
        self, job: JobRecord
    ) -> List[Tuple[TransferRecord, float]]:
        """RM3's size-relaxed join: attribute equality except
        ``file_size``, each candidate with its relative size mismatch
        ``|t - f| / max(f, 1)`` against the first file row reaching it."""
        out: List[Tuple[TransferRecord, float]] = []
        seen: Set[int] = set()
        for f in self.files_for_job(job):
            for t in self._transfers_by_key.get((job.jeditaskid, f.lfn), []):
                if t.row_id in seen:
                    continue
                if (
                    t.dataset == f.dataset
                    and t.proddblock == f.proddblock
                    and t.scope == f.scope
                ):
                    seen.add(t.row_id)
                    rel = float(abs(t.file_size - f.file_size)) / float(
                        max(f.file_size, 1)
                    )
                    out.append((t, rel))
        return out


def run_matcher(
    matcher: BaseMatcher,
    jobs: Sequence[JobRecord],
    index: CandidateIndex,
    n_transfers_considered: int,
) -> MatchResult:
    """One matcher over a window, one job at a time through its hooks."""
    matches: List[JobMatch] = []
    for job in jobs:
        if matcher.size_tolerant_join:
            pairs = index.scored_candidates_for_job(job)
            kept = matcher.match_job_scored(job, pairs) if pairs else []
        else:
            candidates = index.candidates_for_job(job)
            kept = matcher.match_job(job, candidates) if candidates else []
        if kept:
            matches.append(JobMatch(job=job, transfers=kept))
    return MatchResult(
        method=matcher.name,
        matches=matches,
        n_jobs_considered=len(jobs),
        n_transfers_considered=n_transfers_considered,
    )


def window_records(source, plan: WindowPlan):
    """The §4.2 pre-selection: a window's jobs, files and transfers."""
    return source.materialize_window(plan.t0, plan.t1, plan.user_jobs_only)[:3]


def build_report(source, plan: WindowPlan, matchers: Sequence[BaseMatcher]) -> MatchingReport:
    """Every matcher over one window, joined once on dicts."""
    jobs, files, transfers = window_records(source, plan)
    index = CandidateIndex(files, transfers)
    n_taskid = sum(1 for t in transfers if t.has_jeditaskid)
    return MatchingReport(
        window=plan.window,
        n_jobs=len(jobs),
        n_transfers=len(transfers),
        n_transfers_with_taskid=n_taskid,
        results={m.name: run_matcher(m, jobs, index, n_taskid) for m in matchers},
    )


# -- the analyses -------------------------------------------------------------


def local_remote_split(result: MatchResult) -> Tuple[int, int]:
    """(local, remote) over distinct matched transfers, first occurrence wins."""
    seen: Set[int] = set()
    local = remote = 0
    for m in result.matches:
        for t in m.transfers:
            if t.row_id in seen:
                continue
            seen.add(t.row_id)
            if t.is_local:
                local += 1
            else:
                remote += 1
    return local, remote


def jobs_by_class(result: MatchResult) -> Dict[TransferClass, int]:
    out = {c: 0 for c in TransferClass}
    for m in result.matched_jobs():
        out[m.transfer_class] += 1
    return out


def timings(result: MatchResult) -> List[JobTransferTiming]:
    """Fig 5/6 rows: ``compute_timing`` per matched job that started."""
    out = []
    for m in result.matched_jobs():
        t = compute_timing(m)
        if t is not None:
            out.append(t)
    return out


def top_jobs_breakdown(
    rows: Sequence[JobTransferTiming],
    locality: Literal["local", "remote"],
    min_transfer_pct: float = 10.0,
    top: int = 40,
) -> List[JobTransferTiming]:
    """Figs 5-6: the ``top`` longest-queuing jobs of one locality class
    whose transfers occupied at least ``min_transfer_pct`` of queue time."""
    wanted = TransferClass.ALL_LOCAL if locality == "local" else TransferClass.ALL_REMOTE
    eligible = [
        t
        for t in rows
        if t.transfer_class is wanted and t.transfer_pct >= min_transfer_pct
    ]
    eligible.sort(key=lambda t: -t.queuing_time)
    return eligible[:top]


def threshold_sweep(
    rows: Sequence[JobTransferTiming],
    thresholds: Sequence[float] = tuple(DEFAULT_THRESHOLDS),
) -> ThresholdSweep:
    """Fig 9: per status combo, how many jobs have pct <= each threshold."""
    ths = sorted(float(t) for t in thresholds)
    by_combo: Dict[StatusCombo, List[float]] = {c: [] for c in StatusCombo}
    for t in rows:
        by_combo[StatusCombo.of(t)].append(t.transfer_pct)
    cumulative = {
        combo: [sum(1 for p in pcts if p <= th) for th in ths]
        for combo, pcts in by_combo.items()
    }
    return ThresholdSweep(thresholds=ths, cumulative=cumulative, n_jobs=len(rows))


def headline_stats(report: MatchingReport, method: str = "exact") -> HeadlineStats:
    result = report[method]
    rows = timings(result)
    return HeadlineStats(
        n_jobs=report.n_jobs,
        n_transfers=report.n_transfers,
        n_transfers_with_taskid=report.n_transfers_with_taskid,
        n_matched_jobs=result.n_matched_jobs,
        n_matched_transfers=result.n_matched_transfers,
        mean_transfer_pct=mean_transfer_pct(rows),
        geomean_transfer_pct=geomean_transfer_pct(rows),
    )


def method_comparison_transfers(report: MatchingReport) -> List[MethodTransferRow]:
    return [
        MethodTransferRow(method, *local_remote_split(report[method]))
        for method in report.methods
    ]


def method_comparison_jobs(report: MatchingReport) -> List[MethodJobRow]:
    rows = []
    for method in report.methods:
        by_class = jobs_by_class(report[method])
        rows.append(
            MethodJobRow(
                method=method,
                all_local=by_class[TransferClass.ALL_LOCAL],
                all_remote=by_class[TransferClass.ALL_REMOTE],
                mixed=by_class[TransferClass.MIXED],
            )
        )
    return rows


def analyze(
    report: MatchingReport,
    jobs: Sequence[JobRecord],
    transfers: Sequence[TransferRecord],
    plan: WindowPlan,
    specs=DEFAULT_ANALYSES,
) -> Dict[str, object]:
    """The reference counterpart of ``repro.exec.analysis.analyze_report``."""
    out: Dict[str, object] = {}
    for spec in (AnalysisSpec.of(s) for s in specs):
        name, kw = spec.name, dict(spec.params)
        result = report[spec.method]
        if name == "headline":
            value = headline_stats(report, spec.method)
        elif name == "timings":
            value = timings(result)
        elif name in ("top_local", "top_remote"):
            value = top_jobs_breakdown(timings(result), name[4:], **kw)
        elif name == "thresholds":
            value = threshold_sweep(timings(result), **kw)
        elif name == "table1":
            value = activity_breakdown(result, transfers)
        elif name == "table2_transfers":
            value = method_comparison_transfers(report)
        elif name == "table2_jobs":
            value = method_comparison_jobs(report)
        elif name == "matrix":
            value = build_transfer_matrix(transfers, list(kw["site_names"]))
        elif name == "sites":
            value = build_dashboards(jobs, transfers)
        elif name == "volume":
            value = transfer_volume_profile(transfers, plan.t0, plan.t1, **kw)
        elif name == "submissions":
            value = submission_profile(jobs, plan.t0, plan.t1, **kw)
        else:
            raise ValueError(f"unknown analysis {name!r}")
        out[name] = value
    return out


# -- the simulator's hot path -------------------------------------------------


def congestion_factor(network, prof: LinkProfile, t: float) -> float:
    """``NetworkModel.congestion_factor``: a fresh generator per call,
    seeded from ``(seed, link, bucket)``."""
    bucket = int(t // CONGESTION_BUCKET_SECONDS)
    h = _stable_u32(network.seed, "cong", prof.src, prof.dst, bucket)
    rng = np.random.default_rng(h)
    if rng.random() < prof.deep_drop_prob:
        return float(rng.uniform(0.05, 0.20))
    factor = float(rng.lognormal(0.0, prof.congestion_sigma))
    return min(1.0, factor)


def choose(
    selector,
    file_did: DID,
    dest_site: str,
    now: float,
    exclude_rses: Optional[set] = None,
) -> Optional[SourceChoice]:
    """``ReplicaSelector.choose``: score every candidate by
    ``(locality, bandwidth)``; the first maximum wins."""
    topology = selector.topology
    candidates = [
        r for r in selector.replicas.available_replicas_of(file_did)
        if not topology.rse(r.rse_name).kind.is_tape
    ]
    if exclude_rses:
        candidates = [r for r in candidates if r.rse_name not in exclude_rses]
    if not candidates:
        return None
    dest_region = topology.site(dest_site).region
    best: Optional[SourceChoice] = None
    best_score: Tuple[int, float] = (-1, -1.0)
    for rep in candidates:
        src_site = topology.rse(rep.rse_name).site_name
        if src_site == dest_site:
            locality = 2
        elif topology.site(src_site).region == dest_region:
            locality = 1
        else:
            locality = 0
        score = (locality, topology.network.effective_bandwidth(src_site, dest_site, now))
        if score > best_score:
            best_score = score
            best = SourceChoice(source_rse=rep.rse_name, source_site=src_site)
    return best


def pick_weighted(tracker, now: float, rng, fallback: Optional[List[DID]] = None):
    """``PopularityTracker.pick_weighted``: one ``score()`` call (lookup
    and decay) per tracked dataset, over a copy of the keys."""
    items = [(d, tracker.score(d, now)) for d in list(tracker._entries)]
    items = [(d, s) for d, s in items if s > 0]
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
