"""Matching summaries: Table 1, Table 2, and the §5.1 headline numbers.

Table 2 and the headline numbers run over each result's
:class:`~repro.columnar.frame.MatchFrame`.  Table 1's totals run over
*all* of the window's transfers, not just matched ones: bincounts over
the activity codes of the window's
:class:`~repro.columnar.packs.WindowColumns`.  ``tests/oracle.py``
holds the per-record loop the parity tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.columnar.packs import WindowColumns
from repro.core.analysis.queuing import (
    geomean_transfer_pct,
    mean_transfer_pct,
    timing_table,
)
from repro.core.matching.base import MatchResult, TransferClass
from repro.core.matching.pipeline import MatchingReport
from repro.rucio.activities import TABLE1_ORDER
from repro.units import ratio_pct


@dataclass(frozen=True)
class ActivityRow:
    """One row of Table 1."""

    activity: str
    matched: int
    total: int

    @property
    def pct(self) -> float:
        return ratio_pct(self.matched, self.total)


def activity_breakdown(result: MatchResult, columns: WindowColumns) -> List[ActivityRow]:
    """Table 1: matched vs total transfers (with jeditaskid) per activity.

    ``columns`` holds the window's transfers (or the whole telemetry's):
    the tallies are two bincounts over activity codes plus one
    sorted-membership test against the frame's matched row ids.
    """
    tp, it = columns.transfers, columns.interner
    with_task = tp.jeditaskid > 0
    acts = tp.activity[with_task]
    vocab = len(it)
    totals = np.bincount(acts, minlength=vocab) if len(acts) else np.zeros(vocab, np.int64)
    is_matched = np.isin(tp.row_id[with_task], result.frame().matched_row_ids())
    matched = (
        np.bincount(acts[is_matched], minlength=vocab)
        if is_matched.any()
        else np.zeros(vocab, np.int64)
    )
    rows = []
    named_codes = []
    for a in TABLE1_ORDER:
        code = it.code_of(a.value)
        if code >= 0:
            named_codes.append(code)
        rows.append(
            ActivityRow(
                activity=a.value,
                matched=int(matched[code]) if code >= 0 else 0,
                total=int(totals[code]) if code >= 0 else 0,
            )
        )
    # §5.1: "nearly all transfers that have jeditaskid fall to the
    # following activities" — aggregate the small residue (e.g. tape
    # staging done under a task-scoped rule) so Total covers everything.
    other_total = int(totals.sum()) - sum(int(totals[c]) for c in named_codes)
    other_matched = int(matched.sum()) - sum(int(matched[c]) for c in named_codes)
    if other_total:
        rows.append(ActivityRow(activity="Other", matched=other_matched, total=other_total))
    rows.append(
        ActivityRow(
            activity="Total",
            matched=sum(r.matched for r in rows),
            total=sum(r.total for r in rows),
        )
    )
    return rows


@dataclass(frozen=True)
class MethodTransferRow:
    """One row of Table 2a."""

    method: str
    local: int
    remote: int

    @property
    def total(self) -> int:
        return self.local + self.remote


@dataclass(frozen=True)
class MethodJobRow:
    """One row of Table 2b."""

    method: str
    all_local: int
    all_remote: int
    mixed: int

    @property
    def total(self) -> int:
        return self.all_local + self.all_remote + self.mixed


def method_comparison_transfers(report: MatchingReport) -> List[MethodTransferRow]:
    """Table 2a: matched transfer counts by method and locality."""
    rows = []
    for method in report.methods:
        local, remote = report[method].frame().local_remote_split()
        rows.append(MethodTransferRow(method=method, local=local, remote=remote))
    return rows


def method_comparison_jobs(report: MatchingReport) -> List[MethodJobRow]:
    """Table 2b: matched job counts by method and transfer class."""
    rows = []
    for method in report.methods:
        by_class = report[method].frame().jobs_by_class()
        rows.append(
            MethodJobRow(
                method=method,
                all_local=by_class[TransferClass.ALL_LOCAL],
                all_remote=by_class[TransferClass.ALL_REMOTE],
                mixed=by_class[TransferClass.MIXED],
            )
        )
    return rows


@dataclass(frozen=True)
class HeadlineStats:
    """§5.1's summary numbers for the exact method."""

    n_jobs: int
    n_transfers: int
    n_transfers_with_taskid: int
    n_matched_jobs: int
    n_matched_transfers: int
    mean_transfer_pct: float
    geomean_transfer_pct: float

    @property
    def job_match_pct(self) -> float:
        return ratio_pct(self.n_matched_jobs, self.n_jobs)

    @property
    def transfer_match_pct(self) -> float:
        return ratio_pct(self.n_matched_transfers, self.n_transfers_with_taskid)


def headline_stats(report: MatchingReport, method: str = "exact") -> HeadlineStats:
    result = report[method]
    frame = result.frame()
    table = timing_table(result)
    return HeadlineStats(
        n_jobs=report.n_jobs,
        n_transfers=report.n_transfers,
        n_transfers_with_taskid=report.n_transfers_with_taskid,
        n_matched_jobs=len(frame),
        n_matched_transfers=frame.n_matched_transfers,
        mean_transfer_pct=mean_transfer_pct(table),
        geomean_transfer_pct=geomean_transfer_pct(table),
    )


def headline_series(
    pipeline, plans, method: str = "exact", executor=None
) -> List[HeadlineStats]:
    """§5.1 headline numbers over many windows, one executor sweep.

    Consumes :class:`MatchingReport`\\ s through the pipeline's
    executor instead of re-running the pipeline per window: the sweep
    materializes each window's pre-selection once (shared with any
    other analysis on the same cache) and fans across cores when the
    executor is parallel.
    """
    reports = pipeline.sweep(plans, executor=executor)
    return [headline_stats(report, method=method) for report in reports]
