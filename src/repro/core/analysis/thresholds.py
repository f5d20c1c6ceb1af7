"""The status / transfer-time-percentage threshold sweep (Fig 9).

Fig 9 counts exactly-matched jobs in four (job status, task status)
combinations, bucketed by whether their transfer-time percentage falls
below a varying threshold T.  The paper reads the plot cumulatively:
"913 jobs had a transfer-time percentage below 1%, while another 525
jobs fell within the 1%-2% interval".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.analysis.queuing import JobTransferTiming, timing_table
from repro.core.matching.base import MatchResult


class StatusCombo(enum.Enum):
    """The four (job, task) status combinations of Fig 9."""

    JOB_OK_TASK_OK = "job finished / task finished"
    JOB_FAIL_TASK_OK = "job failed / task finished"
    JOB_OK_TASK_FAIL = "job finished / task failed"
    JOB_FAIL_TASK_FAIL = "job failed / task failed"

    @classmethod
    def of(cls, timing: JobTransferTiming) -> "StatusCombo":
        job_ok = timing.status == "finished"
        task_ok = timing.taskstatus == "finished"
        if job_ok and task_ok:
            return cls.JOB_OK_TASK_OK
        if not job_ok and task_ok:
            return cls.JOB_FAIL_TASK_OK
        if job_ok and not task_ok:
            return cls.JOB_OK_TASK_FAIL
        return cls.JOB_FAIL_TASK_FAIL


#: The threshold grid of Fig 9 (percent).
DEFAULT_THRESHOLDS = [1, 2, 5, 10, 25, 50, 75, 100]


@dataclass
class ThresholdSweep:
    """Cumulative job counts per status combo per threshold."""

    thresholds: List[float]
    #: combo -> list aligned with thresholds: jobs with pct <= T
    cumulative: Dict[StatusCombo, List[int]]
    n_jobs: int

    def below(self, combo: StatusCombo, threshold: float) -> int:
        i = self.thresholds.index(threshold)
        return self.cumulative[combo][i]

    def above(self, combo: StatusCombo, threshold: float) -> int:
        """Jobs of the combo strictly above the threshold — the extreme
        tail (72 jobs above T=75% in the paper)."""
        total = self.cumulative[combo][-1] if self.thresholds[-1] >= 100 else None
        if total is None:
            raise ValueError("threshold grid must end at 100 for tail queries")
        return total - self.below(combo, threshold)

    def tail_total(self, threshold: float) -> int:
        return sum(self.above(c, threshold) for c in StatusCombo)

    def success_fraction(self) -> float:
        """Fraction of matched jobs that succeeded (paper: 80.5%)."""
        if self.n_jobs == 0:
            return 0.0
        ok = (
            self.cumulative[StatusCombo.JOB_OK_TASK_OK][-1]
            + self.cumulative[StatusCombo.JOB_OK_TASK_FAIL][-1]
        )
        return ok / self.n_jobs

    def failure_enrichment(self, threshold: float) -> float:
        """Failed-job share above the threshold divided by the overall
        failed share — >1 means failures concentrate in the tail, the
        paper's central Fig 9 observation."""
        overall_failed = self.n_jobs - (
            self.cumulative[StatusCombo.JOB_OK_TASK_OK][-1]
            + self.cumulative[StatusCombo.JOB_OK_TASK_FAIL][-1]
        )
        tail = self.tail_total(threshold)
        if tail == 0 or overall_failed == 0 or self.n_jobs == 0:
            return 0.0
        tail_failed = self.above(StatusCombo.JOB_FAIL_TASK_OK, threshold) + self.above(
            StatusCombo.JOB_FAIL_TASK_FAIL, threshold
        )
        return (tail_failed / tail) / (overall_failed / self.n_jobs)


def threshold_sweep_result(
    result: MatchResult,
    thresholds: Sequence[float] = tuple(DEFAULT_THRESHOLDS),
) -> ThresholdSweep:
    """Fig 9 sweep straight from a match result.

    The whole grid is one cumulative pass over the result's timing
    table: sort each status combo's percentage vector once, then every
    threshold count is a ``searchsorted`` (``side="right"`` ≡ a
    ``p <= th`` tally) — no per-threshold rescan of the timings.
    """
    table = timing_table(result)
    ths = sorted(float(t) for t in thresholds)
    tharr = np.asarray(ths, dtype=np.float64)
    finished = table.interner.code_of("finished")
    job_ok = table.status == finished
    task_ok = table.taskstatus == finished
    masks = {
        StatusCombo.JOB_OK_TASK_OK: job_ok & task_ok,
        StatusCombo.JOB_FAIL_TASK_OK: ~job_ok & task_ok,
        StatusCombo.JOB_OK_TASK_FAIL: job_ok & ~task_ok,
        StatusCombo.JOB_FAIL_TASK_FAIL: ~job_ok & ~task_ok,
    }
    cumulative = {
        combo: np.searchsorted(
            np.sort(table.transfer_pct[mask]), tharr, side="right"
        ).tolist()
        for combo, mask in masks.items()
    }
    return ThresholdSweep(thresholds=ths, cumulative=cumulative, n_jobs=len(table))
