"""Queuing-time / transfer-time analysis (§5.1, Figs 5-6).

"File transfer time is defined as the cumulative duration during the
job's queuing time phase in which at least one associated file was
actively transferring" — i.e. the length of the union of the matched
transfers' intervals clipped to [creation, start-of-execution].

A match result lowers once, through its :class:`MatchFrame`, into a
:class:`TimingTable` — every per-job breakdown as parallel arrays, with
the interval unions computed by one sorted-boundary sweep over the CSR
ragged mapping (:func:`repro.columnar.kernels.interval_union_lengths`).
:func:`compute_timing` is the one-job form the streaming folds apply to
each match as it finalizes; ``tests/test_analysis_frame.py`` holds the
table bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal, Optional

import numpy as np

from repro.columnar.frame import CLASS_ORDER, MatchFrame
from repro.columnar.kernels import interval_union_lengths
from repro.core.matching.base import JobMatch, MatchResult, TransferClass
from repro.panda.harvester import interval_union_length


@dataclass(frozen=True)
class JobTransferTiming:
    """Fig 5/6 row: one matched job's queuing breakdown."""

    pandaid: int
    status: str  # "D" completed / "F" failed, as the paper labels them
    taskstatus: str
    queuing_time: float
    transfer_time: float  # within the queuing phase
    transfer_bytes: int
    transfer_class: TransferClass
    n_transfers: int

    @property
    def transfer_pct(self) -> float:
        """Percent of queuing time spent with a transfer active."""
        if self.queuing_time <= 0:
            return 0.0
        return 100.0 * self.transfer_time / self.queuing_time

    @property
    def other_time(self) -> float:
        return max(0.0, self.queuing_time - self.transfer_time)

    @property
    def label(self) -> str:
        """Paper-style data label: job status / task status."""
        j = "D" if self.status == "finished" else "F"
        t = "D" if self.taskstatus == "finished" else "F"
        return f"{j}/{t}"


def compute_timing(match: JobMatch) -> Optional[JobTransferTiming]:
    """Timing breakdown for one matched job; None when it never started."""
    job = match.job
    if job.starttime is None:
        return None
    intervals = [(t.starttime, t.endtime) for t in match.transfers]
    transfer_time = interval_union_length(intervals, job.creationtime, job.starttime)
    return JobTransferTiming(
        pandaid=job.pandaid,
        status=job.status,
        taskstatus=job.taskstatus,
        queuing_time=job.starttime - job.creationtime,
        transfer_time=transfer_time,
        transfer_bytes=sum(t.file_size for t in match.transfers),
        transfer_class=match.transfer_class,
        n_transfers=len(match.transfers),
    )


@dataclass
class TimingTable:
    """The Fig 5/6/9 per-job breakdown as parallel arrays (started jobs).

    One row per matched job that started execution, in match order —
    the columnar counterpart of the ``JobTransferTiming`` list, used
    directly by the vectorized threshold sweep and headline statistics
    and materialized to row dataclasses only on demand (:meth:`rows`).
    """

    interner: "object"  # StringInterner (status/taskstatus codes)
    pandaid: np.ndarray  # int64
    status: np.ndarray  # int64 codes
    taskstatus: np.ndarray  # int64 codes
    queuing_time: np.ndarray  # float64
    transfer_time: np.ndarray  # float64
    transfer_bytes: np.ndarray  # int64
    n_transfers: np.ndarray  # int64
    class_code: np.ndarray  # int64, position into CLASS_ORDER
    transfer_pct: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.pandaid)

    @classmethod
    def from_frame(cls, frame: MatchFrame) -> "TimingTable":
        """Lower every timing row at once from the match frame.

        The per-job interval unions become one sweep over the frame's
        ragged transfer arrays; jobs that never started (NaN ``start``)
        are dropped afterwards, mirroring ``compute_timing``'s ``None``.
        """
        union = interval_union_lengths(
            frame.creation, frame.start, frame.job_offsets, frame.t_start, frame.t_end
        )
        started = ~np.isnan(frame.start)
        qt = (frame.start - frame.creation)[started]
        tt = union[started]
        with np.errstate(divide="ignore", invalid="ignore"):
            pct = np.where(qt > 0, (100.0 * tt) / qt, 0.0)
        return cls(
            interner=frame.interner,
            pandaid=frame.pandaid[started],
            status=frame.status[started],
            taskstatus=frame.taskstatus[started],
            queuing_time=qt,
            transfer_time=tt,
            transfer_bytes=frame.transfer_bytes[started],
            n_transfers=frame.n_transfers[started],
            class_code=frame.class_code[started],
            transfer_pct=pct,
        )

    def rows(self) -> List[JobTransferTiming]:
        """Materialize the per-row dataclasses (the thin row view)."""
        decode = self.interner.decode
        return [
            JobTransferTiming(
                pandaid=pid,
                status=decode(st),
                taskstatus=decode(ts),
                queuing_time=qt,
                transfer_time=tt,
                transfer_bytes=tb,
                transfer_class=CLASS_ORDER[cc],
                n_transfers=nt,
            )
            for pid, st, ts, qt, tt, tb, cc, nt in zip(
                self.pandaid.tolist(),
                self.status.tolist(),
                self.taskstatus.tolist(),
                self.queuing_time.tolist(),
                self.transfer_time.tolist(),
                self.transfer_bytes.tolist(),
                self.class_code.tolist(),
                self.n_transfers.tolist(),
            )
        ]

    def top_jobs(
        self,
        locality: Literal["local", "remote"],
        min_transfer_pct: float = 10.0,
        top: int = 40,
    ) -> List[JobTransferTiming]:
        """Figs 5-6: the ``top`` longest-queuing jobs of one locality
        class whose transfers occupied at least ``min_transfer_pct`` of
        queue time (stable order among equal queuing times)."""
        wanted = 0 if locality == "local" else 1  # CLASS_ORDER positions
        eligible = np.flatnonzero(
            (self.class_code == wanted) & (self.transfer_pct >= min_transfer_pct)
        )
        order = np.argsort(-self.queuing_time[eligible], kind="stable")
        chosen = eligible[order[:top]]
        decode = self.interner.decode
        return [
            JobTransferTiming(
                pandaid=int(self.pandaid[i]),
                status=decode(int(self.status[i])),
                taskstatus=decode(int(self.taskstatus[i])),
                queuing_time=float(self.queuing_time[i]),
                transfer_time=float(self.transfer_time[i]),
                transfer_bytes=int(self.transfer_bytes[i]),
                transfer_class=CLASS_ORDER[int(self.class_code[i])],
                n_transfers=int(self.n_transfers[i]),
            )
            for i in chosen.tolist()
        ]


def timing_table(result: MatchResult) -> TimingTable:
    """The result's timing table, cached on its match frame."""
    frame = result.frame()
    if frame._timing is None:
        frame._timing = TimingTable.from_frame(frame)
    return frame._timing


def timings_for_result(result: MatchResult) -> List[JobTransferTiming]:
    """Fig 5/6 rows for one result, materialized from its timing table."""
    return timing_table(result).rows()


def mean_transfer_pct(timings) -> float:
    """Arithmetic mean of the transfer-time percentages (§5.1's 8.43%).

    Accepts a timings sequence or a :class:`TimingTable`.
    """
    pcts = _pct_values(timings)
    if len(pcts) == 0:
        return 0.0
    return float(np.mean(pcts))


def geomean_transfer_pct(timings, floor: float = 1e-3) -> float:
    """Geometric mean (§5.1's 1.942%); zero percentages are floored so
    the geomean stays defined, matching the paper's strictly positive
    report.  Accepts a timings sequence or a :class:`TimingTable`."""
    pcts = _pct_values(timings)
    if len(pcts) == 0:
        return 0.0
    vals = np.maximum(pcts, floor)
    return float(np.exp(np.mean(np.log(vals))))


def correlation_size_vs_time(timings) -> float:
    """Pearson correlation between transferred bytes and queuing time.

    The paper "found no significant correlation between total transfer
    size and either queuing time or file transfer time" (Fig 5
    discussion); the Fig-5 benchmark asserts this stays weak.  Accepts
    a timings sequence or a :class:`TimingTable`.
    """
    if isinstance(timings, TimingTable):
        x = timings.transfer_bytes.astype(float)
        y = timings.queuing_time.astype(float)
    else:
        x = np.array([t.transfer_bytes for t in timings], dtype=float)
        y = np.array([t.queuing_time for t in timings], dtype=float)
    if len(x) < 3:
        return 0.0
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def _pct_values(timings) -> np.ndarray:
    """Transfer percentages as one float64 array, from either shape.

    ``np.mean`` and friends see identical values in identical order
    whether the floats come from the table's array or from a list of
    ``JobTransferTiming.transfer_pct`` — the bit-identity hinge.
    """
    if isinstance(timings, TimingTable):
        return timings.transfer_pct
    return np.array([t.transfer_pct for t in timings], dtype=np.float64)
