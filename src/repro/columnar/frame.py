"""MatchFrame: the structure-of-arrays lowering of a match result.

Everything the §5 analyses consume from a :class:`MatchResult` — job
identity and lifecycle times, status codes, per-job transfer counts and
byte totals, and the ragged job → transfers mapping — lowered once into
flat NumPy arrays with a CSR layout (``job_offsets`` plus per-entry
columns).  The analyses then run as kernels over these arrays instead
of walking ``JobMatch`` objects one at a time, while the per-row
dataclasses stay available as thin views materialized on demand.

Two builders share the layout:

* :meth:`MatchFrame.from_candidates` — the matching kernels' path: the
  final ``(cand_job, cand_tpos)`` arrays they already computed *are*
  the ragged mapping, so the frame is a handful of NumPy gathers from
  the window's packs.  This frame is the primary form of a kernel
  result: job counts, transfer ids and ``matched_pairs()`` answer from
  it, and the result's ``JobMatch`` list is assembled only when read.
  Parallel sweeps therefore build frames inside the worker processes.
* :meth:`MatchFrame.from_matches` — for results assembled as
  ``JobMatch`` lists (``select_job`` overrides, the stream's
  accumulated state), lowered the same way the packs lower records.

The frame is self-contained (compact gathered arrays, not views into
the full window packs), so pickling a result across the process pool
ships only the matched slice (plus the assembled match list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.interner import StringInterner
from repro.columnar.kernels import first_occurrences, group_boundaries
from repro.columnar.packs import WindowColumns
from repro.core.matching.base import JobMatch, TransferClass
from repro.telemetry.records import UNKNOWN_SITE

#: Transfer-class code domain: positions into this tuple are the
#: ``class_code`` values stored per job (Table 2b's three buckets).
CLASS_ORDER: Tuple[TransferClass, ...] = (
    TransferClass.ALL_LOCAL,
    TransferClass.ALL_REMOTE,
    TransferClass.MIXED,
)


@dataclass
class MatchFrame:
    """Columnar view of one matcher's matched jobs and their transfers.

    Per-job arrays are parallel to each other (one row per matched job,
    in match order); per-entry arrays are parallel to the flattened
    transfer lists, segmented by ``job_offsets`` (CSR: job ``i`` owns
    entries ``job_offsets[i]:job_offsets[i + 1]``).
    """

    interner: StringInterner

    # -- per matched job -----------------------------------------------------
    pandaid: np.ndarray  # int64
    status: np.ndarray  # int64 codes
    taskstatus: np.ndarray  # int64 codes
    site: np.ndarray  # int64 codes
    creation: np.ndarray  # float64
    start: np.ndarray  # float64, NaN = never started
    end: np.ndarray  # float64, NaN = still running
    n_transfers: np.ndarray  # int64
    n_local: np.ndarray  # int64
    transfer_bytes: np.ndarray  # int64 (exact integer byte totals)
    class_code: np.ndarray  # int64, position into CLASS_ORDER

    # -- CSR ragged mapping to the transfer entries --------------------------
    job_offsets: np.ndarray  # int64, len == n_jobs + 1

    # -- per transfer entry --------------------------------------------------
    t_row_id: np.ndarray  # int64 (may repeat across jobs)
    t_start: np.ndarray  # float64
    t_end: np.ndarray  # float64
    t_size: np.ndarray  # int64
    t_local: np.ndarray  # bool

    #: Positions into the window's ``TransferPack`` when kernel-built
    #: (None from :meth:`from_matches`, which has no pack to point into).
    transfer_rows: Optional[np.ndarray] = None

    _row_first: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Cached TimingTable (owned by ``repro.core.analysis.queuing``);
    #: living here keeps the one-lowering-per-result contract without a
    #: weak-key side table (MatchResult is unhashable by design).
    _timing: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.pandaid)

    @property
    def n_entries(self) -> int:
        return len(self.t_row_id)

    # -- builders ------------------------------------------------------------

    @classmethod
    def from_matches(
        cls, matches: Sequence[JobMatch], interner: Optional[StringInterner] = None
    ) -> "MatchFrame":
        """Lower a ``JobMatch`` list into the frame layout."""
        it = interner if interner is not None else StringInterner()
        kept = [m for m in matches if m.transfers]  # mirrors matched_jobs()
        jobs = [m.job for m in kept]
        counts = np.array([len(m.transfers) for m in kept], dtype=np.int64)
        flat = [t for m in kept for t in m.transfers]
        n_local = np.array([m.n_local for m in kept], dtype=np.int64)
        n_transfers = counts
        return cls(
            interner=it,
            pandaid=np.array([j.pandaid for j in jobs], dtype=np.int64),
            status=it.encode([j.status for j in jobs]),
            taskstatus=it.encode([j.taskstatus for j in jobs]),
            site=it.encode([j.computingsite for j in jobs]),
            creation=np.array([j.creationtime for j in jobs], dtype=np.float64),
            start=np.array(
                [np.nan if j.starttime is None else j.starttime for j in jobs],
                dtype=np.float64,
            ),
            end=np.array(
                [np.nan if j.endtime is None else j.endtime for j in jobs],
                dtype=np.float64,
            ),
            n_transfers=n_transfers,
            n_local=n_local,
            transfer_bytes=_segment_int_sums(
                np.array([t.file_size for t in flat], dtype=np.int64), counts
            ),
            class_code=_class_codes(n_local, n_transfers),
            job_offsets=_offsets(counts),
            t_row_id=np.array([t.row_id for t in flat], dtype=np.int64),
            t_start=np.array([t.starttime for t in flat], dtype=np.float64),
            t_end=np.array([t.endtime for t in flat], dtype=np.float64),
            t_size=np.array([t.file_size for t in flat], dtype=np.int64),
            t_local=np.array([t.is_local for t in flat], dtype=bool),
        )

    @classmethod
    def from_candidates(
        cls, columns: WindowColumns, cand_job: np.ndarray, cand_tpos: np.ndarray
    ) -> "MatchFrame":
        """Kernel path: gather the frame straight from the window packs.

        ``cand_job`` (non-decreasing job positions) and ``cand_tpos``
        (transfer pack positions) are the matching kernels' final
        filtered candidate arrays — i.e. exactly the matched ragged
        mapping, in Algorithm 1's enumeration order.
        """
        jp, tp, it = columns.jobs, columns.transfers, columns.interner
        starts = group_boundaries(cand_job)
        job_rows = cand_job[starts]
        counts = np.diff(np.append(starts, len(cand_job))).astype(np.int64)

        src = tp.src[cand_tpos]
        dst = tp.dst[cand_tpos]
        # TransferRecord.is_local in code space: the empty and UNKNOWN
        # labels may be absent from the vocabulary (code_of -> -1),
        # which no real code equals, so the comparison stays correct.
        t_local = (
            (src == dst)
            & (src != it.code_of(UNKNOWN_SITE))
            & (src != it.code_of(""))
        )
        t_size = tp.size[cand_tpos]
        n_local = _segment_int_sums(t_local.astype(np.int64), counts)
        return cls(
            interner=it,
            pandaid=jp.pandaid[job_rows].copy(),
            status=jp.status[job_rows].copy(),
            taskstatus=jp.taskstatus[job_rows].copy(),
            site=jp.site[job_rows].copy(),
            creation=jp.creation[job_rows].copy(),
            start=jp.start[job_rows].copy(),
            end=jp.endtime[job_rows].copy(),
            n_transfers=counts,
            n_local=n_local,
            transfer_bytes=_segment_int_sums(t_size, counts),
            class_code=_class_codes(n_local, counts),
            job_offsets=_offsets(counts),
            t_row_id=tp.row_id[cand_tpos].copy(),
            t_start=tp.starttime[cand_tpos].copy(),
            t_end=tp.endtime[cand_tpos].copy(),
            t_size=t_size.copy(),
            t_local=t_local,
            transfer_rows=cand_tpos.copy(),
        )

    # -- pair/transfer-level summaries ----------------------------------------

    def _first_positions(self) -> np.ndarray:
        """First-occurrence positions of each distinct ``t_row_id``."""
        if self._row_first is None:
            _, self._row_first = first_occurrences(self.t_row_id)
        return self._row_first

    def matched_row_ids(self) -> np.ndarray:
        """Distinct matched transfer row ids (sorted)."""
        return self.t_row_id[np.sort(self._first_positions())]

    @property
    def n_matched_transfers(self) -> int:
        return len(self._first_positions())

    def matched_pairs(self) -> List[Tuple[int, int]]:
        """(pandaid, transfer row_id) pairs, first occurrence kept.

        The frame form of ``MatchResult.matched_pairs``: same pairs,
        same order, as tuples of Python ints.
        """
        pid = np.repeat(self.pandaid, self.n_transfers)
        rid = self.t_row_id
        keep = np.ones(len(rid), dtype=bool)
        if len(rid) > 1:
            # lexsort is stable, so each duplicate run starts at its
            # first occurrence; drop the rest of the run.
            order = np.lexsort((rid, pid))
            p, r = pid[order], rid[order]
            keep[order[1:][(p[1:] == p[:-1]) & (r[1:] == r[:-1])]] = False
        return list(zip(pid[keep].tolist(), rid[keep].tolist()))

    def local_remote_split(self) -> Tuple[int, int]:
        """(local, remote) over distinct transfers, first occurrence wins."""
        first = self._first_positions()
        local = int(self.t_local[first].sum())
        return local, len(first) - local

    def class_counts(self) -> np.ndarray:
        """Matched-job counts per transfer class, indexed by CLASS_ORDER."""
        return np.bincount(self.class_code, minlength=len(CLASS_ORDER))

    def jobs_by_class(self) -> dict:
        counts = self.class_counts()
        return {c: int(counts[i]) for i, c in enumerate(CLASS_ORDER)}


def _offsets(counts: np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _segment_int_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-segment int64 sums (exact; integer addition is associative)."""
    out = np.zeros(len(counts), dtype=np.int64)
    if len(values):
        seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        np.add.at(out, seg, values)
    return out


def _class_codes(n_local: np.ndarray, n_transfers: np.ndarray) -> np.ndarray:
    """Table-2b class per job: all-local, all-remote, else mixed."""
    return np.where(
        n_local == n_transfers, 0, np.where(n_local == 0, 1, 2)
    ).astype(np.int64)
