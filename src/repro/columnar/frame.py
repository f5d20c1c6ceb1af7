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
  the ragged mapping.  The frame keeps the job runs, the locality
  flags and the class codes; every other column is gathered from the
  window's packs on its first read, so a method that only feeds
  Table 2 never gathers its times, sizes or ids.  This frame is the
  primary form of a kernel result: job counts, transfer ids and
  ``matched_pairs()`` answer from it, and the result's ``JobMatch``
  list is assembled only when read.  Parallel sweeps therefore build
  frames inside the worker processes.
* :meth:`MatchFrame.from_matches` — for results assembled as
  ``JobMatch`` lists (``select_job`` overrides, the stream's
  accumulated state), lowered the same way the packs lower records.

Distinct-transfer queries (``n_matched_transfers``,
``matched_row_ids``, ``local_remote_split``) read dense row-id codes:
a kernel-built frame takes them from its window's
:class:`~repro.columnar.packs.RowCodes` table, which every method over
the window shares, and any other frame codes its own ``t_row_id``.
Each query is then a scatter over the codes, not a sort.

A lazily gathered column is published whole, and the first publication
wins, so threads sharing a frame never see a partial column.  Pickling
gathers every column and drops the pack references, so a result
crossing the process pool ships only the matched slice (plus the
assembled match list).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.interner import StringInterner
from repro.columnar.kernels import dense_codes, group_boundaries
from repro.columnar.packs import RowCodes, WindowColumns
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
    transfer_rows: Optional[np.ndarray] = field(default=None, compare=False)

    #: ``(columns, job_rows)`` a kernel-built frame gathers its lazy
    #: columns from; dropped when the frame is pickled.
    _src: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    #: Cached TimingTable (owned by ``repro.core.analysis.queuing``);
    #: living here keeps the one-lowering-per-result contract without a
    #: weak-key side table (MatchResult is unhashable by design).
    _timing: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getattr__(self, name: str):
        """Gather a lazy column, or derive a row-code cache, on first read.

        Only reached for names not yet in the instance dict.  Racing
        readers each compute the same array; the first one published
        is kept and returned to all of them.
        """
        make = _LAZY.get(name)
        if make is None or (name in _GATHERED and self._src is None):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        return self.__dict__.setdefault(name, make(self))

    def __getstate__(self) -> dict:
        """A self-contained frame: every column gathered, and neither
        the window's packs nor its code table referenced."""
        if self._src is not None:
            for name in _GATHERED:
                getattr(self, name)
        return {k: v for k, v in self.__dict__.items() if k not in _WINDOW_STATE}

    def __eq__(self, other) -> bool:
        """Column-wise equality over the compared fields (NaN == NaN);
        interned codes compare under the same vocabulary."""
        if type(other) is not type(self):
            return NotImplemented
        if not (
            self.interner is other.interner
            or self.interner.strings == other.interner.strings
        ):
            return False
        for f in fields(self):
            if f.compare and f.name != "interner":
                a, b = getattr(self, f.name), getattr(other, f.name)
                if not np.array_equal(a, b, equal_nan=a.dtype.kind == "f"):
                    return False
        return True

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
        offsets = _offsets(counts)
        flat = [t for m in kept for t in m.transfers]
        n_local = np.array([m.n_local for m in kept], dtype=np.int64)
        t_size = np.array([t.file_size for t in flat], dtype=np.int64)
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
            n_transfers=counts,
            n_local=n_local,
            transfer_bytes=_segment_int_sums(t_size, offsets[:-1]),
            class_code=_class_codes(n_local, counts),
            job_offsets=offsets,
            t_row_id=np.array([t.row_id for t in flat], dtype=np.int64),
            t_start=np.array([t.starttime for t in flat], dtype=np.float64),
            t_end=np.array([t.endtime for t in flat], dtype=np.float64),
            t_size=t_size,
            t_local=np.array([t.is_local for t in flat], dtype=bool),
        )

    @classmethod
    def from_candidates(
        cls, columns: WindowColumns, cand_job: np.ndarray, cand_tpos: np.ndarray
    ) -> "MatchFrame":
        """Kernel path: a frame over the window packs, gathered lazily.

        ``cand_job`` (non-decreasing job positions) and ``cand_tpos``
        (transfer pack positions) are the matching kernels' final
        filtered candidate arrays — i.e. exactly the matched ragged
        mapping, in Algorithm 1's enumeration order.  The job runs, the
        locality flags and the class codes are computed here; the other
        columns are gathered from the packs when first read.
        """
        tp, it = columns.transfers, columns.interner
        starts = group_boundaries(cand_job)
        job_offsets = np.append(starts, len(cand_job))
        counts = np.diff(job_offsets)

        # TransferRecord.is_local in code space: the empty and UNKNOWN
        # labels may be absent from the vocabulary (code_of -> -1),
        # which no real code equals, so the comparison stays correct.
        src = tp.src[cand_tpos]
        t_local = src == tp.dst[cand_tpos]
        t_local &= src != it.code_of(UNKNOWN_SITE)
        t_local &= src != it.code_of("")
        n_local = _segment_int_sums(t_local, starts)
        # Bypass __init__: the lazy columns stay unset, so their first
        # read reaches __getattr__.
        frame = cls.__new__(cls)
        frame.__dict__.update(
            interner=it,
            n_transfers=counts,
            n_local=n_local,
            class_code=_class_codes(n_local, counts),
            job_offsets=job_offsets,
            t_local=t_local,
            transfer_rows=cand_tpos,
            _src=(columns, cand_job[starts]),
        )
        return frame

    # -- pair/transfer-level summaries ----------------------------------------

    def matched_row_ids(self) -> np.ndarray:
        """Distinct matched transfer row ids (sorted)."""
        return self._codes[1][self._seen]

    @property
    def n_matched_transfers(self) -> int:
        return int(np.count_nonzero(self._seen))

    def matched_flags(self, table: RowCodes) -> np.ndarray:
        """Per code of ``table``, whether this frame matched its row id.
        Over its own window's table that is the frame's code scatter;
        any other table looks the matched ids up."""
        if self._codes[1] is table.ids:
            return self._seen
        return table.flags(self.matched_row_ids())

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
        """(local, remote) over distinct transfers, first occurrence wins.

        One minimum-scatter finds each row id's first entry, whose
        locality flag decides (the same id at two pack positions may
        differ in locality).
        """
        codes, ids = self._codes
        first = np.full(len(ids), len(codes), dtype=np.int64)
        np.minimum.at(first, codes, np.arange(len(codes), dtype=np.int64))
        local = int(np.count_nonzero(self.t_local[first[self._seen]]))
        return local, self.n_matched_transfers - local

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


def _segment_int_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment int64 sums over the non-empty segments beginning at
    ``starts`` (exact; integer addition is associative)."""
    if not len(values):
        return np.zeros(len(starts), dtype=np.int64)
    return np.add.reduceat(values, starts, dtype=np.int64)


def _class_codes(n_local: np.ndarray, n_transfers: np.ndarray) -> np.ndarray:
    """Table-2b class per job: all-local, all-remote, else mixed."""
    return np.where(
        n_local == n_transfers, 0, np.where(n_local == 0, 1, 2)
    ).astype(np.int64)


def _job_column(name: str):
    def gather(frame: MatchFrame) -> np.ndarray:
        columns, job_rows = frame._src
        return getattr(columns.jobs, name)[job_rows]

    return gather


def _entry_column(name: str):
    def gather(frame: MatchFrame) -> np.ndarray:
        return getattr(frame._src[0].transfers, name)[frame.transfer_rows]

    return gather


def _row_codes(frame: MatchFrame) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, ids)`` per entry: the window's table for a kernel-built
    frame, the frame's own ``t_row_id`` otherwise."""
    if frame._src is not None:
        table = frame._src[0].row_codes()
        return table.codes[frame.transfer_rows], table.ids
    ids, codes = dense_codes(frame.t_row_id)
    return codes, ids


def _seen(frame: MatchFrame) -> np.ndarray:
    """Per row-id code, whether any entry carries it."""
    codes, ids = frame._codes
    seen = np.zeros(len(ids), dtype=bool)
    seen[codes] = True
    return seen


#: Lazily gathered columns of a kernel-built frame, by the pack column
#: they come from.
_GATHERED = {
    **{name: _job_column(col) for name, col in (
        ("pandaid", "pandaid"), ("status", "status"),
        ("taskstatus", "taskstatus"), ("site", "site"),
        ("creation", "creation"), ("start", "start"), ("end", "endtime"),
    )},
    **{name: _entry_column(col) for name, col in (
        ("t_row_id", "row_id"), ("t_start", "starttime"),
        ("t_end", "endtime"), ("t_size", "size"),
    )},
    "transfer_bytes": lambda f: _segment_int_sums(f.t_size, f.job_offsets[:-1]),
}
#: Everything ``__getattr__`` derives on first read.
_LAZY = {**_GATHERED, "_codes": _row_codes, "_seen": _seen}
#: Instance state tied to the window, never pickled.
_WINDOW_STATE = frozenset({"_src", "_codes", "_seen"})
