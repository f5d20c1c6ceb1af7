"""Structure-of-arrays column packs.

A *pack* is the columnar lowering of one record list: one NumPy array
per field Algorithm 1 or the §5 analyses touch, with string fields
dictionary-encoded through a shared
:class:`~repro.columnar.interner.StringInterner`.  Beyond the join
attributes, jobs carry their lifecycle timestamps, status codes and
error codes and transfers their end times and activity codes, so
matching and every default analysis (:mod:`repro.columnar.frame`, the
site dashboards) run on the packs alone and read no record.  Pack rows
are parallel to the window's record sequences: a caller that wants
records (a match list, a CLI table) indexes them by the same positions,
so the lowering never becomes a second schema.

Numeric domains: ids and byte counts must fit ``int64``; timestamps are
``float64``; a job with no ``endtime`` lowers to ``NaN`` so the strict
``starttime < endtime`` comparison is vacuously false, exactly like the
matcher hooks' ``is not None`` guard.

Each window also carries one :class:`RowCodes` table, built on first
use (:meth:`WindowColumns.row_codes`): dense codes over the joinable
transfers' row ids, from which every method's distinct-transfer count
and Table 1's matched flags are O(n) scatters and gathers.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.columnar.interner import StringInterner
from repro.columnar.kernels import dense_codes
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord


class _PackRows:
    """Row-gather support shared by the pack dataclasses."""

    def take(self, rows: np.ndarray):
        """A new pack holding ``rows`` (NumPy fancy-index per column).

        This is how window packs are cut from full-table packs: the
        metastore's doc ids double as pack row positions, so a window
        is one gather per column — no per-record Python work.  ``rows``
        must be sorted and unique (id arrays from the query layer are),
        which lets a full-table selection short-circuit to ``self`` —
        the common case when an analysis replays the whole campaign.
        """
        fields = dataclasses.fields(self)
        if len(rows) == len(getattr(self, fields[0].name)):
            return self
        return type(self)(**{f.name: getattr(self, f.name)[rows] for f in fields})

    def concat(self, other):
        """A new pack with ``other``'s rows appended (same field set).

        Column-wise ``np.concatenate`` — the append path of the
        streaming ingest, where a micro-batch's freshly lowered pack
        extends the full-table pack without re-lowering history.
        """
        fields = dataclasses.fields(self)
        return type(self)(**{
            f.name: np.concatenate([getattr(self, f.name), getattr(other, f.name)])
            for f in fields
        })


@dataclass
class JobPack(_PackRows):
    """Columns of a job window (parallel to the source record list)."""

    pandaid: np.ndarray  # int64
    jeditaskid: np.ndarray  # int64
    site: np.ndarray  # int64 codes
    endtime: np.ndarray  # float64, NaN = still running / unknown
    nin: np.ndarray  # int64 ninputfilebytes
    nout: np.ndarray  # int64 noutputfilebytes
    status: np.ndarray  # int64 codes
    taskstatus: np.ndarray  # int64 codes
    creation: np.ndarray  # float64
    start: np.ndarray  # float64, NaN = never started
    error_code: np.ndarray  # int64 (0 = no error)

    def __len__(self) -> int:
        return len(self.pandaid)


@dataclass
class FilePack(_PackRows):
    """Columns of the PanDA file rows for one window."""

    pandaid: np.ndarray  # int64
    jeditaskid: np.ndarray  # int64
    lfn: np.ndarray  # int64 codes
    dataset: np.ndarray  # int64 codes
    proddblock: np.ndarray  # int64 codes
    scope: np.ndarray  # int64 codes
    size: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.pandaid)


@dataclass
class TransferPack(_PackRows):
    """Columns of the Rucio transfer events for one window."""

    row_id: np.ndarray  # int64
    jeditaskid: np.ndarray  # int64 (0 = no task identity)
    lfn: np.ndarray  # int64 codes
    dataset: np.ndarray  # int64 codes
    proddblock: np.ndarray  # int64 codes
    scope: np.ndarray  # int64 codes
    size: np.ndarray  # int64
    src: np.ndarray  # int64 codes
    dst: np.ndarray  # int64 codes
    is_download: np.ndarray  # bool
    is_upload: np.ndarray  # bool
    starttime: np.ndarray  # float64
    endtime: np.ndarray  # float64
    activity: np.ndarray  # int64 codes

    def __len__(self) -> int:
        return len(self.row_id)


def lower_jobs(jobs: Sequence[JobRecord], interner: StringInterner) -> JobPack:
    return JobPack(
        pandaid=np.array([j.pandaid for j in jobs], dtype=np.int64),
        jeditaskid=np.array([j.jeditaskid for j in jobs], dtype=np.int64),
        site=interner.encode([j.computingsite for j in jobs]),
        endtime=np.array(
            [np.nan if j.endtime is None else j.endtime for j in jobs], dtype=np.float64
        ),
        nin=np.array([j.ninputfilebytes for j in jobs], dtype=np.int64),
        nout=np.array([j.noutputfilebytes for j in jobs], dtype=np.int64),
        status=interner.encode([j.status for j in jobs]),
        taskstatus=interner.encode([j.taskstatus for j in jobs]),
        creation=np.array([j.creationtime for j in jobs], dtype=np.float64),
        start=np.array(
            [np.nan if j.starttime is None else j.starttime for j in jobs],
            dtype=np.float64,
        ),
        error_code=np.array([j.error_code for j in jobs], dtype=np.int64),
    )


def lower_files(files: Sequence[FileRecord], interner: StringInterner) -> FilePack:
    return FilePack(
        pandaid=np.array([f.pandaid for f in files], dtype=np.int64),
        jeditaskid=np.array([f.jeditaskid for f in files], dtype=np.int64),
        lfn=interner.encode([f.lfn for f in files]),
        dataset=interner.encode([f.dataset for f in files]),
        proddblock=interner.encode([f.proddblock for f in files]),
        scope=interner.encode([f.scope for f in files]),
        size=np.array([f.file_size for f in files], dtype=np.int64),
    )


def lower_transfers(
    transfers: Sequence[TransferRecord], interner: StringInterner
) -> TransferPack:
    return TransferPack(
        row_id=np.array([t.row_id for t in transfers], dtype=np.int64),
        jeditaskid=np.array([t.jeditaskid for t in transfers], dtype=np.int64),
        lfn=interner.encode([t.lfn for t in transfers]),
        dataset=interner.encode([t.dataset for t in transfers]),
        proddblock=interner.encode([t.proddblock for t in transfers]),
        scope=interner.encode([t.scope for t in transfers]),
        size=np.array([t.file_size for t in transfers], dtype=np.int64),
        src=interner.encode([t.source_site for t in transfers]),
        dst=interner.encode([t.destination_site for t in transfers]),
        is_download=np.array([t.is_download for t in transfers], dtype=bool),
        is_upload=np.array([t.is_upload for t in transfers], dtype=bool),
        starttime=np.array([t.starttime for t in transfers], dtype=np.float64),
        endtime=np.array([t.endtime for t in transfers], dtype=np.float64),
        activity=interner.encode([t.activity for t in transfers]),
    )


@dataclass(frozen=True, eq=False)
class RowCodes:
    """Dense codes over the row ids of a transfer pack's joinable rows.

    ``rows`` lists the joinable rows (a positive task id: the join's
    rule, and Table 1's population) and ``ids`` their distinct row ids
    in ascending order.  ``codes[p]`` is the position of row ``p``'s id
    in ``ids`` for every joinable row and -1 for the rest.  Rows
    sharing an id share a code, wherever they sit in the pack.
    """

    ids: np.ndarray  # int64, ascending, distinct
    rows: np.ndarray  # int64, ascending pack positions
    codes: np.ndarray  # int64, one per pack row

    @classmethod
    def of(cls, transfers: "TransferPack") -> "RowCodes":
        rows = (transfers.jeditaskid > 0).nonzero()[0]
        ids, codes = dense_codes(transfers.row_id[rows])
        by_row = np.full(len(transfers), -1, dtype=np.int64)
        by_row[rows] = codes
        return cls(ids=ids, rows=rows, codes=by_row)

    def flags(self, row_ids: np.ndarray) -> np.ndarray:
        """Per code, whether its id is in ``row_ids`` (ascending)."""
        out = np.zeros(len(self.ids), dtype=bool)
        if len(self.ids) and len(row_ids):
            pos = np.minimum(np.searchsorted(self.ids, row_ids), len(self.ids) - 1)
            out[pos[self.ids[pos] == row_ids]] = True
        return out


@dataclass
class WindowColumns:
    """All three packs of one window, lowered through one interner."""

    interner: StringInterner
    jobs: JobPack
    files: FilePack
    transfers: TransferPack

    @classmethod
    def lower(
        cls,
        jobs: Sequence[JobRecord],
        files: Sequence[FileRecord],
        transfers: Sequence[TransferRecord],
        interner: Optional[StringInterner] = None,
    ) -> "WindowColumns":
        it = interner if interner is not None else StringInterner()
        return cls(
            interner=it,
            jobs=lower_jobs(jobs, it),
            files=lower_files(files, it),
            transfers=lower_transfers(transfers, it),
        )

    def row_codes(self) -> RowCodes:
        """The window's :class:`RowCodes`, built on the first call.

        Racing first callers each build an equal table and the first
        one published is kept, so every reader sees a complete table.
        """
        table = self.__dict__.get("_row_codes")
        if table is None:
            table = self.__dict__.setdefault("_row_codes", RowCodes.of(self.transfers))
        return table

    def __getstate__(self) -> dict:
        """Pickle the packs, not the derived code table."""
        state = dict(self.__dict__)
        state.pop("_row_codes", None)
        return state

    def take(
        self,
        job_rows: np.ndarray,
        file_rows: np.ndarray,
        transfer_rows: np.ndarray,
    ) -> "WindowColumns":
        """Cut a window's columns out of full-table columns by row ids."""
        return WindowColumns(
            interner=self.interner,
            jobs=self.jobs.take(job_rows),
            files=self.files.take(file_rows),
            transfers=self.transfers.take(transfer_rows),
        )

    def extend(
        self,
        jobs: Sequence[JobRecord],
        files: Sequence[FileRecord],
        transfers: Sequence[TransferRecord],
    ) -> "WindowColumns":
        """A new ``WindowColumns`` with the delta records appended.

        Only the delta is lowered (through the *same* interner, so
        codes stay stable across batches); existing columns are reused
        by concatenation.  This keeps streaming ingest linear in the
        event count rather than re-lowering the whole history per
        micro-batch.
        """
        return WindowColumns(
            interner=self.interner,
            jobs=self.jobs.concat(lower_jobs(jobs, self.interner)),
            files=self.files.concat(lower_files(files, self.interner)),
            transfers=self.transfers.concat(lower_transfers(transfers, self.interner)),
        )
