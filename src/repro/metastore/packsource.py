"""Array-native sharded telemetry source: the repo's one metastore.

:class:`PackSource` serves the query surface the matching and analysis
layers use (``materialize_window``, the §4.2 retrieval patterns,
``column_packs``, ``generation``) and the append path the serving
layer writes through (``ingest_batch``); its storage *is* the column
packs.  No per-record document list exists; record objects are
materialized lazily, one row at a time, only when something actually
touches them.  Matching and
the default analyses read only the packs, so a window pass builds no
record at all; a kernel result's match list, when read, builds only
its matched jobs and transfers.

Three pieces make it scale:

* **sidecar columns** — the handful of record fields the packs don't
  carry (``prodsourcelabel``, ``error_message``, ``ftype``,
  ``success``), kept as arrays so every record field is faithfully
  recoverable;
* **time shards** — per-slice sorted ``(values, ids)`` indices over job
  endtime and transfer starttime (the two fields window preselection
  ranges over), so a window query touches only the shards it overlaps
  and appends land in the tail shard without re-sorting history;
* **lazy record views** — :class:`LazyRecords` sequences that build a
  record from the arrays on ``__getitem__`` and cache it, so repeated
  access returns the identical object (record identity holds across
  repeated reads).

Every array here may be a read-only ``np.memmap`` — this is exactly the
object executor workers reconstruct when they attach to a spooled pack
archive (:mod:`repro.columnar.shm`) instead of unpickling the source.
"""

from __future__ import annotations

import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.interner import StringInterner
from repro.columnar.kernels import ragged_arange, sorted_unique
from repro.columnar.packs import WindowColumns
from repro.obs import SIZE_BUCKETS, get_obs
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord

DEFAULT_SHARD_SECONDS = 24 * 3600.0


@dataclass
class SidecarColumns:
    """Record fields the match/analysis packs don't carry.

    Together with :class:`WindowColumns` these make record
    reconstruction lossless: ``record == original`` for every row.
    """

    job_label: np.ndarray  # int64 codes (prodsourcelabel)
    job_error_message: np.ndarray  # int64 codes
    file_ftype: np.ndarray  # int64 codes
    transfer_success: np.ndarray  # bool

    def concat(self, other: "SidecarColumns") -> "SidecarColumns":
        return SidecarColumns(**{
            f.name: np.concatenate([getattr(self, f.name), getattr(other, f.name)])
            for f in dataclass_fields(self)
        })


def lower_sidecar(
    jobs: Sequence[JobRecord],
    files: Sequence[FileRecord],
    transfers: Sequence[TransferRecord],
    interner: StringInterner,
) -> SidecarColumns:
    return SidecarColumns(
        job_label=interner.encode([j.prodsourcelabel for j in jobs]),
        job_error_message=interner.encode([j.error_message for j in jobs]),
        file_ftype=interner.encode([f.ftype for f in files]),
        transfer_success=np.array([t.success for t in transfers], dtype=bool),
    )


class LazyRecords(SequenceABC):
    """A sequence of records materialized (and cached) per access.

    ``ids`` are global pack row positions; ``make(row)`` builds the
    record for one row.  Caching per position keeps object identity
    stable across repeated access, which downstream code may rely on;
    equality with eagerly built records holds because the record
    dataclasses compare by value.  Two threads reading a row for the
    first time may both build it, but only the first record published
    is ever handed out.
    """

    def __init__(self, make, ids: np.ndarray) -> None:
        self._make = make
        self._ids = ids
        self._cache: Dict[int, object] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self._ids)
            if i < 0:
                raise IndexError("LazyRecords index out of range")
        rec = self._cache.get(i)
        if rec is None:
            rec = self._cache.setdefault(i, self._make(int(self._ids[i])))
        return rec

    def __iter__(self):
        for i in range(len(self._ids)):
            yield self[i]

    @property
    def row_ids(self) -> np.ndarray:
        return self._ids


class _TimeShards:
    """Per-slice sorted (values, ids) indices over one timestamp column.

    Shard key = ``floor(value / slice_seconds)``; within a shard,
    values (and their global row ids) are value-sorted, so a window cut
    is a pair of ``searchsorted`` calls per overlapped shard.  Rows with
    NaN values (a job with no ``endtime``) are excluded, so no window
    selects them.
    """

    def __init__(self, values: np.ndarray, slice_seconds: float) -> None:
        self.slice_seconds = float(slice_seconds)
        self.shards: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self.extend(values, base=0)

    @classmethod
    def from_sorted(
        cls, vals: np.ndarray, ids: np.ndarray, slice_seconds: float
    ) -> "_TimeShards":
        """Rebuild shards from a value-sorted (values, ids) flat pair.

        The inverse of :meth:`sorted_flat`: shard keys are monotone in
        value, so each shard is a contiguous run and the rebuild is
        pure slicing — ``vals``/``ids`` may be read-only memmaps and
        the shards become zero-copy views into them.  This is the
        executor-worker attach path.
        """
        self = cls.__new__(cls)
        self.slice_seconds = float(slice_seconds)
        self.shards = {}
        if len(vals):
            keys = np.floor_divide(vals, self.slice_seconds).astype(np.int64)
            edges = np.flatnonzero(np.diff(keys)) + 1
            starts = np.concatenate([[0], edges])
            stops = np.concatenate([edges, [len(keys)]])
            for s, e in zip(starts, stops):
                self.shards[int(keys[s])] = (vals[s:e], ids[s:e])
        return self

    def extend(self, values: np.ndarray, base: int) -> None:
        """Index ``values`` whose global row ids start at ``base``.

        Only shards that actually receive new rows are touched; an
        append of recent telemetry re-merges the tail shard and leaves
        history alone.
        """
        valid = np.flatnonzero(~np.isnan(values))
        if not len(valid):
            return
        vals = values[valid].astype(np.float64)
        ids = (valid + base).astype(np.int64)
        keys = np.floor_divide(vals, self.slice_seconds).astype(np.int64)
        order = np.lexsort((ids, vals))
        vals, ids, keys = vals[order], ids[order], keys[order]
        # keys are monotone in vals, so each shard is a contiguous run
        edges = np.flatnonzero(np.diff(keys)) + 1
        starts = np.concatenate([[0], edges])
        stops = np.concatenate([edges, [len(keys)]])
        for s, e in zip(starts, stops):
            k = int(keys[s])
            old = self.shards.get(k)
            if old is None:
                self.shards[k] = (vals[s:e], ids[s:e])
            else:
                ov, oi = old
                at = np.searchsorted(ov, vals[s:e], side="right")
                self.shards[k] = (np.insert(ov, at, vals[s:e]), np.insert(oi, at, ids[s:e]))

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def route(self, t0: float, t1: float) -> List[int]:
        """Shard keys that may hold a value in [t0, t1), in key order.

        The lower cut keys ``t0`` with the same ``floor_divide`` that
        keyed the values, so a value exactly at ``t0`` is never routed
        past (the float product ``(k + 1) * s`` can round down onto a
        value that ``floor_divide`` put in shard ``k``).  The upper cut
        ``k * s < t1`` is exact as it stands: ``k * s`` never rounds
        above a value of shard ``k``.  Infinite bounds stay unkeyed,
        since ``floor_divide`` of an infinity is NaN.
        """
        s = self.slice_seconds
        lo = float(np.floor_divide(t0, s)) if math.isfinite(t0) else t0
        return sorted(k for k in self.shards if lo <= k and k * s < t1)

    def ids_in(self, t0: float, t1: float, collection: str = "") -> np.ndarray:
        """Global row ids with value in [t0, t1), id-sorted.

        ``side="left"`` at both bounds is the searchsorted lowering of
        the repo-wide half-open convention (:mod:`repro.window`); the
        routing above may over-select shards, never records.
        """
        keys = self.route(t0, t1)
        obs = get_obs()
        with obs.tracer.span("metastore.shard_route", cat="metastore") as sp:
            sp.set("collection", collection)
            sp.set("shards_scanned", len(keys))
            sp.set("shards_total", len(self.shards))
            parts = []
            for k in keys:
                vals, ids = self.shards[k]
                lo = int(np.searchsorted(vals, t0, side="left"))
                hi = int(np.searchsorted(vals, t1, side="left"))
                if lo < hi:
                    parts.append(ids[lo:hi])
        if obs.enabled:
            obs.metrics.counter(
                "metastore.shard_route", collection=collection, op="range"
            ).inc()
            obs.metrics.counter(
                "metastore.shards_scanned", collection=collection, op="range"
            ).inc(len(keys))
            obs.metrics.counter(
                "metastore.shards_total", collection=collection, op="range"
            ).inc(self.n_shards)
        if not parts:
            return np.empty(0, dtype=np.int64)
        out = np.concatenate(parts) if len(parts) > 1 else parts[0].copy()
        out.sort()
        return out

    def sorted_flat(self) -> Tuple[np.ndarray, np.ndarray]:
        """All (values, ids) concatenated in global value order.

        Shard keys are monotone in value and each shard is internally
        sorted, so concatenating shards in key order *is* the global
        sort — this is what the shm exporter spools so workers can
        rebuild shards with pure slicing.
        """
        keys = sorted(self.shards)
        if not keys:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        vals = np.concatenate([self.shards[k][0] for k in keys])
        ids = np.concatenate([self.shards[k][1] for k in keys])
        return vals, ids


def _float_or_none(v: float) -> Optional[float]:
    return None if math.isnan(v) else float(v)


def _counted(collection: str, ids: np.ndarray) -> np.ndarray:
    """Record one id query and its hit size; returns ``ids``."""
    obs = get_obs()
    if obs.enabled:
        obs.metrics.counter("metastore.queries", collection=collection).inc()
        obs.metrics.histogram(
            "metastore.hit_size", edges=SIZE_BUCKETS, collection=collection
        ).observe(len(ids))
    return ids


class PackSource:
    """Sharded, array-backed telemetry source with lazy record views."""

    def __init__(
        self,
        columns: WindowColumns,
        sidecar: SidecarColumns,
        shard_seconds: float = DEFAULT_SHARD_SECONDS,
        generation: int = 1,
        index_arrays: Optional[tuple] = None,
    ) -> None:
        self.columns = columns
        self.sidecar = sidecar
        self.interner = columns.interner
        self.shard_seconds = float(shard_seconds)
        self._generation = int(generation)
        with get_obs().tracer.span("metastore.packsource_index", cat="metastore") as sp:
            if index_arrays is not None:
                # Attach path: pre-sorted index arrays (possibly
                # read-only memmaps) spooled by the shm exporter —
                # shard rebuild is pure slicing, no sorts.
                jv, ji, tv, ti, fo = index_arrays
                self._job_shards = _TimeShards.from_sorted(jv, ji, self.shard_seconds)
                self._transfer_shards = _TimeShards.from_sorted(
                    tv, ti, self.shard_seconds
                )
                self._file_order = fo
            else:
                self._job_shards = _TimeShards(columns.jobs.endtime, self.shard_seconds)
                self._transfer_shards = _TimeShards(
                    columns.transfers.starttime, self.shard_seconds
                )
                self._file_order = np.argsort(columns.files.pandaid, kind="stable")
            self._file_pandaid_sorted = columns.files.pandaid[self._file_order]
            sp.set("job_shards", self._job_shards.n_shards)
            sp.set("transfer_shards", self._transfer_shards.n_shards)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        jobs: Sequence[JobRecord],
        files: Sequence[FileRecord],
        transfers: Sequence[TransferRecord],
        interner: Optional[StringInterner] = None,
        shard_seconds: float = DEFAULT_SHARD_SECONDS,
    ) -> "PackSource":
        """Bulk-build a source; rows keep the records' order."""
        it = interner if interner is not None else StringInterner()
        columns = WindowColumns.lower(jobs, files, transfers, it)
        sidecar = lower_sidecar(jobs, files, transfers, it)
        source = cls(columns, sidecar, shard_seconds=shard_seconds)
        obs = get_obs()
        if obs.enabled:
            obs.metrics.counter("metastore.ingested_records").inc(
                len(jobs) + len(files) + len(transfers)
            )
        return source

    # -- ingest --------------------------------------------------------------

    def ingest_batch(
        self,
        jobs: Sequence[JobRecord] = (),
        files: Sequence[FileRecord] = (),
        transfers: Sequence[TransferRecord] = (),
    ) -> int:
        """Append a telemetry micro-batch; it lands in the tail shard(s).

        Every item must be its collection's record type; anything else
        raises ``TypeError`` before any column, shard or generation
        changes.  Only the delta is lowered, through the shared
        interner, and concatenated onto the columns
        (:meth:`WindowColumns.extend`); only shards receiving rows are
        re-merged, and the file-pandaid index merges the delta in
        O(rows).  A non-empty append bumps the generation, so every
        cache and worker pool keyed on it invalidates.
        """
        jobs, files, transfers = list(jobs), list(files), list(transfers)
        for items, kind in ((jobs, JobRecord), (files, FileRecord),
                            (transfers, TransferRecord)):
            for item in items:
                if not isinstance(item, kind):
                    raise TypeError(
                        f"cannot ingest {type(item).__name__} as {kind.__name__}"
                    )
        n = len(jobs) + len(files) + len(transfers)
        obs = get_obs()
        with obs.tracer.span("metastore.ingest_batch", cat="metastore") as sp:
            sp.set("n_jobs", len(jobs))
            sp.set("n_files", len(files))
            sp.set("n_transfers", len(transfers))
            if n:
                self._append(jobs, files, transfers)
        if obs.enabled:
            obs.metrics.counter("metastore.ingested_records").inc(n)
        return n

    def _append(self, jobs, files, transfers) -> None:
        old = self.columns
        columns = old.extend(jobs, files, transfers)
        sidecar = self.sidecar.concat(
            lower_sidecar(jobs, files, transfers, self.interner)
        )
        job_base, file_base = len(old.jobs), len(old.files)
        transfer_base = len(old.transfers)
        self.columns, self.sidecar = columns, sidecar
        self._job_shards.extend(columns.jobs.endtime[job_base:], base=job_base)
        self._transfer_shards.extend(
            columns.transfers.starttime[transfer_base:], base=transfer_base
        )
        # New rows sort after every equal pandaid already indexed, which
        # is where a stable argsort of the whole column puts them.
        pid = columns.files.pandaid[file_base:]
        order = np.argsort(pid, kind="stable")
        at = np.searchsorted(self._file_pandaid_sorted, pid[order], side="right")
        self._file_order = np.insert(self._file_order, at, order + file_base)
        self._file_pandaid_sorted = np.insert(self._file_pandaid_sorted, at, pid[order])
        self._generation += 1

    # -- record reconstruction ----------------------------------------------

    def job_record(self, row: int) -> JobRecord:
        jp = self.columns.jobs
        sc = self.sidecar
        decode = self.interner.decode
        return JobRecord(
            pandaid=int(jp.pandaid[row]),
            jeditaskid=int(jp.jeditaskid[row]),
            computingsite=decode(int(jp.site[row])),
            prodsourcelabel=decode(int(sc.job_label[row])),
            status=decode(int(jp.status[row])),
            taskstatus=decode(int(jp.taskstatus[row])),
            creationtime=float(jp.creation[row]),
            starttime=_float_or_none(float(jp.start[row])),
            endtime=_float_or_none(float(jp.endtime[row])),
            ninputfilebytes=int(jp.nin[row]),
            noutputfilebytes=int(jp.nout[row]),
            error_code=int(jp.error_code[row]),
            error_message=decode(int(sc.job_error_message[row])),
        )

    def file_record(self, row: int) -> FileRecord:
        fp = self.columns.files
        decode = self.interner.decode
        return FileRecord(
            pandaid=int(fp.pandaid[row]),
            jeditaskid=int(fp.jeditaskid[row]),
            lfn=decode(int(fp.lfn[row])),
            dataset=decode(int(fp.dataset[row])),
            proddblock=decode(int(fp.proddblock[row])),
            scope=decode(int(fp.scope[row])),
            file_size=int(fp.size[row]),
            ftype=decode(int(self.sidecar.file_ftype[row])),
        )

    def transfer_record(self, row: int) -> TransferRecord:
        tp = self.columns.transfers
        decode = self.interner.decode
        return TransferRecord(
            row_id=int(tp.row_id[row]),
            lfn=decode(int(tp.lfn[row])),
            scope=decode(int(tp.scope[row])),
            dataset=decode(int(tp.dataset[row])),
            proddblock=decode(int(tp.proddblock[row])),
            file_size=int(tp.size[row]),
            source_site=decode(int(tp.src[row])),
            destination_site=decode(int(tp.dst[row])),
            activity=decode(int(tp.activity[row])),
            is_download=bool(tp.is_download[row]),
            is_upload=bool(tp.is_upload[row]),
            starttime=float(tp.starttime[row]),
            endtime=float(tp.endtime[row]),
            success=bool(self.sidecar.transfer_success[row]),
            jeditaskid=int(tp.jeditaskid[row]),
        )

    def _job_views(self, ids: np.ndarray) -> LazyRecords:
        return LazyRecords(self.job_record, ids)

    def _file_views(self, ids: np.ndarray) -> LazyRecords:
        return LazyRecords(self.file_record, ids)

    def _transfer_views(self, ids: np.ndarray) -> LazyRecords:
        return LazyRecords(self.transfer_record, ids)

    # -- id-level window queries ---------------------------------------------

    def job_ids_completed_in(
        self, t0: float, t1: float, user_only: bool = False
    ) -> np.ndarray:
        ids = self._job_shards.ids_in(t0, t1, collection="jobs")
        if user_only and len(ids):
            # code_of is -1 when no "user" label was ever interned,
            # which matches no label code — the correct empty answer.
            ids = ids[self.sidecar.job_label[ids] == self.interner.code_of("user")]
        return _counted("jobs", ids)

    def transfer_ids_started_in(self, t0: float, t1: float) -> np.ndarray:
        return _counted(
            "transfers", self._transfer_shards.ids_in(t0, t1, collection="transfers")
        )

    def file_ids_of_jobs(self, pandaids: np.ndarray) -> np.ndarray:
        """File rows whose pandaid is in ``pandaids``, id-sorted."""
        if not len(pandaids):
            return _counted("files", np.empty(0, dtype=np.int64))
        uniq = sorted_unique(np.asarray(pandaids, dtype=np.int64))
        lo = np.searchsorted(self._file_pandaid_sorted, uniq, side="left")
        hi = np.searchsorted(self._file_pandaid_sorted, uniq, side="right")
        out = self._file_order[ragged_arange(lo, hi - lo)]
        out.sort()
        return _counted("files", out)

    # -- the §4.2 retrieval surface -------------------------------------------

    def materialize_window(
        self, t0: float, t1: float, user_jobs_only: bool = True
    ) -> Tuple[Sequence[JobRecord], Sequence[FileRecord], Sequence[TransferRecord], WindowColumns]:
        with get_obs().tracer.span("metastore.materialize_window", cat="metastore") as sp:
            job_ids = self.job_ids_completed_in(t0, t1, user_only=user_jobs_only)
            transfer_ids = self.transfer_ids_started_in(t0, t1)
            file_ids = self.file_ids_of_jobs(self.columns.jobs.pandaid[job_ids])
            sp.set("t0", t0)
            sp.set("t1", t1)
            sp.set("n_jobs", len(job_ids))
            sp.set("n_files", len(file_ids))
            sp.set("n_transfers", len(transfer_ids))
            return (
                self._job_views(job_ids),
                self._file_views(file_ids),
                self._transfer_views(transfer_ids),
                self.columns.take(job_ids, file_ids, transfer_ids),
            )

    def jobs_completed_in(self, t0: float, t1: float) -> Sequence[JobRecord]:
        return self._job_views(self.job_ids_completed_in(t0, t1))

    def user_jobs_completed_in(self, t0: float, t1: float) -> Sequence[JobRecord]:
        return self._job_views(self.job_ids_completed_in(t0, t1, user_only=True))

    def transfers_started_in(self, t0: float, t1: float) -> Sequence[TransferRecord]:
        return self._transfer_views(self.transfer_ids_started_in(t0, t1))

    def files_of_job(self, pandaid: int) -> Sequence[FileRecord]:
        return self._file_views(self.file_ids_of_jobs(np.array([pandaid], dtype=np.int64)))

    def files_of_jobs(self, pandaids: Sequence[int]) -> Sequence[FileRecord]:
        return self._file_views(
            self.file_ids_of_jobs(np.asarray(list(pandaids), dtype=np.int64))
        )

    # -- columnar / lifecycle surface ----------------------------------------

    def column_packs(self) -> WindowColumns:
        return self.columns

    @property
    def generation(self) -> int:
        return self._generation

    def shard_counts(self) -> dict:
        return {
            "jobs": self._job_shards.n_shards,
            "files": 1,
            "transfers": self._transfer_shards.n_shards,
        }

    @property
    def n_shards(self) -> int:
        return self._job_shards.n_shards + self._transfer_shards.n_shards

    def index_arrays(self) -> tuple:
        """The five pre-sorted index arrays ``__init__`` can rebuild
        shards from without sorting (what the shm exporter spools)."""
        jv, ji = self._job_shards.sorted_flat()
        tv, ti = self._transfer_shards.sorted_flat()
        return jv, ji, tv, ti, np.asarray(self._file_order)

    def counts(self) -> dict:
        return {
            "jobs": len(self.columns.jobs),
            "files": len(self.columns.files),
            "transfers": len(self.columns.transfers),
        }
