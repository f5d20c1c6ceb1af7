"""OpenSearch-like façade.

The paper's analysis workflow (Fig 4) starts with an "OpenSearch
framework-based querying module" that retrieves job metadata from PanDA
and file/transfer metadata from Rucio for a common time window.  This
façade reproduces that surface: ingest the degraded telemetry, then ask
for jobs completed in a window and transfers started in a window.

It is the record store behind the campaign, stream and serve paths,
and the reference the array-native
:class:`~repro.metastore.packsource.PackSource` is checked against.
Each queried field keeps one sorted column over its whole collection,
built on the first query that reads it; window queries cut it with two
``searchsorted`` calls.  It is deliberately
not time-sharded: a partitioned variant made bulk ingest and the match
pass slower at campaign scale, for identical reports (DESIGN §11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.columnar.interner import StringInterner
from repro.columnar.packs import WindowColumns
from repro.metastore.query import Bool, Query, Range, Term, Terms
from repro.metastore.store import Collection, DocumentStore
from repro.obs import get_obs
from repro.telemetry.degradation import DegradedTelemetry
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord


@dataclass
class SearchResult:
    """A retrieval result with provenance."""

    collection: str
    query_description: str
    hits: List


class OpenSearchLike:
    """Query layer over the three telemetry collections."""

    JOB_FIELDS = (
        "pandaid", "jeditaskid", "computingsite", "prodsourcelabel",
        "status", "taskstatus", "creationtime", "starttime", "endtime",
    )
    FILE_FIELDS = (
        "pandaid", "jeditaskid", "lfn", "dataset", "proddblock", "scope",
        "file_size", "ftype",
    )
    TRANSFER_FIELDS = (
        "row_id", "lfn", "dataset", "proddblock", "scope", "file_size",
        "source_site", "destination_site", "activity", "is_download",
        "is_upload", "starttime", "endtime", "jeditaskid", "success",
    )

    def __init__(self) -> None:
        self.store = DocumentStore()
        self.jobs: Collection = self.store.create("jobs", self.JOB_FIELDS)
        self.files: Collection = self.store.create("files", self.FILE_FIELDS)
        self.transfers: Collection = self.store.create("transfers", self.TRANSFER_FIELDS)
        #: Shared dictionary encoding for the columnar kernels.  Warmed
        #: once at ingest (see :meth:`warm_interner`), so every window
        #: lowering afterwards reuses stable codes instead of growing a
        #: private vocabulary per window.
        self.interner = StringInterner()
        self._packs: Optional[WindowColumns] = None
        self._packs_generation = -1

    @classmethod
    def from_telemetry(cls, telemetry: DegradedTelemetry) -> "OpenSearchLike":
        os_like = cls()
        os_like.jobs.ingest(telemetry.jobs)
        os_like.files.ingest(telemetry.files)
        os_like.transfers.ingest(telemetry.transfers)
        os_like.warm_interner()
        return os_like

    def warm_interner(self) -> int:
        """Intern every string field Algorithm 1 joins or filters on.

        Idempotent (codes are append-only); returns the vocabulary
        size.  Call after out-of-band ingests to keep window lowerings
        allocation-free on the dictionary side.
        """
        self._warm(self.jobs, self.files, self.transfers)
        return len(self.interner)

    def _warm(self, jobs, files, transfers) -> None:
        intern = self.interner.intern
        for j in jobs:
            intern(j.computingsite)
            intern(j.status)
            intern(j.taskstatus)
        for f in files:
            intern(f.lfn)
            intern(f.dataset)
            intern(f.proddblock)
            intern(f.scope)
        for t in transfers:
            intern(t.lfn)
            intern(t.dataset)
            intern(t.proddblock)
            intern(t.scope)
            intern(t.source_site)
            intern(t.destination_site)
            intern(t.activity)

    def ingest_batch(
        self,
        jobs: Sequence[JobRecord] = (),
        files: Sequence[FileRecord] = (),
        transfers: Sequence[TransferRecord] = (),
    ) -> int:
        """Append a telemetry micro-batch; the derived state in use stays hot.

        The streaming ingest primitive: each collection appends, and
        only the field indices some query already built merge the delta
        (``Collection.ingest``); the delta strings warm the shared
        interner; and — when the full-table column packs were already
        lowered — only the delta records are lowered and concatenated
        onto them.  A caller that never queries (the stream's own
        store) therefore pays O(batch) per append.  The store
        generation bumps with every non-empty append, so
        ``ArtifactCache`` entries and persistent worker pools keyed on
        it invalidate exactly as they would for a bulk ingest.
        """
        jobs, files, transfers = list(jobs), list(files), list(transfers)
        obs = get_obs()
        with obs.tracer.span("metastore.ingest_batch", cat="metastore") as sp:
            had_packs = self._packs is not None
            n = 0
            if jobs:
                n += self.jobs.ingest(jobs)
            if files:
                n += self.files.ingest(files)
            if transfers:
                n += self.transfers.ingest(transfers)
            self._warm(jobs, files, transfers)
            if n and had_packs:
                self._packs = self._packs.extend(jobs, files, transfers)
                self._packs_generation = self.generation
            sp.set("n_jobs", len(jobs))
            sp.set("n_files", len(files))
            sp.set("n_transfers", len(transfers))
            sp.set("extended_packs", bool(n and had_packs))
        if obs.enabled:
            obs.metrics.counter("metastore.ingested_records").inc(n)
        return n

    # -- columnar lowering ----------------------------------------------------

    def column_packs(self) -> WindowColumns:
        """Full-table column packs, lowered once per data generation.

        Doc ids double as pack row positions (both follow ingestion
        order), so any id array from the query layer cuts a window's
        packs out of these via pure NumPy gathers — the per-record
        Python cost of lowering is paid once per ingest, not per
        window.  Stale packs are rebuilt automatically after further
        ingests (generation check).
        """
        gen = self.generation
        if self._packs is None or self._packs_generation != gen:
            with get_obs().tracer.span("metastore.lower_packs", cat="metastore") as sp:
                self._packs = WindowColumns.lower(
                    list(self.jobs), list(self.files), list(self.transfers),
                    self.interner,
                )
                self._packs_generation = gen
                sp.set("n_jobs", len(self.jobs))
                sp.set("n_files", len(self.files))
                sp.set("n_transfers", len(self.transfers))
        return self._packs

    def materialize_window(
        self, t0: float, t1: float, user_jobs_only: bool = True
    ) -> Tuple[List[JobRecord], List[FileRecord], List[TransferRecord], WindowColumns]:
        """One window's records *and* pre-lowered columns, in one pass.

        The §4.2 pre-selection (jobs completed in the window, one
        batched file lookup, transfers started in the window) evaluated
        to id arrays, then resolved twice from the same ids: to record
        lists (identical to the individual query methods) and to column
        packs gathered from :meth:`column_packs`.
        """
        with get_obs().tracer.span("metastore.materialize_window", cat="metastore") as sp:
            packs = self.column_packs()
            if user_jobs_only:
                job_query: Query = Bool(
                    must=[Range("endtime", gte=t0, lt=t1), Term("prodsourcelabel", "user")]
                )
            else:
                job_query = Range("endtime", gte=t0, lt=t1)
            job_ids = self.jobs.search_ids(job_query)
            transfer_ids = self.transfers.search_ids(Range("starttime", gte=t0, lt=t1))
            file_ids = self.files.search_ids(
                Terms("pandaid", packs.jobs.pandaid[job_ids].tolist())
            )
            sp.set("t0", t0)
            sp.set("t1", t1)
            sp.set("n_jobs", len(job_ids))
            sp.set("n_files", len(file_ids))
            sp.set("n_transfers", len(transfer_ids))
            return (
                self.jobs.take(job_ids),
                self.files.take(file_ids),
                self.transfers.take(transfer_ids),
                packs.take(job_ids, file_ids, transfer_ids),
            )

    # -- the retrieval patterns §4.2 relies on -------------------------------

    def jobs_completed_in(self, t0: float, t1: float) -> List[JobRecord]:
        """Jobs whose end time falls in [t0, t1) — running jobs excluded."""
        return self.jobs.search(Range("endtime", gte=t0, lt=t1))

    def user_jobs_completed_in(self, t0: float, t1: float) -> List[JobRecord]:
        return self.jobs.search(
            Bool(must=[Range("endtime", gte=t0, lt=t1), Term("prodsourcelabel", "user")])
        )

    def transfers_started_in(self, t0: float, t1: float) -> List[TransferRecord]:
        return self.transfers.search(Range("starttime", gte=t0, lt=t1))

    def transfers_with_taskid_in(self, t0: float, t1: float) -> List[TransferRecord]:
        return self.transfers.search(
            Bool(must=[Range("starttime", gte=t0, lt=t1), Range("jeditaskid", gt=0)])
        )

    def files_of_job(self, pandaid: int) -> List[FileRecord]:
        return self.files.search(Term("pandaid", pandaid))

    def files_of_jobs(self, pandaids: Sequence[int]) -> List[FileRecord]:
        """Batched file lookup: one terms query for a whole job set.

        Replaces the N+1 pattern of calling :meth:`files_of_job` per
        job during preselection; results come back in storage order,
        which is deterministic across processes.
        """
        with get_obs().tracer.span("metastore.files_of_jobs", cat="metastore") as sp:
            hits = self.files.search(Terms("pandaid", pandaids))
            sp.set("n_jobs", len(pandaids))
            sp.set("n_hits", len(hits))
            return hits

    def files_of_task(self, jeditaskid: int) -> List[FileRecord]:
        return self.files.search(Term("jeditaskid", jeditaskid))

    @property
    def generation(self) -> int:
        """Data version of the underlying store (cache-invalidation key)."""
        return self.store.generation

    def search(self, collection: str, query: Query, description: str = "") -> SearchResult:
        with get_obs().tracer.span("metastore.search", cat="metastore") as sp:
            hits = self.store.collection(collection).search(query)
            sp.set("collection", collection)
            sp.set("n_hits", len(hits))
        return SearchResult(collection=collection, query_description=description, hits=hits)
