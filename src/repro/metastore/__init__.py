"""Metadata store: the OpenSearch-like querying module of Fig 4.

The analysis workflow retrieves job, file, and transfer metadata
through this store exactly as the paper's querying module retrieves
them from OpenSearch — time-window preselection first, field filters
after.

:class:`PackSource` is the one store.  Its storage is the column packs
the matching kernels read, plus a few sidecar columns that make every
record recoverable; record objects are built lazily, only when
something reads them.  Its per-slice ``(values, ids)`` time shards over
job ``endtime`` and transfer ``starttime`` are the index every window
query cuts, and micro-batches append in O(batch) through
:meth:`PackSource.ingest_batch`.
"""

from repro.metastore.packsource import PackSource, SidecarColumns

__all__ = [
    "PackSource",
    "SidecarColumns",
]
