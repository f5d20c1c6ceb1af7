"""Metadata store: the OpenSearch-like querying module of Fig 4.

An in-memory document store with per-field hash indices and range
queries.  The analysis workflow retrieves job, file, and transfer
metadata through this store exactly as the paper's querying module
retrieves them from OpenSearch — time-window preselection first, field
filters after.

Two sources serve that retrieval surface.  :class:`OpenSearchLike` is
the record store: one sorted column per field, unpartitioned.
:class:`PackSource` is the array-native source of the paper-scale
rungs; its per-slice ``(values, ids)`` time shards are the only
partitioned index in the repo.
"""

from repro.metastore.index import FieldIndex
from repro.metastore.query import Query, Term, Terms, Range, Bool, Exists, MatchAll
from repro.metastore.store import DocumentStore
from repro.metastore.opensearch import OpenSearchLike, SearchResult
from repro.metastore.packsource import PackSource, SidecarColumns

__all__ = [
    "FieldIndex",
    "PackSource",
    "SidecarColumns",
    "Query",
    "Term",
    "Terms",
    "Range",
    "Bool",
    "Exists",
    "MatchAll",
    "DocumentStore",
    "OpenSearchLike",
    "SearchResult",
]
