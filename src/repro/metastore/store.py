"""Document store.

Documents are plain dataclass instances (or dicts); a field is indexed
on the first query that reads it, by one :class:`FieldIndex` over the
whole collection — the store does not partition its indices (the
time-sharded index is :class:`~repro.metastore.packsource.PackSource`'s).
Ingest keeps only the indices already built current, so an append no
query reads costs O(batch).  One store holds many named collections —
the analysis uses ``jobs``, ``files``, and ``transfers``.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.metastore.index import FieldIndex
from repro.metastore.query import Query
from repro.obs import SIZE_BUCKETS, get_obs


@lru_cache(maxsize=None)  # keyed by document type: a handful per process
def _field_names(cls: type) -> Optional[FrozenSet[str]]:
    """Top-level field names of a dataclass type; None for dicts."""
    if dataclasses.is_dataclass(cls):
        return frozenset(f.name for f in dataclasses.fields(cls))
    if issubclass(cls, dict):
        return None
    raise TypeError(f"cannot ingest document of type {cls!r}")


def _value(doc: Any, fld: str) -> Any:
    """``doc``'s top-level ``fld`` when it is a scalar, else None."""
    names = _field_names(type(doc))
    value = doc.get(fld) if names is None else getattr(doc, fld) if fld in names else None
    return value if isinstance(value, (str, int, float, bool)) else None


class Collection:
    """One collection of documents, each field indexed on demand.

    The first query that reads a field builds its :class:`FieldIndex`
    and publishes it complete and frozen.  Readers never mutate a
    published index, so readers racing a first build (the serving
    layer's shared read lock) each build the same index and the first
    one published wins.
    """

    def __init__(self, name: str, indexed_fields: Optional[Sequence[str]] = None) -> None:
        self.name = name
        self._docs: List[Any] = []
        self._indices: Dict[str, FieldIndex] = {}  # built indices only
        self._indexed_fields = set(indexed_fields) if indexed_fields else None
        #: Bumped on every ingest batch; cache layers key materialized
        #: artifacts on it so stale results can never be served after
        #: the collection changes.
        self.generation = 0

    def ingest(self, docs: Iterable[Any]) -> int:
        """Append documents; only the built indices merge them (see
        ``FieldIndex.freeze``), so unqueried fields cost nothing here."""
        docs = list(docs)
        for doc in docs:
            _field_names(type(doc))  # rejects what cannot be indexed
        base = len(self._docs)
        self._docs.extend(docs)
        self.generation += 1
        for fld, idx in self._indices.items():
            for doc_id, doc in enumerate(docs, base):
                idx.add(doc_id, _value(doc, fld))
            idx.freeze()
        return len(docs)

    def field_index(self, name: str) -> FieldIndex:
        """The field's index, built from the documents on first use.

        A field outside ``indexed_fields`` behaves like an empty index
        (OpenSearch semantics: no documents match) and is never built.
        """
        idx = self._indices.get(name)
        if idx is not None:
            return idx
        if self._indexed_fields is not None and name not in self._indexed_fields:
            return FieldIndex(name)
        docs = self._docs
        with get_obs().tracer.span("metastore.build_index", cat="metastore") as sp:
            idx = FieldIndex(name)
            for doc_id, doc in enumerate(docs):
                idx.add(doc_id, _value(doc, name))
            idx.freeze()
            sp.set("collection", self.name)
            sp.set("field", name)
            sp.set("n_docs", len(docs))
        return self._indices.setdefault(name, idx)

    def all_ids(self) -> Set[int]:
        return set(range(len(self._docs)))

    def get(self, doc_id: int) -> Any:
        return self._docs[doc_id]

    def search_ids(self, query: Query) -> np.ndarray:
        """Matching doc ids in storage order, as an int64 array.

        Bare range queries take the array fast path (sort the sorted-
        column slice directly; doc ids are unique per field index, so
        this is equivalent to ``sorted(set(...))``).  Columnar window
        materialization builds on this: an id array turns per-window
        column packs into pure NumPy gathers.
        """
        evaluate_ids = getattr(query, "evaluate_ids", None)
        if evaluate_ids is not None:
            arr = np.sort(evaluate_ids(self))
            path = "array"
        else:
            ids = query.evaluate(self)
            arr = np.fromiter(ids, dtype=np.int64, count=len(ids))
            arr.sort()
            path = "set"
        obs = get_obs()
        if obs.enabled:
            obs.metrics.counter(
                "metastore.queries", collection=self.name, path=path
            ).inc()
            obs.metrics.histogram(
                "metastore.hit_size", edges=SIZE_BUCKETS, collection=self.name
            ).observe(len(arr))
        return arr

    def take(self, ids: np.ndarray) -> List[Any]:
        """Documents for an id array (storage order preserved)."""
        return list(map(self._docs.__getitem__, ids.tolist()))

    def search(self, query: Query) -> List[Any]:
        return self.take(self.search_ids(query))

    def count(self, query: Query) -> int:
        return len(query.evaluate(self))

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self):
        return iter(self._docs)


class DocumentStore:
    """Named collections with shared lifecycle."""

    def __init__(self) -> None:
        self._collections: Dict[str, Collection] = {}

    def create(self, name: str, indexed_fields: Optional[Sequence[str]] = None) -> Collection:
        """Create an empty collection; names are unique per store."""
        if name in self._collections:
            raise ValueError(f"collection exists: {name}")
        col = self._collections[name] = Collection(name, indexed_fields)
        return col

    def collection(self, name: str) -> Collection:
        try:
            return self._collections[name]
        except KeyError:
            raise KeyError(f"no such collection: {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def names(self) -> List[str]:
        return sorted(self._collections)

    @property
    def generation(self) -> int:
        """Monotone data version over all collections.

        Any ingest into any collection changes it, so it is a safe
        cache key for derived artifacts (see ``repro.exec``).
        """
        return sum(col.generation for col in self._collections.values())
