"""Document store.

Documents are plain dataclass instances (or dicts); fields are indexed
lazily on first ingestion, each by one :class:`FieldIndex` over the
whole collection — the store does not partition its indices (the
time-sharded index is :class:`~repro.metastore.packsource.PackSource`'s).
One store holds many named collections — the analysis uses ``jobs``,
``files``, and ``transfers``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.metastore.index import FieldIndex
from repro.metastore.query import Query
from repro.obs import SIZE_BUCKETS, get_obs


def _as_mapping(doc: Any) -> Dict[str, Any]:
    if dataclasses.is_dataclass(doc) and not isinstance(doc, type):
        # shallow: we only index top-level scalar fields
        return {f.name: getattr(doc, f.name) for f in dataclasses.fields(doc)}
    if isinstance(doc, dict):
        return doc
    raise TypeError(f"cannot ingest document of type {type(doc)!r}")


class Collection:
    """One indexed collection of documents."""

    def __init__(self, name: str, indexed_fields: Optional[Sequence[str]] = None) -> None:
        self.name = name
        self._docs: List[Any] = []
        self._indices: Dict[str, FieldIndex] = {}
        self._indexed_fields = set(indexed_fields) if indexed_fields else None
        #: Bumped on every ingest batch; cache layers key materialized
        #: artifacts on it so stale results can never be served after
        #: the collection changes.
        self.generation = 0

    def ingest(self, docs: Iterable[Any]) -> int:
        self.generation += 1
        indices = self._indices
        n = 0
        for doc in docs:
            doc_id = len(self._docs)
            self._docs.append(doc)
            for fld, value in _as_mapping(doc).items():
                if self._indexed_fields is not None and fld not in self._indexed_fields:
                    continue
                if not isinstance(value, (str, int, float, bool)) and value is not None:
                    continue
                indices.setdefault(fld, FieldIndex(fld)).add(doc_id, value)
            n += 1
        return n

    def append(self, docs: Iterable[Any]) -> int:
        """Ingest a micro-batch and re-freeze incrementally.

        The streaming ingest primitive: equivalent to
        ``ingest(docs); freeze()`` but each touched :class:`FieldIndex`
        merges only the delta into its sorted column (see
        ``FieldIndex.freeze``), so appending stays O(delta log n)
        instead of re-sorting the whole collection per batch.  The
        generation bump from :meth:`ingest` invalidates every cache
        layer keyed on it.
        """
        n = self.ingest(docs)
        self.freeze()
        return n

    def freeze(self) -> None:
        for idx in self._indices.values():
            idx.freeze()

    def field_index(self, name: str) -> FieldIndex:
        idx = self._indices.get(name)
        if idx is None:
            # Unknown field: behave like an empty index (OpenSearch
            # semantics: no documents match).
            idx = FieldIndex(name)
            self._indices[name] = idx
        return idx

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

    def freeze(self) -> None:
        for col in self._collections.values():
            col.freeze()
