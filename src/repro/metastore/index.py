"""Per-field indices.

A :class:`FieldIndex` maps field values to document ids (an inverted
index for exact-term lookup) and keeps a sorted column for range scans.
Numeric columns use numpy ``searchsorted`` so range queries are
O(log n + hits) instead of full scans — the "efficient computing for
scalability" §5.5 calls for.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

import numpy as np


class FieldIndex:
    """Index over one field of one collection.

    A :class:`~repro.metastore.store.Collection` builds one from its
    documents on the first query that reads the field and freezes it
    before publishing it.  Appends after that merge into the sorted
    column instead of rebuilding it — ingest re-freezes every built
    index once per micro-batch, so a full re-sort there would make
    ingest quadratic over a run.  A range query on an index with
    unfrozen adds freezes it first (standalone use only: a published
    index is always frozen, so its lookups never write).
    """

    #: Process-wide count of full sorted-column rebuilds.  Incremental
    #: appends must not grow this (tests assert it); only the first
    #: freeze of a column pays the full sort.
    full_builds = 0

    def __init__(self, name: str) -> None:
        self.name = name
        self._by_value: Dict[Any, List[int]] = {}
        self._doc_ids: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._numeric: bool = True
        #: Set by :meth:`add`, cleared by :meth:`freeze`.  Keeping the
        #: stale frozen arrays around (instead of dropping them on every
        #: add) means ingest interleaved with range queries re-sorts the
        #: column once per batch, not once per query.
        self._dirty: bool = False
        #: (value, doc_id) pairs added since the last freeze — the
        #: delta an incremental freeze merges into the frozen arrays
        #: (empty until a sorted column exists to merge into).
        self._pending: List[tuple] = []

    @staticmethod
    def _is_numeric(value: Any) -> bool:
        # bools are ints to isinstance(), but a True/False column is a
        # flag, not a range-scannable measure — don't sort it as one.
        return isinstance(
            value, (int, float, np.integer, np.floating)
        ) and not isinstance(value, (bool, np.bool_))

    def add(self, doc_id: int, value: Any) -> None:
        if value is None:
            return
        self._by_value.setdefault(value, []).append(doc_id)
        if self._numeric and not self._is_numeric(value):
            self._numeric = False
            self._pending.clear()
        if self._numeric and self._values is not None:
            self._pending.append((value, doc_id))
        self._dirty = True

    def freeze(self) -> None:
        """(Re)build the sorted column for range queries (numeric only).

        No-op when nothing was added since the last freeze, so callers
        can freeze eagerly per batch without re-sorting clean columns.
        Once a column is frozen, later batches merge O(delta log n)
        into the existing arrays instead of re-sorting everything —
        doc ids only grow, so inserting each pending pair after its
        equal-valued predecessors (``side="right"``) reproduces the
        full rebuild's (value, doc_id) order exactly.
        """
        if not self._numeric or not self._by_value:
            self._values = None
            self._doc_ids = None
            self._dirty = False
            self._pending.clear()
            return
        if not self._dirty and self._values is not None:
            return
        if self._values is not None and self._pending:
            self._pending.sort()
            new_values = np.array([p[0] for p in self._pending], dtype=float)
            new_ids = np.array([p[1] for p in self._pending], dtype=np.int64)
            at = np.searchsorted(self._values, new_values, side="right")
            self._values = np.insert(self._values, at, new_values)
            self._doc_ids = np.insert(self._doc_ids, at, new_ids)
        else:
            FieldIndex.full_builds += 1
            pairs = [(v, d) for v, docs in self._by_value.items() for d in docs]
            pairs.sort()
            self._values = np.array([p[0] for p in pairs], dtype=float)
            self._doc_ids = np.array([p[1] for p in pairs], dtype=np.int64)
        self._dirty = False
        self._pending.clear()

    # -- lookups -------------------------------------------------------------

    def term(self, value: Any) -> Set[int]:
        return set(self._by_value.get(value, ()))

    def terms(self, values) -> Set[int]:
        out: Set[int] = set()
        for v in values:
            out.update(self._by_value.get(v, ()))
        return out

    def range_ids(
        self,
        gte: Optional[float] = None,
        lt: Optional[float] = None,
        gt: Optional[float] = None,
        lte: Optional[float] = None,
    ) -> np.ndarray:
        """Doc ids in range as an ndarray (value-sorted, not id-sorted).

        The array fast path: callers that only need an ordered document
        list (e.g. :meth:`Collection.search` on a bare range query) can
        sort this slice directly instead of round-tripping through a
        Python set — the difference is visible on every window
        preselection.
        """
        if not self._numeric:
            raise TypeError(f"field {self.name!r} is not numeric; range query invalid")
        if self._dirty:
            self.freeze()
        if self._values is None:  # empty index
            return np.empty(0, dtype=np.int64)
        lo_idx = 0
        hi_idx = len(self._values)
        if gte is not None:
            lo_idx = int(np.searchsorted(self._values, gte, side="left"))
        if gt is not None:
            lo_idx = max(lo_idx, int(np.searchsorted(self._values, gt, side="right")))
        if lt is not None:
            hi_idx = min(hi_idx, int(np.searchsorted(self._values, lt, side="left")))
        if lte is not None:
            hi_idx = min(hi_idx, int(np.searchsorted(self._values, lte, side="right")))
        if lo_idx >= hi_idx:
            return np.empty(0, dtype=np.int64)
        assert self._doc_ids is not None
        return self._doc_ids[lo_idx:hi_idx]

    def range(
        self,
        gte: Optional[float] = None,
        lt: Optional[float] = None,
        gt: Optional[float] = None,
        lte: Optional[float] = None,
    ) -> Set[int]:
        """Doc ids whose value falls in the (half-open by default) range."""
        return set(int(d) for d in self.range_ids(gte=gte, lt=lt, gt=gt, lte=lte))

    def exists(self) -> Set[int]:
        out: Set[int] = set()
        for docs in self._by_value.values():
            out.update(docs)
        return out

    @property
    def cardinality(self) -> int:
        return len(self._by_value)
