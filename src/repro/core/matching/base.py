"""Shared matcher machinery.

All matchers share the candidate-generation stage of Algorithm 1 — the
join jobs → files → transfers over
``(jeditaskid, lfn, dataset, proddblock, scope, file_size)``, built once
per window by :class:`~repro.columnar.engine.ColumnarIndex` — and
differ only in the final per-candidate and per-job filtering, expressed
here as predicate hooks (``time_ok``, ``site_ok``, ``match_job``,
``select_job``).  The hooks are the specification of each method: the
columnar kernels lower the stock ones, and the plain-record reference
in ``tests/oracle.py`` drives them one job at a time.

A kernel-built :class:`MatchResult` is array-first: its
:class:`~repro.columnar.frame.MatchFrame` answers every count and pair
query, and its ``matches`` is a :class:`LazyMatches` that assembles the
``JobMatch`` list (and with it the job and transfer records) only when
something reads an element.
"""

from __future__ import annotations

import enum
import threading
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.telemetry.records import JobRecord, TransferRecord


class TransferClass(enum.Enum):
    """Locality classification of a matched job's transfer set (Table 2b)."""

    ALL_LOCAL = "all_local"
    ALL_REMOTE = "all_remote"
    MIXED = "mixed"


@dataclass
class JobMatch:
    """One element of the output mapping set M: a job and its transfers."""

    job: JobRecord
    transfers: List[TransferRecord]

    @property
    def n_transfers(self) -> int:
        return len(self.transfers)

    @property
    def n_local(self) -> int:
        return sum(1 for t in self.transfers if t.is_local)

    @property
    def n_remote(self) -> int:
        return len(self.transfers) - self.n_local

    @property
    def transfer_class(self) -> TransferClass:
        local = self.n_local
        if local == len(self.transfers):
            return TransferClass.ALL_LOCAL
        if local == 0:
            return TransferClass.ALL_REMOTE
        return TransferClass.MIXED

    def downloads(self) -> List[TransferRecord]:
        return [t for t in self.transfers if t.is_download]

    def uploads(self) -> List[TransferRecord]:
        return [t for t in self.transfers if t.is_upload]


class LazyMatches(SequenceABC):
    """A ``JobMatch`` list assembled on first element access.

    ``build()`` returns the list; ``length`` is its length, known up
    front from the match arrays, so ``len()`` and truthiness never
    assemble anything.  Assembly runs once, under a lock, even when
    several threads read at the same time; afterwards ``build`` (and
    the window record views it closes over) is dropped.

    Equality is by content against lists and other lazy lists, in both
    directions.  Pickling and copying ship the assembled plain list.
    """

    __slots__ = ("_build", "_length", "_list", "_lock")

    def __init__(self, build: Callable[[], List[JobMatch]], length: int) -> None:
        self._build: Optional[Callable[[], List[JobMatch]]] = build
        self._length = length
        self._list: Optional[List[JobMatch]] = None
        self._lock = threading.Lock()

    def tolist(self) -> List[JobMatch]:
        """The assembled list (built on the first call, then shared)."""
        items = self._list
        if items is None:
            with self._lock:
                items = self._list
                if items is None:
                    items = self._list = self._build()
                    self._build = None
        return items

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        return self.tolist()[i]

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyMatches):
            other = other.tolist()
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented

    def __reduce__(self):
        return list, (self.tolist(),)

    def __repr__(self) -> str:
        if self._list is None:
            return f"LazyMatches(<{self._length} not assembled>)"
        return f"LazyMatches({self._list!r})"


@dataclass
class MatchResult:
    """Output of one matcher over one pre-selected window.

    ``matches`` is a plain list for results assembled from records (the
    ``select_job`` path, the stream's accumulated state) and a
    :class:`LazyMatches` for kernel-built ones.  Whenever a frame is
    attached, the job, transfer and pair queries answer from it; the
    frame and the list describe the same mapping, so both routes give
    the same values.
    """

    method: str
    matches: Sequence[JobMatch]
    n_jobs_considered: int
    n_transfers_considered: int

    #: Lazily computed transfer-id set; every pair-level metric calls
    #: :meth:`matched_transfer_ids`, so rebuilding it per access made
    #: result summarization quadratic-feeling on big windows.
    _transfer_ids: Optional[FrozenSet[int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    #: Columnar lowering of this result (``repro.columnar.frame``), the
    #: primary form of a kernel-built result.  Results assembled
    #: elsewhere (``select_job`` overrides, the stream's accumulated
    #: state) lower their matches on first use.
    _frame: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(columns, cand_job, cand_tpos)`` a kernel-built result gathers
    #: its frame from on the first frame, count or pair query.
    _frame_args: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def frame(self):
        """The :class:`~repro.columnar.frame.MatchFrame` of this result.

        Readers racing the first call may each gather a frame; every
        one of them is correct.  The frame is published before the
        candidate arrays are dropped, so a reader that finds neither
        set sees the published frame on its second look.
        """
        frame = self._frame
        if frame is None:
            args = self._frame_args
            if args is None:
                frame = self._frame
            if frame is None:
                from repro.columnar.frame import MatchFrame

                if args is not None:
                    frame = MatchFrame.from_candidates(*args)
                else:
                    frame = MatchFrame.from_matches(self.matches)
                self._frame = frame
                self._frame_args = None
        return frame

    @property
    def _kernel_built(self) -> bool:
        return self._frame is not None or self._frame_args is not None

    def __getstate__(self) -> dict:
        """Pickle the frame, never the window columns it is cut from."""
        state = dict(self.__dict__)
        if state.pop("_frame_args", None) is not None:
            state["_frame"] = self.frame()
        return state

    def matched_jobs(self) -> List[JobMatch]:
        return [m for m in self.matches if m.transfers]

    @property
    def n_matched_jobs(self) -> int:
        if self._kernel_built:
            return len(self.frame())
        return len(self.matched_jobs())

    def matched_transfer_ids(self) -> FrozenSet[int]:
        if self._transfer_ids is None:
            if self._kernel_built:
                self._transfer_ids = frozenset(
                    self.frame().matched_row_ids().tolist()
                )
            else:
                self._transfer_ids = frozenset(
                    t.row_id for m in self.matches for t in m.transfers
                )
        return self._transfer_ids

    @property
    def n_matched_transfers(self) -> int:
        return len(self.matched_transfer_ids())

    def matched_pairs(self) -> List[Tuple[int, int]]:
        """(pandaid, transfer row_id) pairs — the evaluation unit.

        Deduplicated defensively: a matcher that ever returned the same
        transfer twice for one job would otherwise inflate every
        pair-level metric downstream.  First-occurrence order is kept,
        so serial and parallel execution emit identical lists.
        """
        if self._kernel_built:
            return self.frame().matched_pairs()
        seen: Set[Tuple[int, int]] = set()
        out: List[Tuple[int, int]] = []
        for m in self.matches:
            for t in m.transfers:
                pair = (m.job.pandaid, t.row_id)
                if pair not in seen:
                    seen.add(pair)
                    out.append(pair)
        return out


@dataclass
class MatchingReport:
    """All methods over one window, plus the pre-selection sizes."""

    window: Tuple[float, float]
    n_jobs: int
    n_transfers: int
    n_transfers_with_taskid: int
    results: Dict[str, MatchResult]

    def __getitem__(self, method: str) -> MatchResult:
        return self.results[method]

    @property
    def methods(self) -> List[str]:
        return list(self.results)


class BaseMatcher:
    """Template: candidate join + method-specific final filter."""

    #: Overridden by concrete matchers.
    name = "base"

    def __init__(self, known_sites: Optional[Set[str]] = None) -> None:
        #: Site names considered *valid*; anything else counts as an
        #: invalid/unknown label for RM2's relaxation.
        self.known_sites = known_sites or set()

    # -- the filters of Algorithm 1, as overridable pieces ---------------------

    def time_ok(self, t: TransferRecord, job: JobRecord) -> bool:
        """Condition (1): the transfer started before the job's end."""
        return job.endtime is not None and t.starttime < job.endtime

    def site_ok(self, t: TransferRecord, job: JobRecord) -> bool:
        """Condition (3): download dest / upload source = computing site."""
        if t.is_download:
            return t.destination_site == job.computingsite
        if t.is_upload:
            return t.source_site == job.computingsite
        return False

    def size_ok(self, total: int, job: JobRecord) -> bool:
        """Condition (2): whole-set size equals input or output bytes."""
        return total == job.ninputfilebytes or total == job.noutputfilebytes

    #: Whether this matcher applies the whole-set size check.
    use_size_check = True

    #: Scored matchers (RM3) set this to join without file-size
    #: equality; their decision is ``match_job_scored`` over
    #: (candidate, size mismatch) pairs instead of ``match_job``.
    size_tolerant_join = False

    def match_job(self, job: JobRecord, candidates: List[TransferRecord]) -> List[TransferRecord]:
        """Final filtering of T'_j for one job."""
        end = job.endtime
        if end is None:
            # Hoisted from time_ok: no candidate can pass condition (1),
            # so skip the per-candidate loop entirely.
            return []
        kept = [t for t in candidates if t.starttime < end and self.site_ok(t, job)]
        return self.select_job(job, kept)

    def select_job(self, job: JobRecord, kept: List[TransferRecord]) -> List[TransferRecord]:
        """Set-level decision over the time/site-filtered candidates.

        The default applies the whole-set size rule; matchers that make
        a different set-level choice (e.g. subset selection) override
        this instead of :meth:`match_job`, which also lets the columnar
        kernels reuse their vectorized time/site filters for them.
        """
        if not kept:
            return []
        if self.use_size_check:
            total = sum(t.file_size for t in kept)
            if not self.size_ok(total, job):
                return []
        return kept
