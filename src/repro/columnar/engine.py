"""Vectorized Algorithm-1 kernels over column packs.

:class:`ColumnarIndex` is the matching dataplane: it lowers one
window's records into packs (or takes pre-lowered ones), builds the
jobs → files → transfers join once as flat candidate arrays, and then
runs each matcher's final filters (time, site, whole-set size) as
NumPy kernels.

A run returns an array-first :class:`MatchResult`: the final
candidate arrays, from which the
:class:`~repro.columnar.frame.MatchFrame` is built on its first read
(and its columns gathered on theirs), plus a
:class:`~repro.core.matching.base.LazyMatches` that assembles the
``JobMatch`` list from the window's records only when an element is
read.  Counting, pairing and the §5 analyses read the frame and never
the list; the stream reads the list and never the frame.  RM3 scores
its candidates once per window and scoring parameters
(:meth:`ColumnarIndex.rm3_scores`), so each threshold is one mask.

Its output is held bit-identical to the plain-record reference join in
``tests/oracle.py``, whose ordering rules are reproduced exactly:

* jobs are scanned in window order;
* a job's candidates enumerate its file rows in insertion order, and
  each file's transfers in insertion order (equal keys keep their
  relative order: the join sorts stably, or sorts keys made distinct
  by their position, which yields the same order);
* duplicate candidates are dropped on first occurrence per
  ``(job, row_id)``;
* integer byte totals are summed exactly (``np.add.at`` on ``int64``),
  never through float accumulators.

The join sorts each key once.  Transfer runs come from one sort of the
packed ``(jeditaskid, lfn)`` keys and one search per file row among
the distinct keys; file rows already in ascending pandaid order over a
dense range give each job its rows from a ``bincount`` start table.
Those forms cost more NumPy calls than they save on small inputs, so
below :data:`_SEARCH_ROWS` rows (a stream close has a handful) each
step keeps a stable argsort and two ``searchsorted`` calls.  The
choice reads only the input itself (its size, key span and order),
and every form builds the same arrays.

Matchers participate through the predicate hooks of
:class:`~repro.core.matching.base.BaseMatcher`: the kernels recognize
the stock ``site_ok`` implementations (strict, and RM2's
uncertain-site relaxation) and RM3's stock scoring terms, and
vectorize them; a matcher that overrides
:meth:`~repro.core.matching.base.BaseMatcher.select_job`
(e.g. :class:`~repro.core.matching.subset.SubsetMatcher`) gets its
per-job set-level decision invoked on the vectorized candidates.
Anything else is rejected with ``TypeError`` — there is no fallback.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.interner import StringInterner
from repro.columnar.kernels import ascending, ragged_arange, sorted_unique
from repro.columnar.packs import WindowColumns
from repro.core.matching.base import BaseMatcher, JobMatch, LazyMatches, MatchResult
from repro.core.matching.rm2 import RM2Matcher
from repro.core.matching.rm3 import RM3Matcher
from repro.obs import get_obs
from repro.telemetry.records import FileRecord, JobRecord, TransferRecord


def supports_columnar(matcher: BaseMatcher) -> bool:
    """Can this matcher's filters be lowered to the vectorized kernels?

    True when the matcher uses the stock candidate filtering — the base
    ``match_job``/``time_ok`` template and a recognized ``site_ok``
    (strict or RM2's relaxation).  ``select_job`` overrides are fine:
    they run per job on the vectorized candidates.  RM3's size-tolerant
    join + scored ``match_job_scored`` are recognized as long as the
    scoring hooks are the stock ones (:meth:`ColumnarIndex.rm3_scores`
    lowers the score directly, not through the scalar hooks).
    """
    cls = type(matcher)
    if cls.size_tolerant_join:
        return (
            getattr(cls, "match_job_scored", None) is RM3Matcher.match_job_scored
            and cls.time_feature is RM3Matcher.time_feature
            and cls.site_feature is RM3Matcher.site_feature
            and cls.size_feature is RM3Matcher.size_feature
            and cls.score is RM3Matcher.score
            and cls._site_uncertain is RM2Matcher._site_uncertain
        )
    return (
        cls.match_job is BaseMatcher.match_job
        and cls.time_ok is BaseMatcher.time_ok
        and (cls.site_ok is BaseMatcher.site_ok or cls.site_ok is RM2Matcher.site_ok)
    )


_MIN, _MAX = np.minimum.reduce, np.maximum.reduce


def _joint_codes(
    a: np.ndarray, b: np.ndarray, max_span: int
) -> Tuple[np.ndarray, np.ndarray, np.int64]:
    """Order-preserving integer codes over two arrays' joint domain.

    Equal values get equal codes across both arrays, distinct values
    distinct codes; returns ``(a_codes, b_codes, span)`` with all codes
    in ``[0, span)`` so a caller can pack ``code * other_span + other``
    into one int64 key.  Dense domains are just shifted by their
    minimum (two O(n) scans); a domain wider than ``max_span`` falls
    back to rank compression over the sorted unique union, whose span
    is bounded by the element count.
    """
    if not len(b):
        if not len(a):
            return a.astype(np.int64), b.astype(np.int64), np.int64(1)
        lo, hi = int(_MIN(a)), int(_MAX(a))
    elif not len(a):
        lo, hi = int(_MIN(b)), int(_MAX(b))
    else:
        lo, hi = int(min(_MIN(a), _MIN(b))), int(max(_MAX(a), _MAX(b)))
    if hi - lo < max_span:
        return a - lo, b - lo, np.int64(hi - lo + 1)
    vocab = sorted_unique(np.concatenate([a, b]))
    return (
        np.searchsorted(vocab, a),
        np.searchsorted(vocab, b),
        np.int64(len(vocab)),
    )


#: Below this many input rows a join step keeps the plain stable sort
#: and two binary searches: the sort-once forms cost about a dozen more
#: NumPy calls, which only pay off on larger inputs.  Measured over the
#: joins of the seed-2025 two-day stream replay that
#: ``benchmarks/bench_streaming.py`` runs, each window timed under every
#: crossover in turn: its 124 re-match windows (up to 3.3k rows) join
#: fastest in total with the crossover at 768-1024 rows (22.3 ms,
#: against 25.3 ms for the sort-once forms throughout and 32.5 ms for
#: the plain ones), and its 52 delta closes (2-18 rows) take 3.6 ms
#: below the crossover against 6.3 ms above it.
_SEARCH_ROWS = 1024

#: Ascending file pandaids spanning at most this many times the file
#: rows get a start table, O(span) in memory and time.  Timed against
#: the stable sort + two searches it replaces (synthetic windows of
#: 10k-1M file rows, three per job): the table takes 0.44-0.63x at
#: span 0.35-1x the rows, 0.79-0.86x at 2x and 1.14-1.61x at 4x.  On
#: rows out of pandaid order, which need the sort either way, it saved
#: at most 6%, so those rows are sorted.  The ladder's windows span
#: 0.35x their file rows.
_DENSE_SPAN = 2


def _key_runs(
    keys: np.ndarray, queries: np.ndarray, span: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's run of equal keys in the stable sort of ``keys``.

    Returns ``(order, lo, count)``: ``keys[order]`` is the stable sort
    (equal keys keep their insertion order) and the keys equal to
    ``queries[i]`` sit at ``order[lo[i]:lo[i] + count[i]]``.  All keys
    lie in ``[0, span)``.

    Past :data:`_SEARCH_ROWS`, the sort is NumPy's default sort of
    ``key << b | position``: every packed key is distinct, so the
    unstable sort yields exactly the stable order, without the merge
    sort's cost.  Run bounds come from one adjacent-difference pass,
    and each query is searched once, among the distinct keys.  Keys
    too wide to pack into ``int64`` that way take the plain form.
    """
    n = len(keys)
    shift = n.bit_length()
    if not n or n + len(queries) < _SEARCH_ROWS or span > 1 << (63 - shift):
        order = keys.argsort(kind="stable")
        ordered = keys[order]
        lo = ordered.searchsorted(queries, side="left")
        return order, lo, ordered.searchsorted(queries, side="right") - lo
    packed = keys << shift
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    order = packed & ((1 << shift) - 1)
    ordered = packed >> shift
    edge = np.empty(n + 1, dtype=bool)
    edge[0] = edge[n] = True
    np.not_equal(ordered[1:], ordered[:-1], out=edge[1:n])
    bounds = edge.nonzero()[0]  # each run's start, then n
    distinct = ordered[bounds[:-1]]
    # A query past the last key is clipped onto it, and misses.
    at = np.minimum(distinct.searchsorted(queries), len(distinct) - 1)
    count = np.diff(bounds)[at]
    count *= distinct[at] == queries
    return order, bounds[at], count


def _pandaid_groups(
    f_pid: np.ndarray, j_pid: np.ndarray
) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Each job's file rows: those sharing its pandaid, in row order.

    Returns ``(order, lo, count)``: job ``i``'s file rows are
    ``order[lo[i]:lo[i] + count[i]]``, where ``order=None`` stands for
    the identity.

    Past :data:`_SEARCH_ROWS`, rows already in ascending pandaid order
    whose pandaids span at most :data:`_DENSE_SPAN` times the rows are
    counted into a start table (``bincount`` + ``cumsum``), and each
    job reads its group from it with no sort.  Other rows are stably
    sorted and each job searched.
    """
    n = len(f_pid)
    if n and n + len(j_pid) >= _SEARCH_ROWS:
        base, hi = _MIN(f_pid), _MAX(f_pid)
        span = int(hi) - int(base) + 1
        if span <= _DENSE_SPAN * n and ascending(f_pid):
            # Slot ``span`` stays empty: jobs outside the range read it.
            counts = np.bincount(f_pid - base, minlength=span + 1)
            starts = counts.cumsum() - counts
            slot = np.where((j_pid >= base) & (j_pid <= hi), j_pid - base, span)
            return None, starts[slot], counts[slot]
    order = f_pid.argsort(kind="stable")
    ordered = f_pid[order]
    lo = ordered.searchsorted(j_pid, side="left")
    return order, lo, ordered.searchsorted(j_pid, side="right") - lo


def _all(mask: np.ndarray) -> bool:
    """``mask.all()``, at a third of its call cost on the few-row masks
    of a stream close (0.3 against 0.9 µs)."""
    return np.count_nonzero(mask) == len(mask)


def _indexable(seq) -> bool:
    return hasattr(seq, "__getitem__") and hasattr(seq, "__len__")


class ColumnarIndex:
    """The Algorithm-1 join as flat candidate arrays, built once per window.

    ``cand_job``/``cand_tpos`` enumerate every deduplicated
    (job, candidate transfer) pair in Algorithm 1's per-job enumeration
    order; each matcher run is then a sequence of masks over these
    arrays.
    """

    #: Process-wide construction counter; tests assert the artifact
    #: cache keeps this from growing with matchers × windows.
    build_count = 0

    def __init__(
        self,
        jobs: Sequence[JobRecord],
        files: Sequence[FileRecord],
        transfers: Sequence[TransferRecord],
        interner: Optional[StringInterner] = None,
        columns: Optional[WindowColumns] = None,
    ) -> None:
        ColumnarIndex.build_count += 1
        # Keep indexable sequences as-is: lazy record views (see
        # ``repro.metastore.packsource.LazyRecords``) stay lazy, so a
        # paper-scale window only materializes the records a match
        # actually touches.  Generators and other one-shot iterables
        # still get listified.
        self.jobs = jobs if _indexable(jobs) else list(jobs)
        self.files = files if _indexable(files) else list(files)
        self.transfers = transfers if _indexable(transfers) else list(transfers)
        # Pre-lowered columns (cut from a source's full-table packs by
        # the window's id arrays) skip the per-record lowering entirely.
        self.columns = columns if columns is not None else WindowColumns.lower(
            self.jobs, self.files, self.transfers, interner
        )
        self._build_join()
        # Masks shared by every matcher over this window, built lazily.
        self._time_mask: Optional[np.ndarray] = None
        self._strict_site_mask: Optional[np.ndarray] = None
        self._endpoints: Optional[tuple] = None
        self._rm3_scores: Dict[tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- join construction -------------------------------------------------------

    def _build_join(self) -> None:
        with get_obs().tracer.span("columnar.build_join", cat="kernel") as sp:
            self._build_join_inner()
            sp.set("n_jobs", len(self.jobs))
            sp.set("n_files", len(self.files))
            sp.set("n_transfers", len(self.transfers))
            sp.set("n_candidates", len(self.cand_job))

    def _build_join_inner(self) -> None:
        jp, fp, tp = self.columns.jobs, self.columns.files, self.columns.transfers
        n_jobs = len(jp)

        # Transfers reachable by the join: a positive task id, the same
        # rule as every ``n_transfers_with_taskid`` denominator.
        joinable = (tp.jeditaskid > 0).nonzero()[0]

        # (jeditaskid, lfn_code) -> sorted transfer runs.  Task ids are
        # code-compressed over the union of both sides so the pair packs
        # into one int64 key without overflow assumptions on raw ids.
        lfn_span = len(self.columns.interner) + 1
        t_task, f_task, task_span = _joint_codes(
            tp.jeditaskid[joinable], fp.jeditaskid, (1 << 62) // lfn_span
        )
        t_key = t_task * lfn_span + tp.lfn[joinable]
        f_key = f_task * lfn_span + fp.lfn
        # Per file row: the run of transfers sharing its (task, lfn) key,
        # in insertion order.
        order, run_lo, run_len = _key_runs(t_key, f_key, int(task_span) * lfn_span)
        sorted_tpos = joinable[order]

        # Expand jobs -> their file rows: the rows sharing the job's
        # pandaid (insertion order inside each pandaid run), kept where
        # the task id matches too — F'_j's (pandaid, jeditaskid) key.
        file_order, group_lo, files_per_job = _pandaid_groups(fp.pandaid, jp.pandaid)
        entry_job = np.arange(n_jobs, dtype=np.int64).repeat(files_per_job)
        entry_fi = ragged_arange(group_lo, files_per_job)
        if file_order is not None:
            entry_fi = file_order[entry_fi]
        same_task = fp.jeditaskid[entry_fi] == jp.jeditaskid[entry_job]
        if not _all(same_task):
            entry_job, entry_fi = entry_job[same_task], entry_fi[same_task]

        # Expand file rows -> their candidate transfer runs.
        cands_per_entry = run_len[entry_fi]
        cand_job = entry_job.repeat(cands_per_entry)
        cand_fi = entry_fi.repeat(cands_per_entry)
        cand_tpos = sorted_tpos[ragged_arange(run_lo[entry_fi], cands_per_entry)]

        # Attribute equality beyond the (task, lfn) key: dataset,
        # proddblock, scope — all int comparisons now.  Size equality
        # is kept as a separate mask: the Algorithm-1 join requires it,
        # RM3's size-relaxed join scores the mismatch instead.
        attr_relaxed = (
            (tp.dataset[cand_tpos] == fp.dataset[cand_fi])
            & (tp.proddblock[cand_tpos] == fp.proddblock[cand_fi])
            & (tp.scope[cand_tpos] == fp.scope[cand_fi])
        )
        r_job, r_tpos, r_fi = cand_job, cand_tpos, cand_fi
        if not _all(attr_relaxed):
            r_job, r_tpos, r_fi = r_job[attr_relaxed], r_tpos[attr_relaxed], r_fi[attr_relaxed]
        size_eq = tp.size[r_tpos] == fp.size[r_fi]
        all_sized = _all(size_eq)

        # First-occurrence dedup per (job, row_id).  The sized and
        # relaxed joins dedup independently — each follows its own
        # enumeration, so "first occurrence" can differ between them
        # (a size-mismatched file row can reach a transfer first).
        # When no candidate's size differs the two joins are one, and
        # so are their dedups; otherwise only RM3 reads the relaxed
        # join, so its dedup waits for :meth:`relaxed_join`.
        s_job, s_tpos = (r_job, r_tpos) if all_sized else (r_job[size_eq], r_tpos[size_eq])
        sized = _first_pairs(s_job, tp.row_id[s_tpos], n_jobs)
        self.cand_job = s_job[sized]
        self.cand_tpos = s_tpos[sized]
        self._relaxed: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = (
            (self.cand_job, self.cand_tpos, r_fi[sized]) if all_sized else None
        )
        self._relaxed_args = None if all_sized else (r_job, r_tpos, r_fi)

    def relaxed_join(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RM3's size-relaxed join as ``(job, transfer, file)`` positions,
        deduplicated on first use.  Racing first readers each compute
        the same arrays."""
        if self._relaxed is None:
            r_job, r_tpos, r_fi = self._relaxed_args
            first = _first_pairs(
                r_job, self.columns.transfers.row_id[r_tpos], len(self.columns.jobs)
            )
            self._relaxed = (r_job[first], r_tpos[first], r_fi[first])
        return self._relaxed

    # -- shared filter kernels -----------------------------------------------------

    @property
    def time_mask(self) -> np.ndarray:
        """Condition (1) per candidate; NaN endtime compares false."""
        if self._time_mask is None:
            tp, jp = self.columns.transfers, self.columns.jobs
            with np.errstate(invalid="ignore"):
                self._time_mask = (
                    tp.starttime[self.cand_tpos] < jp.endtime[self.cand_job]
                )
        return self._time_mask

    @property
    def strict_site_mask(self) -> np.ndarray:
        """Condition (3) per candidate, strict (Exact/RM1) form."""
        if self._strict_site_mask is None:
            self._strict_site_mask = self._site_mask()
        return self._strict_site_mask

    def _site_mask(self, relax: Optional[RM2Matcher] = None) -> np.ndarray:
        """Download dest / upload source equals the job's site.

        With ``relax``, an endpoint label that matcher finds uncertain
        passes too (RM2's relaxation).  The per-candidate endpoint
        gathers are shared by the strict and the relaxed form.
        """
        if self._endpoints is None:
            tp = self.columns.transfers
            site = self.columns.jobs.site[self.cand_job]
            src = tp.src[self.cand_tpos]
            dst = tp.dst[self.cand_tpos]
            self._endpoints = (
                src, dst, src == site, dst == site,
                tp.is_download[self.cand_tpos], tp.is_upload[self.cand_tpos],
            )
        src, dst, src_ok, dst_ok, is_download, is_upload = self._endpoints
        if relax is not None:
            uncertain = self._uncertain(relax, np.concatenate((src, dst)))
            src_ok = src_ok | uncertain[: len(src)]
            dst_ok = dst_ok | uncertain[len(src):]
        return np.where(is_download, dst_ok, is_upload & src_ok)

    def _uncertain(self, matcher: RM2Matcher, labels: np.ndarray) -> np.ndarray:
        """``matcher._site_uncertain`` per site-label code in ``labels``.

        The hook runs once per distinct label, on the decoded name, and
        a lookup table over the codes present spreads the answers: the
        cost follows the labels at hand, not the vocabulary.
        """
        if not len(labels):
            return np.zeros(0, dtype=bool)
        table = np.zeros(int(_MAX(labels)) + 1, dtype=bool)
        present = np.zeros_like(table)
        present[labels] = True
        decode = self.columns.interner.decode
        for code in present.nonzero()[0].tolist():
            table[code] = matcher._site_uncertain(decode(code))
        return table[labels]

    # -- per-matcher execution ----------------------------------------------------

    def run(self, matcher: BaseMatcher, n_transfers_considered: int) -> MatchResult:
        """One matcher's final filters as kernels.

        Raises ``TypeError`` for a matcher whose predicates the kernels
        cannot lower (see :func:`supports_columnar`).
        """
        if not supports_columnar(matcher):
            raise TypeError(
                f"matcher {matcher.name!r} ({type(matcher).__name__}) overrides "
                "predicate hooks the columnar kernels cannot lower"
            )
        obs = get_obs()
        with obs.tracer.span("columnar.run", cat="kernel") as sp:
            sp.set("method", matcher.name)
            sp.set("n_candidates", len(self.cand_job))
            result = self._run_inner(matcher, n_transfers_considered)
            sp.set("n_matches", len(result.matches))
        if obs.enabled:
            obs.metrics.counter("kernel.calls", kernel="columnar.run").inc()
            obs.metrics.counter(
                "kernel.rows", kernel="columnar.run"
            ).inc(len(self.cand_job))
        return result

    def _run_inner(self, matcher: BaseMatcher, n_transfers_considered: int) -> MatchResult:
        if _selects_per_job(matcher):
            # A select_job override decides per job over records, so
            # its result is a record list that lowers to a frame lazily
            # via MatchResult.frame().
            return MatchResult(
                method=matcher.name,
                matches=[jm for _, jm in self.job_matches(matcher)],
                n_jobs_considered=len(self.jobs),
                n_transfers_considered=n_transfers_considered,
            )
        return self._result(matcher, *self._kept(matcher), n_transfers_considered)

    def _kept(self, matcher: BaseMatcher) -> Tuple[np.ndarray, np.ndarray]:
        """The candidates ``matcher``'s filters keep, as ``(cand_job,
        cand_tpos)``: RM3's scored decision, or the time and site masks
        and then the whole-set size check (which a ``select_job``
        override replaces with its own per-job decision)."""
        if type(matcher).size_tolerant_join:
            cand_job, cand_tpos, score = self.rm3_scores(matcher)
            keep = score >= matcher.threshold
            return cand_job[keep], cand_tpos[keep]
        cand_job, cand_tpos = self.cand_job, self.cand_tpos
        if not len(cand_job):  # an empty join has nothing to filter
            return cand_job, cand_tpos
        if type(matcher).site_ok is RM2Matcher.site_ok:
            site_mask = self._site_mask(relax=matcher)
        else:
            site_mask = self.strict_site_mask
        kept = self.time_mask & site_mask
        cand_job = cand_job[kept]
        cand_tpos = cand_tpos[kept]
        if matcher.use_size_check and len(cand_job) and not _selects_per_job(matcher):
            tp, jp = self.columns.transfers, self.columns.jobs
            totals = np.zeros(len(jp), dtype=np.int64)
            np.add.at(totals, cand_job, tp.size[cand_tpos])
            size_ok = (totals == jp.nin) | (totals == jp.nout)
            keep = size_ok[cand_job]
            cand_job = cand_job[keep]
            cand_tpos = cand_tpos[keep]
        return cand_job, cand_tpos

    def job_matches(self, matcher: BaseMatcher) -> List[Tuple[int, JobMatch]]:
        """``(job row, JobMatch)`` per matched job, in window job order.

        The matches :meth:`run` lists, each with its job's row in this
        index, built eagerly.  Unlike :meth:`run` it neither checks the
        matcher nor traces the call, so it is for callers that checked
        their matchers with :func:`supports_columnar` up front and pay
        per call: a stream close runs every method on a few rows.
        """
        cand_job, cand_tpos = self._kept(matcher)
        if not _selects_per_job(matcher):
            return _job_matches(self.jobs, self.transfers, cand_job, cand_tpos)
        out: List[Tuple[int, JobMatch]] = []
        take = self.transfers.__getitem__
        for j, group in _grouped(cand_job, cand_tpos):
            job = self.jobs[j]
            kept = matcher.select_job(job, list(map(take, group)))
            if kept:
                out.append((j, JobMatch(job=job, transfers=kept)))
        return out

    def _result(
        self,
        matcher: BaseMatcher,
        cand_job: np.ndarray,
        cand_tpos: np.ndarray,
        n_transfers_considered: int,
    ) -> MatchResult:
        """A kernel-built result: a lazy frame plus a lazy match list.

        The final filtered candidate arrays are exactly the matched
        ragged mapping.  The result keeps them with the window's
        columns and gathers its frame from them on the first frame,
        count or pair query (:meth:`MatchResult.frame`).  The
        ``JobMatch`` list — and with it every job and transfer record —
        is assembled from the same arrays only when something reads an
        element; its length is the number of job runs in ``cand_job``.
        """
        # The closure keeps the record views and the two arrays, not the
        # whole index with its join arrays.
        jobs, transfers = self.jobs, self.transfers

        def assemble() -> List[JobMatch]:
            return [jm for _, jm in _job_matches(jobs, transfers, cand_job, cand_tpos)]

        n_runs = (
            int(np.count_nonzero(cand_job[1:] != cand_job[:-1])) + 1
            if len(cand_job) else 0
        )
        result = MatchResult(
            method=matcher.name,
            matches=LazyMatches(assemble, n_runs),
            n_jobs_considered=len(jobs),
            n_transfers_considered=n_transfers_considered,
        )
        result._frame_args = (self.columns, cand_job, cand_tpos)
        return result

    def rm3_scores(self, matcher: RM3Matcher) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """RM3's gated candidates and their scores, as
        ``(cand_job, cand_tpos, score)``, computed once per window and
        scoring parameters.

        Mirrors :meth:`RM3Matcher.match_job_scored` bit for bit over
        the size-relaxed join arrays: the hard gate (condition (1) +
        directedness), then ``(f_time * f_site) * f_size`` in the same
        association order and with the same int→float64 conversions as
        the scalar hooks (see the module docstring of
        :mod:`repro.core.matching.rm3`).  The score depends on the
        matcher only through ``tau``, ``rho``, the two site factors and
        ``known_sites`` (RM2's uncertainty rule), which key the cache;
        the threshold does not.  Racing first callers each compute the
        same arrays and the first published entry is kept.
        """
        key = (
            matcher.tau, matcher.rho, matcher.site_prior, matcher.site_contra,
            frozenset(matcher.known_sites),
        )
        scored = self._rm3_scores.get(key)
        if scored is not None:
            return scored
        tp, jp, fp = self.columns.transfers, self.columns.jobs, self.columns.files
        r_job, r_tpos, r_fi = self.relaxed_join()
        with np.errstate(invalid="ignore"):
            in_time = tp.starttime[r_tpos] < jp.endtime[r_job]
        gate = in_time & (tp.is_download[r_tpos] | tp.is_upload[r_tpos])
        cand_job = r_job[gate]
        cand_tpos = r_tpos[gate]
        cand_fi = r_fi[gate]

        # Per-candidate size tolerance against the producing file row.
        rel = np.abs(tp.size[cand_tpos] - fp.size[cand_fi]) / np.maximum(
            fp.size[cand_fi], 1
        )
        f_size = matcher.rho / (matcher.rho + rel)

        # Per-candidate time proximity and site prior.
        lead = np.maximum(jp.creation[cand_job] - tp.starttime[cand_tpos], 0.0)
        f_time = matcher.tau / (matcher.tau + lead)
        label = np.where(
            tp.is_download[cand_tpos], tp.dst[cand_tpos], tp.src[cand_tpos]
        )
        f_site = np.where(
            label == jp.site[cand_job],
            1.0,
            np.where(
                self._uncertain(matcher, label), matcher.site_prior, matcher.site_contra
            ),
        )

        score = (f_time * f_site) * f_size
        return self._rm3_scores.setdefault(key, (cand_job, cand_tpos, score))


def _first_pairs(jobs: np.ndarray, row_ids: np.ndarray, n_jobs: int):
    """Index of each (job, row id) pair's first occurrence, in order.

    Row ids are code-compressed so the pair packs into one int64 key
    even for arbitrary stored ids.  A stable sort puts each pair's
    first occurrence at the head of its run; with no repeated pair the
    index is ``slice(None)``.
    """
    codes, _, span = _joint_codes(row_ids, row_ids[:0], (1 << 62) // (n_jobs + 1))
    key = jobs * span + codes
    order = key.argsort(kind="stable")
    key = key[order]
    repeat = key[1:] == key[:-1]
    if not repeat.any():
        return slice(None)
    first = order[np.concatenate(([True], ~repeat))]
    first.sort()  # restore candidate-enumeration order
    return first


def _selects_per_job(matcher: BaseMatcher) -> bool:
    """Does ``matcher`` override the per-job set-level decision?  (RM3's
    scored decision is its own and takes no ``select_job``.)"""
    cls = type(matcher)
    return not cls.size_tolerant_join and cls.select_job is not BaseMatcher.select_job


def _job_matches(
    jobs: Sequence[JobRecord],
    transfers: Sequence[TransferRecord],
    cand_job: np.ndarray,
    cand_tpos: np.ndarray,
) -> List[Tuple[int, JobMatch]]:
    """``(job row, JobMatch)`` per job run of the candidate arrays."""
    take = transfers.__getitem__
    return [
        (j, JobMatch(job=jobs[j], transfers=list(map(take, group))))
        for j, group in _grouped(cand_job, cand_tpos)
    ]


def _grouped(cand_job: np.ndarray, cand_tpos: np.ndarray):
    """Yield (job position, transfer positions) per contiguous job run.

    ``cand_job`` is non-decreasing by construction, so runs are exactly
    the per-job candidate groups, in window job order.  Positions come
    out as Python ints, ready to index record sequences.
    """
    if not len(cand_job):
        return
    starts = [0] + ((cand_job[1:] != cand_job[:-1]).nonzero()[0] + 1).tolist()
    jobs = cand_job.tolist()
    tpos = cand_tpos.tolist()
    for start, stop in zip(starts, starts[1:] + [len(tpos)]):
        yield jobs[start], tpos[start:stop]
