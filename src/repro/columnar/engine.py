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
  each file's transfers in insertion order (the join arrays are sorted
  with *stable* sorts, so equal keys keep their relative order);
* duplicate candidates are dropped on first occurrence per
  ``(job, row_id)``;
* integer byte totals are summed exactly (``np.add.at`` on ``int64``),
  never through float accumulators.

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
from repro.columnar.kernels import ragged_arange, sorted_unique
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
        lfn_span = np.int64(len(self.columns.interner) + 1)
        t_task, f_task, _ = _joint_codes(
            tp.jeditaskid[joinable], fp.jeditaskid, (1 << 62) // int(lfn_span)
        )
        t_key = t_task * lfn_span + tp.lfn[joinable]
        f_key = f_task * lfn_span + fp.lfn
        order = t_key.argsort(kind="stable")  # stable: insertion order in runs
        sorted_tkey = t_key[order]
        sorted_tpos = joinable[order]

        # Per file row: the run of transfers sharing its (task, lfn) key.
        run_lo = sorted_tkey.searchsorted(f_key, side="left")
        run_hi = sorted_tkey.searchsorted(f_key, side="right")

        # Expand jobs -> their file rows: the rows sharing the job's
        # pandaid (insertion order inside each pandaid run), kept where
        # the task id matches too — F'_j's (pandaid, jeditaskid) key.
        file_order = fp.pandaid.argsort(kind="stable")
        sorted_pid = fp.pandaid[file_order]
        group_lo = sorted_pid.searchsorted(jp.pandaid, side="left")
        group_hi = sorted_pid.searchsorted(jp.pandaid, side="right")
        files_per_job = group_hi - group_lo
        entry_job = np.arange(n_jobs, dtype=np.int64).repeat(files_per_job)
        entry_fi = file_order[ragged_arange(group_lo, files_per_job)]
        same_task = fp.jeditaskid[entry_fi] == jp.jeditaskid[entry_job]
        entry_job, entry_fi = entry_job[same_task], entry_fi[same_task]

        # Expand file rows -> their candidate transfer runs.
        cands_per_entry = run_hi[entry_fi] - run_lo[entry_fi]
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
        r_job = cand_job[attr_relaxed]
        r_tpos = cand_tpos[attr_relaxed]
        r_fi = cand_fi[attr_relaxed]
        size_eq = tp.size[r_tpos] == fp.size[r_fi]

        # First-occurrence dedup per (job, row_id).  The sized and
        # relaxed joins dedup independently — each follows its own
        # enumeration, so "first occurrence" can differ between them
        # (a size-mismatched file row can reach a transfer first).
        # Only RM3 reads the relaxed join, so its dedup waits for
        # :meth:`relaxed_join`.
        s_job, s_tpos = r_job[size_eq], r_tpos[size_eq]
        sized = _first_pairs(s_job, tp.row_id[s_tpos], n_jobs)
        self.cand_job = s_job[sized]
        self.cand_tpos = s_tpos[sized]
        self._relaxed_args = (r_job, r_tpos, r_fi)
        self._relaxed: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

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
        if type(matcher).size_tolerant_join:
            return self._run_rm3(matcher, n_transfers_considered)
        cand_job, cand_tpos = self.cand_job, self.cand_tpos
        if len(cand_job):  # an empty join has nothing to filter
            if type(matcher).site_ok is RM2Matcher.site_ok:
                site_mask = self._site_mask(relax=matcher)
            else:
                site_mask = self.strict_site_mask
            kept = self.time_mask & site_mask
            cand_job = cand_job[kept]
            cand_tpos = cand_tpos[kept]

        if type(matcher).select_job is not BaseMatcher.select_job:
            # A select_job override decides per job over records, so
            # its result is a record list that lowers to a frame lazily
            # via MatchResult.frame().
            return MatchResult(
                method=matcher.name,
                matches=self._select_per_job(matcher, cand_job, cand_tpos),
                n_jobs_considered=len(self.jobs),
                n_transfers_considered=n_transfers_considered,
            )
        if matcher.use_size_check and len(cand_job):
            tp, jp = self.columns.transfers, self.columns.jobs
            totals = np.zeros(len(jp), dtype=np.int64)
            np.add.at(totals, cand_job, tp.size[cand_tpos])
            size_ok = (totals == jp.nin) | (totals == jp.nout)
            keep = size_ok[cand_job]
            cand_job = cand_job[keep]
            cand_tpos = cand_tpos[keep]
        return self._result(matcher, cand_job, cand_tpos, n_transfers_considered)

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
            take = transfers.__getitem__
            return [
                JobMatch(job=jobs[j], transfers=list(map(take, group)))
                for j, group in _grouped(cand_job, cand_tpos)
            ]

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

    def _run_rm3(self, matcher: RM3Matcher, n_transfers_considered: int) -> MatchResult:
        """RM3's scored decision: ``score >= threshold`` over the window's
        scored candidates (:meth:`rm3_scores`), so every threshold of a
        sweep is one mask over one scoring pass."""
        cand_job, cand_tpos, score = self.rm3_scores(matcher)
        keep = score >= matcher.threshold
        return self._result(
            matcher, cand_job[keep], cand_tpos[keep], n_transfers_considered
        )

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

    def _select_per_job(
        self, matcher: BaseMatcher, cand_job: np.ndarray, cand_tpos: np.ndarray
    ) -> List[JobMatch]:
        """Custom set-level selection (e.g. subset-sum) per candidate group."""
        matches: List[JobMatch] = []
        take = self.transfers.__getitem__
        for j, group in _grouped(cand_job, cand_tpos):
            job = self.jobs[j]
            kept = matcher.select_job(job, list(map(take, group)))
            if kept:
                matches.append(JobMatch(job=job, transfers=kept))
        return matches


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
