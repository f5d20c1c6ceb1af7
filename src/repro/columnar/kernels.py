"""Vectorized analysis kernels shared by the MatchFrame dataplane.

These are the array primitives the join and the §5 analyses lower to:
ragged ranges for CSR expansion, segmented prefix maxima over CSR
ragged arrays, the sorted-boundary interval union behind the paper's
"file transfer time", dense codes over row ids (the distinct-transfer
counts), sequential-order bucket accumulation, and the sortedness
check that lets ascending ids skip their sort.

Bit-identity with the row implementations is the contract, so every
kernel reproduces the reference code's *accumulation order*, not just
its mathematical value:

* merged-run lengths are summed per job with ``np.add.at`` — an
  unbuffered, in-order accumulation that performs the same sequence of
  float additions as the row loop's ``total += cur_end - cur_start``;
* bucket weights use ``np.bincount`` whose inner loop adds weights in
  input order, like ``buckets[k] += size`` record by record;
* bucket indices follow Python's ``(t - t0) // bucket_seconds``.
  ``bucket_accumulate`` takes ``np.floor`` of the rounded quotient,
  which equals the floor of the exact quotient unless the rounded
  quotient is itself an integer that the exact one lies just below
  (``1.0 // 0.1`` is 9, ``floor(1.0 / 0.1)`` is 10).  Only those
  quotients, and only inside the bucket range, are recomputed with
  ``np.floor_divide`` (the fmod-corrected floor Python's ``//`` uses);
* maxima (``np.maximum.reduceat``, the segmented scan) are exact — no
  rounding is involved in ``max`` — so run boundaries match the row
  merge exactly.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.obs import instrument_kernel


@instrument_kernel("segmented_cummax", rows=lambda values, seg_id: len(values))
def segmented_cummax(values: np.ndarray, seg_id: np.ndarray) -> np.ndarray:
    """Per-segment running maximum (segments = equal ``seg_id`` runs).

    ``seg_id`` must be non-decreasing with each segment contiguous.
    Hillis-Steele doubling: pass ``k`` combines each position with the
    value ``2**k`` behind it when both fall in the same segment.  After
    pass ``k`` position ``i`` covers ``max(values[j..i])`` with
    ``j = max(segment_start(i), i - 2**k + 1)``, so ``log2(n)`` passes
    yield the exact per-segment prefix maximum — no Python loop over
    elements, and ``max`` is exact on floats.
    """
    out = values.astype(np.float64, copy=True)
    n = len(out)
    shift = 1
    while shift < n:
        prev = np.where(seg_id[shift:] == seg_id[:-shift], out[:-shift], -np.inf)
        np.maximum(out[shift:], prev, out=out[shift:])
        shift <<= 1
    return out


@instrument_kernel(
    "interval_union_lengths",
    rows=lambda lo, hi, job_offsets, t_start, t_end: len(t_start),
)
def interval_union_lengths(
    lo: np.ndarray,
    hi: np.ndarray,
    job_offsets: np.ndarray,
    t_start: np.ndarray,
    t_end: np.ndarray,
) -> np.ndarray:
    """Per-job union length of transfer intervals clipped to [lo, hi).

    The vectorized counterpart of
    :func:`repro.panda.harvester.interval_union_length` applied to every
    job of a CSR ragged layout at once: clip, drop empty clips, sort
    each job's intervals by ``(start, end)``, split them into merged
    runs where a start exceeds the running maximum of previous ends,
    and accumulate ``run_max_end - run_start`` per job **in run order**
    (``np.add.at``), reproducing the row implementation's float
    accumulation bit for bit.  ``hi`` may be NaN (job never started):
    every comparison is then false and the job's total stays 0.0.
    """
    n_jobs = len(lo)
    totals = np.zeros(n_jobs, dtype=np.float64)
    if len(t_start) == 0 or n_jobs == 0:
        return totals
    counts = np.diff(job_offsets)
    job_of = np.repeat(np.arange(n_jobs, dtype=np.int64), counts)
    s = np.maximum(t_start, lo[job_of])
    e = np.minimum(t_end, hi[job_of])
    with np.errstate(invalid="ignore"):
        valid = e > s  # NaN bounds and hi <= lo clips both land here
    if not valid.any():
        return totals
    job_of, s, e = job_of[valid], s[valid], e[valid]

    order = np.lexsort((e, s, job_of))
    job_of, s, e = job_of[order], s[order], e[order]

    run_max = segmented_cummax(e, job_of)
    first = np.empty(len(job_of), dtype=bool)
    first[0] = True
    np.not_equal(job_of[1:], job_of[:-1], out=first[1:])
    prev_max = np.empty_like(run_max)
    prev_max[0] = -np.inf
    prev_max[1:] = run_max[:-1]
    new_run = first | (s > prev_max)

    run_starts = np.flatnonzero(new_run)
    run_end = np.maximum.reduceat(e, run_starts)
    np.add.at(totals, job_of[run_starts], run_end - s[run_starts])
    return totals


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` for each (start, count) pair."""
    ends = counts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return (starts - ends + counts).repeat(counts) + np.arange(total, dtype=np.int64)


def ascending(values: np.ndarray) -> bool:
    """Whether ``values`` is non-decreasing: one adjacent-difference
    pass, the check that lets already-sorted input skip its sort."""
    return not (values[1:] < values[:-1]).any()


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted: ``np.unique(values)`` by an
    adjacent-difference mask, sorting first only input that is not
    already ascending.  The result is always a new array, never
    ``values`` itself.  The plain ``np.unique`` form imports
    ``numpy.ma`` under NumPy 2.4, over a MiB of resident set."""
    if not ascending(values):
        values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def dense_codes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct, codes)``: the distinct values ascending, and each
    value's position among them, so ``distinct[codes] == values``.

    One stable argsort (linear on already-sorted input, which row ids in
    pack order usually are).  Equal values share a code wherever they
    sit, so a scatter over the codes counts distinct values without
    sorting again.
    """
    order = values.argsort(kind="stable")
    ordered = values[order]
    head = np.empty(len(ordered), dtype=bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    codes = np.empty(len(values), dtype=np.int64)
    codes[order] = np.cumsum(head) - 1
    return ordered[head], codes


@instrument_kernel("bucket_accumulate", rows=lambda times, *a, **k: len(times))
def bucket_accumulate(
    times: np.ndarray,
    weights: np.ndarray,
    t0: float,
    bucket_seconds: float,
    n_buckets: int,
) -> np.ndarray:
    """``buckets[k] += w`` for ``k = (t - t0) // bucket_seconds``.

    Out-of-range events are dropped; in-range weights accumulate in
    input order (``np.bincount``'s inner loop), matching the row loops'
    sequential float additions.  ``k`` is ``floor((t - t0) / b)``
    except where the rounded quotient is an integer in ``[0,
    n_buckets]``; there the exact quotient may lie just below it, and
    ``np.floor_divide`` (Python's fmod-corrected ``//``) decides.  NaN
    and infinite times fall outside every bucket.  At most two
    full-length temporaries are alive at once (the quotient and its
    floor, then the indices and the float weights).
    """
    times = np.asarray(times, dtype=np.float64)
    q = times - t0
    q /= bucket_seconds
    k = np.floor(q)
    edge = np.flatnonzero(k == q)
    edge = edge[(k[edge] >= 0) & (k[edge] <= n_buckets)]
    if len(edge):
        k[edge] = np.floor_divide(times[edge] - t0, bucket_seconds)
    del q
    # Out-of-range and NaN events land in a spare bucket past the end,
    # which is cut off; the kept buckets see the same additions in the
    # same order.
    dropped = k >= 0
    dropped &= k < n_buckets
    np.logical_not(dropped, out=dropped)
    k[dropped] = n_buckets
    k = k.astype(np.int64)
    return np.bincount(
        k, weights=np.asarray(weights, dtype=np.float64), minlength=n_buckets + 1
    )[:n_buckets]


@instrument_kernel("group_boundaries", rows=lambda sorted_ids: len(sorted_ids))
def group_boundaries(sorted_ids: np.ndarray) -> np.ndarray:
    """Start positions of each run of equal ids (non-decreasing input)."""
    if len(sorted_ids) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_ids)) + 1)
    ).astype(np.int64)
