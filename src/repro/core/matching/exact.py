"""Exact matching — Algorithm 1 of the paper.

For each job J_j:

1. F'_j — the job's file rows (pandaid + jeditaskid agreement);
2. T'_j — transfers attribute-matching those files on
   (lfn, dataset, proddblock, scope, file_size);
3. keep transfers satisfying all of:
   (1) ``starttime < J_j.endtime``;
   (2) the *whole-set* size ``S_j = Σ file_size`` equals
       ``ninputfilebytes`` or ``noutputfilebytes`` — the set-level test
       the paper uses "rather than solving the underlying NP-hard
       problem of subset selection";
   (3) downloads land at the computing site; uploads leave from it.

Steps 1-2 live in :class:`~repro.columnar.engine.ColumnarIndex`;
this class supplies the strict final filter.
"""

from __future__ import annotations

from repro.core.matching.base import BaseMatcher


class ExactMatcher(BaseMatcher):
    """The strict matcher: all three conditions enforced."""

    name = "exact"
    use_size_check = True
