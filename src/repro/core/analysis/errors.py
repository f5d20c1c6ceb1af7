"""Error-pattern analysis.

§3.1: "minimizing input data movement reduces network traffic but can
overload compute resources at a single site, thereby degrading job
throughput and **shifting failure patterns from the network to the
compute infrastructure**."  §5.3 adds that "transfer-related error
patterns may shift when alternative sites are used."

This module classifies job errors into network/storage-side
(stage-in/out) vs compute-side (payload) families, profiles them per
site, and compares error mixes between job populations — the tool
needed to *observe* the shift the paper hypothesises.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.columnar.kernels import dense_codes
from repro.panda.errors import ErrorCode
from repro.telemetry.records import JobRecord
from repro.units import ratio_pct


class ErrorFamily(enum.Enum):
    NONE = "none"
    DATA = "data"          # stage-in/out, i.e. network/storage side
    COMPUTE = "compute"    # payload execution side
    SITE = "site"          # site service problems
    OTHER = "other"


#: error code -> family
ERROR_FAMILIES: Dict[int, ErrorFamily] = {
    0: ErrorFamily.NONE,
    int(ErrorCode.STAGEIN_FAILED): ErrorFamily.DATA,
    int(ErrorCode.STAGEIN_TIMEOUT): ErrorFamily.DATA,
    int(ErrorCode.STAGEOUT_FAILED): ErrorFamily.DATA,
    int(ErrorCode.PAYLOAD_OVERLAY): ErrorFamily.COMPUTE,
    int(ErrorCode.PAYLOAD_SEGFAULT): ErrorFamily.COMPUTE,
    int(ErrorCode.PAYLOAD_BAD_OUTPUT): ErrorFamily.COMPUTE,
    int(ErrorCode.SITE_SERVICE_ERROR): ErrorFamily.SITE,
    int(ErrorCode.LOST_HEARTBEAT): ErrorFamily.SITE,
}


def family_of(error_code: int) -> ErrorFamily:
    return ERROR_FAMILIES.get(error_code, ErrorFamily.OTHER)


@dataclass(frozen=True)
class ErrorMix:
    """Failure composition of one job population."""

    n_jobs: int
    n_failed: int
    by_family: Dict[ErrorFamily, int]
    by_code: Dict[int, int]

    @property
    def failure_rate(self) -> float:
        return self.n_failed / self.n_jobs if self.n_jobs else 0.0

    def family_share(self, family: ErrorFamily) -> float:
        """Share of *failures* attributed to the family."""
        if not self.n_failed:
            return 0.0
        return self.by_family.get(family, 0) / self.n_failed

    def dominant_family(self) -> ErrorFamily:
        failures = {f: n for f, n in self.by_family.items() if f is not ErrorFamily.NONE}
        if not failures:
            return ErrorFamily.NONE
        return max(failures, key=lambda f: failures[f])


def error_mix(jobs: Sequence[JobRecord]) -> ErrorMix:
    by_family: Dict[ErrorFamily, int] = {}
    by_code: Dict[int, int] = {}
    failed = 0
    for j in jobs:
        if j.succeeded:
            continue
        failed += 1
        fam = family_of(j.error_code)
        by_family[fam] = by_family.get(fam, 0) + 1
        by_code[j.error_code] = by_code.get(j.error_code, 0) + 1
    return ErrorMix(n_jobs=len(jobs), n_failed=failed, by_family=by_family, by_code=by_code)


def grouped_error_mixes(
    group: np.ndarray, failed: np.ndarray, codes: np.ndarray, n_groups: int
) -> List[ErrorMix]:
    """:func:`error_mix` of every job group, computed from columns.

    ``group`` holds each job's group in ``[0, n_groups)``, ``failed``
    its failure flag and ``codes`` its error code, all in record order.
    Entry ``g`` equals ``error_mix`` over group ``g``'s records in
    record order, down to the insertion order of ``by_code`` and
    ``by_family`` (a key enters at its first failed job), which decides
    ties in :meth:`ErrorMix.dominant_family` and
    :func:`top_error_codes`.
    """
    n_jobs = np.bincount(group, minlength=n_groups)
    f_group, f_code = group[failed], codes[failed]
    n_failed = np.bincount(f_group, minlength=n_groups)
    by_family: List[Dict[ErrorFamily, int]] = [{} for _ in range(n_groups)]
    by_code: List[Dict[int, int]] = [{} for _ in range(n_groups)]
    if len(f_group):
        # One row per distinct (group, code), visited in the order of
        # its first failed job.  The pair packs into one int64 key over
        # the codes' ranks, and a stable sort puts each key's first
        # failed job at the head of its run.
        vocab, rank = dense_codes(f_code)
        key = f_group.astype(np.int64) * len(vocab) + rank
        order = np.argsort(key, kind="stable")
        key = key[order]
        heads = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        counts = np.diff(np.append(heads, len(key)))
        first = order[heads]
        visit = np.argsort(first)
        for g, code, n in zip(
            f_group[first[visit]].tolist(),
            f_code[first[visit]].tolist(),
            counts[visit].tolist(),
        ):
            by_code[g][code] = n
            fam = family_of(code)
            by_family[g][fam] = by_family[g].get(fam, 0) + n
    return [
        ErrorMix(
            n_jobs=int(n_jobs[g]),
            n_failed=int(n_failed[g]),
            by_family=by_family[g],
            by_code=by_code[g],
        )
        for g in range(n_groups)
    ]


@dataclass(frozen=True)
class SiteErrorProfile:
    site: str
    mix: ErrorMix

    @property
    def failure_rate(self) -> float:
        return self.mix.failure_rate


def site_error_profiles(
    jobs: Sequence[JobRecord], min_jobs: int = 10
) -> List[SiteErrorProfile]:
    """Per-site failure composition, highest failure rate first."""
    by_site: Dict[str, List[JobRecord]] = {}
    for j in jobs:
        by_site.setdefault(j.computingsite, []).append(j)
    profiles = [
        SiteErrorProfile(site=s, mix=error_mix(js))
        for s, js in by_site.items()
        if len(js) >= min_jobs
    ]
    profiles.sort(key=lambda p: -p.failure_rate)
    return profiles


@dataclass(frozen=True)
class ErrorShift:
    """Comparison of two populations' failure composition (§3.1)."""

    baseline: ErrorMix
    alternative: ErrorMix

    def family_delta(self, family: ErrorFamily) -> float:
        """Change in the family's share of failures (alternative - baseline)."""
        return self.alternative.family_share(family) - self.baseline.family_share(family)

    @property
    def shifted_toward_compute(self) -> bool:
        """The paper's predicted direction under aggressive locality."""
        return self.family_delta(ErrorFamily.COMPUTE) > 0

    def summary(self) -> str:
        lines = [
            f"failure rate: {self.baseline.failure_rate:.1%} -> "
            f"{self.alternative.failure_rate:.1%}"
        ]
        for fam in (ErrorFamily.DATA, ErrorFamily.COMPUTE, ErrorFamily.SITE):
            lines.append(
                f"  {fam.value:<8s} share: {self.baseline.family_share(fam):.1%} -> "
                f"{self.alternative.family_share(fam):.1%} "
                f"({self.family_delta(fam):+.1%})"
            )
        return "\n".join(lines)


def compare_error_mixes(
    baseline_jobs: Sequence[JobRecord], alternative_jobs: Sequence[JobRecord]
) -> ErrorShift:
    return ErrorShift(
        baseline=error_mix(baseline_jobs),
        alternative=error_mix(alternative_jobs),
    )


def top_error_codes(mix: ErrorMix, top: int = 5) -> List[tuple[int, int, float]]:
    """(code, count, % of failures), most frequent first."""
    ranked = sorted(mix.by_code.items(), key=lambda kv: -kv[1])
    return [(code, n, ratio_pct(n, mix.n_failed)) for code, n in ranked[:top]]
