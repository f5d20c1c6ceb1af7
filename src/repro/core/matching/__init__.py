"""Job ↔ transfer matching (Algorithm 1, relaxed and scored variants)."""

from repro.core.matching.base import (
    JobMatch,
    MatchResult,
    MatchingReport,
    TransferClass,
)
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.rm1 import RM1Matcher
from repro.core.matching.rm2 import RM2Matcher
from repro.core.matching.rm3 import DEFAULT_RM3_THRESHOLD, RM3Matcher
from repro.core.matching.subset import SubsetMatcher
from repro.core.matching.pipeline import MatchingPipeline
from repro.core.matching.evaluation import (
    MatchEvaluation,
    SiteRecovery,
    evaluate_against_truth,
    recover_unknown_sites,
    visible_true_pairs,
)

__all__ = [
    "JobMatch",
    "MatchResult",
    "TransferClass",
    "ExactMatcher",
    "RM1Matcher",
    "RM2Matcher",
    "RM3Matcher",
    "DEFAULT_RM3_THRESHOLD",
    "SubsetMatcher",
    "MatchingPipeline",
    "MatchingReport",
    "MatchEvaluation",
    "SiteRecovery",
    "evaluate_against_truth",
    "recover_unknown_sites",
    "visible_true_pairs",
]
