"""Analyses over matched jobs and degraded transfer records.

Each module maps to specific paper exhibits:

* :mod:`summary` — Table 1 (activity breakdown), Table 2 (method
  comparison), §5.1 headline statistics.
* :mod:`queuing` — Figs 5-6 (queuing-time breakdowns of top jobs).
* :mod:`bandwidth` — Figs 7-8 (bandwidth variation over time).
* :mod:`matrix` — Fig 3 (site-to-site transfer volume matrix).
* :mod:`thresholds` — Fig 9 (status counts under transfer-time-%
  thresholds).
* :mod:`timeline` — Figs 10-12 (per-job matching timelines and case
  studies).
"""

from repro.core.analysis.queuing import (
    JobTransferTiming,
    TimingTable,
    compute_timing,
    timing_table,
    timings_for_result,
)
from repro.core.analysis.summary import (
    ActivityRow,
    activity_breakdown,
    headline_stats,
    method_comparison_jobs,
    method_comparison_transfers,
)
from repro.core.analysis.bandwidth import BandwidthSeries, bandwidth_series, busiest_links
from repro.core.analysis.matrix import TransferMatrix, build_transfer_matrix
from repro.core.analysis.thresholds import (
    StatusCombo,
    threshold_sweep_result,
)
from repro.core.analysis.timeline import JobTimeline, build_timeline
from repro.core.analysis.errors import (
    ErrorFamily,
    ErrorMix,
    ErrorShift,
    compare_error_mixes,
    error_mix,
    site_error_profiles,
)
from repro.core.analysis.temporal import (
    TemporalProfile,
    submission_profile,
    transfer_volume_profile,
)

__all__ = [
    "JobTransferTiming",
    "TimingTable",
    "compute_timing",
    "timing_table",
    "timings_for_result",
    "ActivityRow",
    "activity_breakdown",
    "headline_stats",
    "method_comparison_jobs",
    "method_comparison_transfers",
    "BandwidthSeries",
    "bandwidth_series",
    "busiest_links",
    "TransferMatrix",
    "build_transfer_matrix",
    "StatusCombo",
    "threshold_sweep_result",
    "JobTimeline",
    "build_timeline",
    "ErrorFamily",
    "ErrorMix",
    "ErrorShift",
    "compare_error_mixes",
    "error_mix",
    "site_error_profiles",
    "TemporalProfile",
    "submission_profile",
    "transfer_volume_profile",
]
