"""The analysis-window convention, stated once: half-open ``[t0, t1)``.

Every window cut in the repo follows the same rule:

* a record timestamped **exactly t0 is inside** the window;
* a record timestamped **exactly t1 is outside** it (it belongs to the
  next window).

Jobs are selected on ``endtime``, transfers on ``starttime``.  The
convention matters because the same window is cut by several
independent implementations that must agree record-for-record:

* the collector's sort-once + bisect pre-selection
  (:meth:`repro.telemetry.collector.TelemetryCollector.transfers_in_window`);
* the metastore's per-slice cuts
  (:class:`repro.metastore.packsource.PackSource`), the repo's one
  time-sharded index;
* the streaming ingest filter and event-log trim (``repro.stream``).

Half-open windows tile: sliding windows with step == length partition
the timeline with every event counted exactly once.  The ``searchsorted``
lowering is ``side="left"`` at *both* bounds — ``side="left"`` at ``t0``
admits values equal to ``t0``, and ``side="left"`` at ``t1`` excludes
values equal to ``t1``.  Predicate-loop call sites use
:func:`in_window`; array call sites keep the searchsorted form and are
pinned against it by ``tests/test_window_boundaries.py``.
"""

from __future__ import annotations


def in_window(t: float, t0: float, t1: float) -> bool:
    """Membership in the half-open window ``[t0, t1)``."""
    return t0 <= t < t1
