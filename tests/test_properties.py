"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarIndex
from repro.core.anomaly.imbalance import gini_coefficient
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.rm1 import RM1Matcher
from repro.core.matching.rm2 import RM2Matcher
from repro.panda.harvester import interval_union_length
from repro.reporting.figures import sparkline
from repro.sim.engine import Engine
from repro.telemetry.records import UNKNOWN_SITE

from tests.helpers import make_file, make_job, make_transfer

# -- event engine ----------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False), max_size=60))
@settings(max_examples=60, deadline=None)
def test_engine_executes_in_nondecreasing_time(times):
    engine = Engine()
    seen = []
    for t in times:
        engine.schedule_at(t, lambda t=t: seen.append(engine.now))
    engine.run()
    assert seen == sorted(seen)
    assert len(seen) == len(times)


# -- interval union ----------------------------------------------------------------

interval = st.tuples(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0, max_value=1000, allow_nan=False),
).map(lambda ab: (min(ab), max(ab)))


@given(st.lists(interval, max_size=30),
       st.floats(min_value=0, max_value=1000, allow_nan=False),
       st.floats(min_value=0, max_value=1000, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_interval_union_bounded_by_window(intervals, a, b):
    lo, hi = min(a, b), max(a, b)
    length = interval_union_length(intervals, lo, hi)
    assert 0.0 <= length <= (hi - lo) + 1e-9


@given(st.lists(interval, max_size=20), st.lists(interval, max_size=20))
@settings(max_examples=80, deadline=None)
def test_interval_union_monotone_in_intervals(xs, ys):
    """Adding intervals can only grow the union."""
    u1 = interval_union_length(xs, 0, 1000)
    u2 = interval_union_length(xs + ys, 0, 1000)
    assert u2 >= u1 - 1e-9


@given(st.lists(interval, max_size=20))
@settings(max_examples=60, deadline=None)
def test_interval_union_at_most_sum(xs):
    total = sum(b - a for a, b in xs)
    assert interval_union_length(xs, 0, 1000) <= total + 1e-9


# -- matching monotonicity on random degraded populations ------------------------------


@st.composite
def degraded_population(draw):
    """A job + files + transfers, randomly perturbed like the degrader."""
    n_files = draw(st.integers(min_value=1, max_value=5))
    job = make_job(nin=n_files * 1000, end=draw(st.floats(500, 5000)))
    files, transfers = [], []
    for i in range(n_files):
        files.append(make_file(lfn=f"f{i}", size=1000))
        size = draw(st.sampled_from([1000, 1001]))          # size drift
        taskid = draw(st.sampled_from([100, 100, 100, 0]))  # taskid loss
        dst = draw(st.sampled_from(["SITE-A", "SITE-A", UNKNOWN_SITE, "SITE-B"]))
        start = draw(st.floats(0, 4000))
        transfers.append(make_transfer(
            row_id=i + 1, lfn=f"f{i}", size=size, dst=dst,
            start=start, end=start + draw(st.floats(1, 100)),
            jeditaskid=taskid,
        ))
    return job, files, transfers


@given(degraded_population())
@settings(max_examples=120, deadline=None)
def test_matchers_nest(pop):
    job, files, transfers = pop
    index = ColumnarIndex([job], files, transfers)
    known = {"SITE-A", "SITE-B"}
    exact = index.run(ExactMatcher(known), len(transfers))
    rm1 = index.run(RM1Matcher(known), len(transfers))
    rm2 = index.run(RM2Matcher(known), len(transfers))
    assert exact.matched_transfer_ids() <= rm1.matched_transfer_ids()
    assert rm1.matched_transfer_ids() <= rm2.matched_transfer_ids()
    assert exact.n_matched_jobs <= rm1.n_matched_jobs <= rm2.n_matched_jobs


@given(degraded_population())
@settings(max_examples=80, deadline=None)
def test_matched_transfers_satisfy_time_condition(pop):
    job, files, transfers = pop
    index = ColumnarIndex([job], files, transfers)
    for matcher in (ExactMatcher(), RM1Matcher(), RM2Matcher()):
        res = index.run(matcher, len(transfers))
        for m in res.matches:
            for t in m.transfers:
                assert t.starttime < m.job.endtime


# -- gini ----------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
                min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_gini_in_unit_interval(values):
    g = gini_coefficient(np.array(values))
    assert -1e-9 <= g <= 1.0


@given(st.floats(min_value=0.1, max_value=1e6), st.integers(min_value=2, max_value=50))
@settings(max_examples=50, deadline=None)
def test_gini_zero_for_equal(value, n):
    assert gini_coefficient(np.full(n, value)) < 1e-6


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=50),
       st.floats(min_value=1.1, max_value=10))
@settings(max_examples=50, deadline=None)
def test_gini_scale_invariant(values, k):
    v = np.array(values)
    assert gini_coefficient(v) == pytest.approx(gini_coefficient(v * k), abs=1e-6)


# -- sparkline --------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=500),
       st.integers(min_value=1, max_value=120))
@settings(max_examples=60, deadline=None)
def test_sparkline_width_bounded(values, width):
    s = sparkline(values, width=width)
    assert len(s) == min(len(values), width)
