"""Additional property-based tests: subset matcher, popularity decay,
bandwidth conservation, temporal profiles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarIndex
from repro.core.analysis.bandwidth import bandwidth_series
from repro.core.analysis.temporal import transfer_volume_profile
from repro.core.matching.exact import ExactMatcher
from repro.core.matching.subset import SubsetMatcher
from repro.rucio.did import DID
from repro.rucio.popularity import PopularityTracker

from tests.helpers import columns_of, make_file, make_job, make_transfer


# -- subset matcher ---------------------------------------------------------------


@st.composite
def polluted_population(draw):
    """A clean job/file/transfer triple plus random duplicate transfers."""
    n_files = draw(st.integers(min_value=1, max_value=4))
    sizes = [draw(st.integers(min_value=1, max_value=5000)) for _ in range(n_files)]
    job = make_job(nin=sum(sizes), end=5000.0)
    files = [make_file(lfn=f"f{i}", size=sizes[i]) for i in range(n_files)]
    transfers = [
        make_transfer(row_id=i + 1, lfn=f"f{i}", size=sizes[i],
                      start=float(10 + i), end=float(20 + i))
        for i in range(n_files)
    ]
    n_dupes = draw(st.integers(min_value=0, max_value=4))
    for k in range(n_dupes):
        i = draw(st.integers(min_value=0, max_value=n_files - 1))
        transfers.append(make_transfer(
            row_id=100 + k, lfn=f"f{i}", size=sizes[i],
            start=float(500 + k), end=float(600 + k)))
    return job, files, transfers


@given(polluted_population())
@settings(max_examples=100, deadline=None)
def test_subset_always_matches_polluted_clean_core(pop):
    """Whatever duplicates pollute the candidates, subset matching finds
    a byte-exact selection (the clean core exists by construction)."""
    job, files, transfers = pop
    res = ColumnarIndex([job], files, transfers).run(SubsetMatcher(), len(transfers))
    assert res.n_matched_jobs == 1
    selected = res.matches[0].transfers
    assert sum(t.file_size for t in selected) == job.ninputfilebytes
    # at most one candidate per lfn
    lfns = [t.lfn for t in selected]
    assert len(lfns) == len(set(lfns))


@given(polluted_population())
@settings(max_examples=60, deadline=None)
def test_subset_dominates_exact(pop):
    job, files, transfers = pop
    index = ColumnarIndex([job], files, transfers)
    exact = index.run(ExactMatcher(), len(transfers))
    subset = index.run(SubsetMatcher(), len(transfers))
    assert exact.n_matched_jobs <= subset.n_matched_jobs


# -- popularity tracker ------------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_popularity_monotone_decay(times):
    """A single access only ever decays as time moves forward."""
    t = PopularityTracker(half_life=1000.0)
    d = DID("s", "ds")
    t.record_access(d, now=0.0)
    scores = [t.score(d, now) for now in sorted(times)]
    for a, b in zip(scores, scores[1:]):
        assert b <= a + 1e-9
    assert all(s > 0 for s in scores)


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=30, deadline=None)
def test_popularity_additive_at_same_instant(n):
    t = PopularityTracker()
    d = DID("s", "ds")
    for _ in range(n):
        t.record_access(d, now=42.0)
    assert t.score(d, now=42.0) == pytest.approx(float(n))


# -- conservation laws ----------------------------------------------------------------


@st.composite
def random_transfers(draw):
    n = draw(st.integers(min_value=0, max_value=20))
    out = []
    for i in range(n):
        start = draw(st.floats(min_value=0, max_value=900))
        dur = draw(st.floats(min_value=0, max_value=100))
        size = draw(st.integers(min_value=1, max_value=10**6))
        out.append(make_transfer(row_id=i + 1, size=size, start=start,
                                 end=start + dur))
    return out


@given(random_transfers())
@settings(max_examples=80, deadline=None)
def test_bandwidth_series_conserves_bytes(transfers):
    """Bucketing spreads but never creates or destroys bytes (within
    the window that fully contains every transfer)."""
    s = bandwidth_series(transfers, 0.0, 1100.0, bucket_seconds=50.0)
    total = sum(t.file_size for t in transfers)
    assert s.bytes_per_bucket.sum() == pytest.approx(total, rel=1e-9, abs=1e-6)


@given(random_transfers())
@settings(max_examples=60, deadline=None)
def test_temporal_profile_conserves_started_bytes(transfers):
    prof = transfer_volume_profile(
        columns_of(transfers=transfers), 0.0, 1100.0, bucket_seconds=100.0)
    total = sum(t.file_size for t in transfers)
    assert prof.total == pytest.approx(total)


@given(random_transfers(), st.floats(min_value=10, max_value=500))
@settings(max_examples=60, deadline=None)
def test_temporal_gini_bucket_invariance_bounds(transfers, bucket):
    prof = transfer_volume_profile(
        columns_of(transfers=transfers), 0.0, 1100.0, bucket_seconds=bucket)
    g = prof.temporal_gini()
    assert -1e-9 <= g <= 1.0
