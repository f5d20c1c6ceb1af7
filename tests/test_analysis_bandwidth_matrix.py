"""Tests for bandwidth series (Figs 7-8) and the site matrix (Fig 3)."""

import numpy as np
import pytest

from repro.core.analysis.bandwidth import (
    bandwidth_series,
    busiest_links,
    directional_asymmetry,
    link_transfers,
)
from repro.core.analysis.matrix import build_transfer_matrix
from repro.telemetry.records import UNKNOWN_SITE

from tests.helpers import columns_of, make_transfer


class TestBandwidthSeries:
    def test_bytes_conserved(self):
        ts = [
            make_transfer(row_id=1, size=3000, start=0.0, end=30.0),
            make_transfer(row_id=2, size=1000, start=50.0, end=70.0),
        ]
        s = bandwidth_series(ts, 0.0, 100.0, bucket_seconds=10.0)
        assert s.bytes_per_bucket.sum() == pytest.approx(4000.0)

    def test_uniform_spreading(self):
        ts = [make_transfer(size=1000, start=0.0, end=20.0)]
        s = bandwidth_series(ts, 0.0, 20.0, bucket_seconds=10.0)
        assert np.allclose(s.bytes_per_bucket, [500.0, 500.0])

    def test_partial_bucket_overlap(self):
        ts = [make_transfer(size=1000, start=5.0, end=15.0)]
        s = bandwidth_series(ts, 0.0, 20.0, bucket_seconds=10.0)
        assert np.allclose(s.bytes_per_bucket, [500.0, 500.0])

    def test_instantaneous_transfer(self):
        ts = [make_transfer(size=777, start=12.0, end=12.0)]
        s = bandwidth_series(ts, 0.0, 20.0, bucket_seconds=10.0)
        assert s.bytes_per_bucket[1] == 777

    def test_mbps_conversion(self):
        ts = [make_transfer(size=100 * 10**6, start=0.0, end=10.0)]
        s = bandwidth_series(ts, 0.0, 10.0, bucket_seconds=10.0)
        assert s.peak_mbps == pytest.approx(10.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_series([], 10.0, 10.0)

    def test_mbps_cached(self):
        ts = [make_transfer(size=1000, start=0.0, end=10.0)]
        s = bandwidth_series(ts, 0.0, 20.0, bucket_seconds=10.0)
        assert s.mbps is s.mbps  # cached_property: derived once per series
        assert s.peak_mbps == s.mbps.max()

    def test_fluctuation_zero_for_constant(self):
        ts = [make_transfer(size=1000, start=0.0, end=40.0)]
        s = bandwidth_series(ts, 0.0, 40.0, bucket_seconds=10.0)
        assert s.fluctuation == pytest.approx(0.0)

    def test_fluctuation_positive_for_bursty(self):
        ts = [
            make_transfer(row_id=1, size=10000, start=0.0, end=10.0),
            make_transfer(row_id=2, size=100, start=30.0, end=40.0),
        ]
        s = bandwidth_series(ts, 0.0, 40.0, bucket_seconds=10.0)
        assert s.fluctuation > 0.5

    def test_times_axis(self):
        s = bandwidth_series([], 100.0, 130.0, bucket_seconds=10.0)
        assert list(s.times()) == [100.0, 110.0, 120.0]


class TestLinkSelection:
    def test_busiest_remote_links(self):
        ts = (
            [make_transfer(row_id=i, src="A", dst="B") for i in range(5)]
            + [make_transfer(row_id=10 + i, src="A", dst="C") for i in range(2)]
            + [make_transfer(row_id=20 + i, src="A", dst="A") for i in range(9)]
        )
        top = busiest_links(ts, kind="remote", top=2)
        assert top[0][0] == ("A", "B") and top[0][1] == 5

    def test_busiest_local(self):
        ts = [make_transfer(row_id=i, src="A", dst="A") for i in range(3)]
        assert busiest_links(ts, kind="local") == [(("A", "A"), 3)]

    def test_unknown_excluded(self):
        ts = [make_transfer(src=UNKNOWN_SITE, dst="B")]
        assert busiest_links(ts, kind="remote") == []

    def test_link_transfers_filter(self):
        ts = [make_transfer(row_id=1, src="A", dst="B"),
              make_transfer(row_id=2, src="B", dst="A")]
        assert [t.row_id for t in link_transfers(ts, "A", "B")] == [1]

    def test_directional_asymmetry(self):
        ts = [
            make_transfer(row_id=1, src="A", dst="B", size=9000, start=0.0, end=10.0),
            make_transfer(row_id=2, src="B", dst="A", size=1000, start=0.0, end=10.0),
        ]
        fwd, rev = directional_asymmetry(ts, "A", "B", 0.0, 10.0, 10.0)
        assert fwd.peak_mbps > rev.peak_mbps


class TestTransferMatrix:
    def _matrix(self):
        names = ["A", "B", UNKNOWN_SITE]
        ts = [
            make_transfer(row_id=1, src="A", dst="A", size=700),
            make_transfer(row_id=2, src="A", dst="B", size=200),
            make_transfer(row_id=3, src="A", dst=UNKNOWN_SITE, size=100),
        ]
        return build_transfer_matrix(columns_of(transfers=ts), names)

    def test_total_and_local(self):
        m = self._matrix()
        assert m.total_volume == 1000
        assert m.local_volume == 700
        assert m.local_fraction == pytest.approx(0.7)

    def test_unknown_folding(self):
        names = ["A", UNKNOWN_SITE]
        ts = [make_transfer(src="A", dst="GARBAGE-NAME", size=50)]
        m = build_transfer_matrix(columns_of(transfers=ts), names)
        assert m.unknown_volume() == 50

    def test_requires_unknown_site(self):
        with pytest.raises(ValueError):
            build_transfer_matrix(columns_of(), ["A", "B"])

    def test_means(self):
        m = self._matrix()
        assert m.mean_pair_volume() == pytest.approx(1000 / 3)
        g = m.geometric_mean_pair_volume()
        assert g == pytest.approx((700 * 200 * 100) ** (1 / 3), rel=1e-6)
        assert m.imbalance_ratio() > 1.0

    def test_outliers(self):
        m = self._matrix()
        out = m.outliers(300)
        assert out == [("A", "A", 700.0)]

    def test_sites_with_traffic(self):
        m = self._matrix()
        assert m.sites_with_traffic() == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            from repro.core.analysis.matrix import TransferMatrix
            TransferMatrix(site_names=["A"], volume=np.zeros((2, 2)))

    def test_study_matrix_properties(self, small_study):
        m = build_transfer_matrix(
            small_study.source.columns, small_study.harness.topology.site_names())
        assert m.total_volume > 0
        # Fig 3 shape: local transfers dominate by volume
        assert m.local_fraction > 0.5
        # heavy tail: arithmetic mean well above geometric mean
        assert m.imbalance_ratio() > 2.0
        # the UNKNOWN row/column is populated (mislabelled endpoints)
        assert m.unknown_volume() > 0
