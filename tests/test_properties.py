"""Property-based tests (hypothesis) for core math and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import weighted_cdf
from repro.geo import GeoPoint, great_circle_km, propagation_one_way_ms
from repro.bgp import Route, RoutePref
from repro.netmodel import CongestionConfig, CongestionModel

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, latitudes, longitudes)


class TestGreatCircleProperties:
    @given(points, points)
    def test_symmetry(self, a, b):
        assert great_circle_km(a, b) == pytest.approx(
            great_circle_km(b, a), abs=1e-6
        )

    @given(points)
    def test_identity(self, a):
        assert great_circle_km(a, a) == 0.0

    @given(points, points)
    def test_bounded_by_half_circumference(self, a, b):
        assert 0.0 <= great_circle_km(a, b) <= 20_040.0

    @given(points, points, points)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        ab = great_circle_km(a, b)
        bc = great_circle_km(b, c)
        ac = great_circle_km(a, c)
        # Tolerance of one meter: haversine loses a few dozen microns of
        # precision near antipodal pairs, which hypothesis finds.
        assert ac <= ab + bc + 1e-3

    @given(
        st.floats(min_value=0.0, max_value=40_000.0),
        st.floats(min_value=1.0, max_value=3.0),
    )
    def test_propagation_monotone_in_inflation(self, km, inflation):
        assert propagation_one_way_ms(km, inflation) >= propagation_one_way_ms(km)


weights_and_values = st.lists(
    st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


class TestWeightedCdfProperties:
    @given(weights_and_values)
    def test_cdf_monotone_and_normalized(self, pairs):
        values = [p[0] for p in pairs]
        weights = [p[1] for p in pairs]
        cdf = weighted_cdf(values, weights)
        assert (np.diff(cdf.ps) >= -1e-12).all()
        assert cdf.ps[-1] == pytest.approx(1.0)
        assert (np.diff(cdf.xs) > 0).all()

    @given(weights_and_values, st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_inverse(self, pairs, q):
        values = [p[0] for p in pairs]
        weights = [p[1] for p in pairs]
        cdf = weighted_cdf(values, weights)
        x = cdf.quantile(q)
        # The CDF at the q-quantile covers at least q (up to the last value).
        if x < cdf.xs[-1]:
            assert cdf.fraction_at_most(x) >= q - 1e-9

    @given(weights_and_values)
    def test_median_within_range(self, pairs):
        values = [p[0] for p in pairs]
        weights = [p[1] for p in pairs]
        median = weighted_cdf(values, weights).quantile(0.5)
        assert min(values) <= median <= max(values)

    @given(weights_and_values, st.floats(min_value=-10.0, max_value=10.0))
    def test_shift_equivariance(self, pairs, shift):
        values = [p[0] for p in pairs]
        weights = [p[1] for p in pairs]
        base = weighted_cdf(values, weights).quantile(0.5)
        shifted = weighted_cdf([v + shift for v in values], weights).quantile(0.5)
        assert shifted == pytest.approx(base + shift, abs=1e-6)


as_paths = st.lists(
    st.integers(min_value=1, max_value=10_000), min_size=1, max_size=8, unique=True
)


class TestRouteProperties:
    @given(as_paths)
    def test_roundtrip_extension(self, path):
        """Building a route hop by hop preserves path and length."""
        route = Route(path=(path[-1],), pref=RoutePref.ORIGIN, advertised_length=0)
        for asn in reversed(path[:-1]):
            route = route.extended_to(asn, RoutePref.CUSTOMER)
        assert route.path == tuple(path)
        assert route.advertised_length == len(path) - 1
        assert route.as_hops == len(path) - 1

    @given(as_paths, st.integers(min_value=0, max_value=7))
    def test_prepending_only_lengthens(self, path, extra):
        route = Route(path=(path[-1],), pref=RoutePref.ORIGIN, advertised_length=0)
        for asn in reversed(path[:-1]):
            route = route.extended_to(asn, RoutePref.CUSTOMER, extra_length=extra)
        assert route.advertised_length >= route.as_hops


class TestCongestionProperties:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.text(alphabet="abcdefgh:0123456789", min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_determinism_per_seed_key(self, seed, key):
        cfg = CongestionConfig(horizon_hours=48.0)
        times = np.arange(0.0, 48.0, 0.25)
        a = CongestionModel(seed, cfg).event_and_shift_delays((key,), (key,), times)
        b = CongestionModel(seed, cfg).event_and_shift_delays((key,), (key,), times)
        assert [row.tobytes() for row in a] == [row.tobytes() for row in b]

    @given(st.floats(min_value=-180.0, max_value=180.0))
    @settings(max_examples=50, deadline=None)
    def test_diurnal_nonnegative_everywhere(self, lon):
        model = CongestionModel(0, CongestionConfig(horizon_hours=24.0))
        times = np.linspace(0.0, 24.0, 97)
        delay = model.diurnal_delay(times, lon)
        assert (delay >= 0.0).all()
        assert (delay <= model.config.diurnal_peak_ms + 1e-9).all()
