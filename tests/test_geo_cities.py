"""Tests for the embedded world-cities dataset."""

import pytest

from repro.errors import AnalysisError
from repro.geo import (
    CITY_DISTANCES,
    COUNTRY_REGIONS,
    Region,
    WORLD_CITIES,
    cities_by_country,
    city_named,
    great_circle_km,
)


class TestDatasetIntegrity:
    def test_reasonable_size(self):
        assert len(WORLD_CITIES) >= 120

    def test_names_unique(self):
        names = [c.name for c in WORLD_CITIES]
        assert len(names) == len(set(names))

    def test_every_country_has_region(self):
        for city in WORLD_CITIES:
            assert city.country in COUNTRY_REGIONS, city.name

    def test_all_regions_populated(self):
        regions = {c.region for c in WORLD_CITIES}
        assert regions == set(Region)

    def test_populations_positive(self):
        assert all(c.population_m > 0 for c in WORLD_CITIES)

    def test_coordinates_sane(self):
        for city in WORLD_CITIES:
            assert -90 <= city.location.lat <= 90
            assert -180 <= city.location.lon <= 180

    def test_known_coordinates(self):
        tokyo = city_named("Tokyo")
        assert tokyo.location.lat == pytest.approx(35.68, abs=0.5)
        assert tokyo.country == "JP"
        assert tokyo.region is Region.ASIA


class TestLookups:
    def test_city_named_found(self):
        assert city_named("London").country == "GB"

    def test_city_named_missing(self):
        with pytest.raises(AnalysisError):
            city_named("Atlantis")

    def test_cities_by_country(self):
        us = cities_by_country("US")
        assert len(us) >= 15
        assert all(c.country == "US" for c in us)

    def test_cities_by_country_case_insensitive(self):
        assert cities_by_country("us") == cities_by_country("US")

    def test_cities_by_country_unknown_is_empty(self):
        assert cities_by_country("ZZ") == []

    def test_distance_between_cities(self):
        paris = city_named("Paris")
        london = city_named("London")
        assert 300 < paris.distance_km(london) < 400


class TestCityDistances:
    def test_haversine_is_bitwise_symmetric(self):
        """The process memo stores whichever argument order asks first,
        so both orders must give the same bits for every pair."""
        asymmetric = [
            (a.name, b.name)
            for i, a in enumerate(WORLD_CITIES)
            for b in WORLD_CITIES[i + 1 :]
            if great_circle_km(a.location, b.location)
            != great_circle_km(b.location, a.location)
        ]
        assert asymmetric == []

    def test_memo_matches_haversine_in_both_orders(self):
        paris, tokyo = city_named("Paris"), city_named("Tokyo")
        km = great_circle_km(paris.location, tokyo.location)
        assert CITY_DISTANCES(tokyo, paris) == km
        assert CITY_DISTANCES(paris, tokyo) == km

    def test_city_hashes_by_name(self):
        paris = city_named("Paris")
        assert hash(paris) == hash("Paris")
        assert paris in {city_named("Paris")}
        assert paris not in {city_named("London")}
