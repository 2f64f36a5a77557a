"""Geography substrate: coordinates, distances, cities, and world regions.

Everything in the simulator that produces a latency ultimately bottoms out
in great-circle distances between :class:`~repro.geo.coords.GeoPoint`
locations drawn from the embedded world-cities dataset.
"""

from repro.geo.coords import (
    GeoPoint,
    great_circle_km,
    great_circle_km_matrix,
    propagation_one_way_ms,
    propagation_rtt_ms,
    EARTH_RADIUS_KM,
    FIBER_KM_PER_MS,
)
from repro.geo.cities import (
    CITY_DISTANCES,
    City,
    CityDistanceCache,
    WORLD_CITIES,
    cities_by_country,
    city_named,
)
from repro.geo.regions import (
    Region,
    region_of_country,
    countries_in_region,
    COUNTRY_REGIONS,
)

__all__ = [
    "GeoPoint",
    "great_circle_km",
    "great_circle_km_matrix",
    "propagation_one_way_ms",
    "propagation_rtt_ms",
    "EARTH_RADIUS_KM",
    "FIBER_KM_PER_MS",
    "City",
    "CityDistanceCache",
    "CITY_DISTANCES",
    "WORLD_CITIES",
    "cities_by_country",
    "city_named",
    "Region",
    "region_of_country",
    "countries_in_region",
    "COUNTRY_REGIONS",
]
