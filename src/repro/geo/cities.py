"""Embedded world-cities dataset.

The original studies geolocate clients, PoPs, and vantage points against
real infrastructure; we substitute a curated dataset of ~220 cities
with approximate coordinates and metro populations.  Coordinates are
accurate to well under the ~100 km granularity that matters for the latency
model (1 ms RTT per 100 km), and populations are only used as relative
weights for client placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import AnalysisError
from repro.geo.coords import GeoPoint, great_circle_km
from repro.geo.regions import COUNTRY_REGIONS, Region


@dataclass(frozen=True)
class City:
    """A city usable as a location for PoPs, clients, and vantage points.

    Attributes:
        name: Human-readable city name, unique within the dataset.
        country: ISO 3166-1 alpha-2 country code.
        location: Geographic coordinates of the city centre.
        population_m: Approximate metro population, in millions. Used only
            as a relative weight when placing clients.
    """

    name: str
    country: str
    location: GeoPoint
    population_m: float

    @property
    def region(self) -> Region:
        """Continental region of the city's country."""
        return COUNTRY_REGIONS[self.country]

    def distance_km(self, other: "City") -> float:
        """Great-circle distance to another city, in kilometres."""
        return self.location.distance_km(other.location)


def _c(name: str, country: str, lat: float, lon: float, pop: float) -> City:
    return City(name, country, GeoPoint(lat, lon), pop)


#: The dataset.  Grouped by region for readability; order is otherwise
#: insignificant (lookups go through the indexes below).
WORLD_CITIES: Tuple[City, ...] = (
    # --- North America: United States ---
    _c("New York", "US", 40.71, -74.01, 19.8),
    _c("Los Angeles", "US", 34.05, -118.24, 13.2),
    _c("Chicago", "US", 41.88, -87.63, 9.5),
    _c("Dallas", "US", 32.78, -96.80, 7.6),
    _c("Houston", "US", 29.76, -95.37, 7.1),
    _c("Washington", "US", 38.91, -77.04, 6.3),
    _c("Miami", "US", 25.76, -80.19, 6.1),
    _c("Atlanta", "US", 33.75, -84.39, 6.0),
    _c("Boston", "US", 42.36, -71.06, 4.9),
    _c("Phoenix", "US", 33.45, -112.07, 4.9),
    _c("San Francisco", "US", 37.77, -122.42, 4.7),
    _c("Seattle", "US", 47.61, -122.33, 4.0),
    _c("Denver", "US", 39.74, -104.99, 3.0),
    _c("Minneapolis", "US", 44.98, -93.27, 3.7),
    _c("San Diego", "US", 32.72, -117.16, 3.3),
    _c("Council Bluffs", "US", 41.26, -95.86, 1.0),  # Google US-Central area
    _c("Kansas City", "US", 39.10, -94.58, 2.2),
    _c("St. Louis", "US", 38.63, -90.20, 2.8),
    _c("Portland", "US", 45.52, -122.68, 2.5),
    _c("Salt Lake City", "US", 40.76, -111.89, 1.2),
    _c("Ashburn", "US", 39.04, -77.49, 0.5),
    # --- North America: Canada, Mexico, Central America, Caribbean ---
    _c("Toronto", "CA", 43.65, -79.38, 6.4),
    _c("Montreal", "CA", 45.50, -73.57, 4.3),
    _c("Vancouver", "CA", 49.28, -123.12, 2.6),
    _c("Calgary", "CA", 51.05, -114.07, 1.5),
    _c("Mexico City", "MX", 19.43, -99.13, 21.8),
    _c("Guadalajara", "MX", 20.67, -103.35, 5.3),
    _c("Monterrey", "MX", 25.69, -100.32, 5.3),
    _c("Guatemala City", "GT", 14.63, -90.51, 3.0),
    _c("San Jose CR", "CR", 9.93, -84.08, 1.4),
    _c("Panama City", "PA", 8.98, -79.52, 1.9),
    _c("Havana", "CU", 23.11, -82.37, 2.1),
    _c("Santo Domingo", "DO", 18.49, -69.93, 3.3),
    # --- South America ---
    _c("Sao Paulo", "BR", -23.55, -46.63, 22.0),
    _c("Rio de Janeiro", "BR", -22.91, -43.17, 13.5),
    _c("Brasilia", "BR", -15.79, -47.88, 4.7),
    _c("Fortaleza", "BR", -3.73, -38.52, 4.1),
    _c("Porto Alegre", "BR", -30.03, -51.23, 4.3),
    _c("Buenos Aires", "AR", -34.60, -58.38, 15.2),
    _c("Cordoba", "AR", -31.42, -64.18, 1.6),
    _c("Santiago", "CL", -33.45, -70.67, 6.8),
    _c("Bogota", "CO", 4.71, -74.07, 11.0),
    _c("Medellin", "CO", 6.24, -75.58, 4.0),
    _c("Lima", "PE", -12.05, -77.04, 11.0),
    _c("Caracas", "VE", 10.48, -66.90, 2.9),
    _c("Quito", "EC", -0.18, -78.47, 1.9),
    _c("La Paz", "BO", -16.50, -68.15, 1.9),
    _c("Montevideo", "UY", -34.90, -56.16, 1.8),
    _c("Asuncion", "PY", -25.26, -57.58, 2.3),
    # --- Europe ---
    _c("London", "GB", 51.51, -0.13, 14.3),
    _c("Manchester", "GB", 53.48, -2.24, 2.8),
    _c("Paris", "FR", 48.86, 2.35, 12.4),
    _c("Marseille", "FR", 43.30, 5.37, 1.8),
    _c("Frankfurt", "DE", 50.11, 8.68, 2.7),
    _c("Berlin", "DE", 52.52, 13.40, 6.1),
    _c("Munich", "DE", 48.14, 11.58, 2.9),
    _c("Hamburg", "DE", 53.55, 9.99, 3.2),
    _c("Amsterdam", "NL", 52.37, 4.90, 2.5),
    _c("Brussels", "BE", 50.85, 4.35, 2.1),
    _c("Madrid", "ES", 40.42, -3.70, 6.7),
    _c("Barcelona", "ES", 41.39, 2.17, 5.6),
    _c("Lisbon", "PT", 38.72, -9.14, 2.9),
    _c("Milan", "IT", 45.46, 9.19, 4.3),
    _c("Rome", "IT", 41.90, 12.50, 4.3),
    _c("Zurich", "CH", 47.38, 8.54, 1.4),
    _c("Vienna", "AT", 48.21, 16.37, 2.9),
    _c("Warsaw", "PL", 52.23, 21.01, 3.1),
    _c("Prague", "CZ", 50.08, 14.44, 2.7),
    _c("Stockholm", "SE", 59.33, 18.07, 2.4),
    _c("Oslo", "NO", 59.91, 10.75, 1.6),
    _c("Copenhagen", "DK", 55.68, 12.57, 2.1),
    _c("Helsinki", "FI", 60.17, 24.94, 1.5),
    _c("Dublin", "IE", 53.35, -6.26, 2.0),
    _c("Athens", "GR", 37.98, 23.73, 3.6),
    _c("Bucharest", "RO", 44.43, 26.10, 2.3),
    _c("Budapest", "HU", 47.50, 19.04, 3.0),
    _c("Sofia", "BG", 42.70, 23.32, 1.7),
    _c("Kyiv", "UA", 50.45, 30.52, 3.5),
    _c("Moscow", "RU", 55.76, 37.62, 17.1),
    _c("St. Petersburg", "RU", 59.93, 30.34, 5.4),
    _c("Istanbul", "TR", 41.01, 28.98, 15.5),
    _c("Ankara", "TR", 39.93, 32.86, 5.7),
    _c("Belgrade", "RS", 44.79, 20.45, 1.7),
    _c("Zagreb", "HR", 45.81, 15.98, 1.1),
    _c("Bratislava", "SK", 48.15, 17.11, 0.7),
    _c("Vilnius", "LT", 54.69, 25.28, 0.7),
    _c("Riga", "LV", 56.95, 24.11, 0.9),
    _c("Tallinn", "EE", 59.44, 24.75, 0.6),
    # --- Middle East ---
    _c("Dubai", "AE", 25.20, 55.27, 3.5),
    _c("Riyadh", "SA", 24.71, 46.68, 7.7),
    _c("Jeddah", "SA", 21.49, 39.19, 4.7),
    _c("Tel Aviv", "IL", 32.08, 34.78, 4.2),
    _c("Tehran", "IR", 35.69, 51.39, 9.5),
    _c("Baghdad", "IQ", 33.31, 44.37, 7.5),
    _c("Amman", "JO", 31.95, 35.93, 2.2),
    _c("Kuwait City", "KW", 29.38, 47.99, 3.1),
    _c("Doha", "QA", 25.29, 51.53, 2.4),
    _c("Muscat", "OM", 23.59, 58.41, 1.6),
    _c("Beirut", "LB", 33.89, 35.50, 2.4),
    # --- Asia: India ---
    _c("Mumbai", "IN", 19.08, 72.88, 20.7),
    _c("Delhi", "IN", 28.61, 77.21, 31.2),
    _c("Bangalore", "IN", 12.97, 77.59, 12.8),
    _c("Chennai", "IN", 13.08, 80.27, 11.2),
    _c("Hyderabad", "IN", 17.38, 78.49, 10.3),
    _c("Kolkata", "IN", 22.57, 88.36, 14.9),
    _c("Pune", "IN", 18.52, 73.86, 6.8),
    _c("Ahmedabad", "IN", 23.02, 72.57, 8.1),
    # --- Asia: East / Southeast ---
    _c("Tokyo", "JP", 35.68, 139.69, 37.3),
    _c("Osaka", "JP", 34.69, 135.50, 19.0),
    _c("Seoul", "KR", 37.57, 126.98, 25.5),
    _c("Shanghai", "CN", 31.23, 121.47, 27.8),
    _c("Beijing", "CN", 39.90, 116.41, 20.9),
    _c("Shenzhen", "CN", 22.54, 114.06, 12.6),
    _c("Taipei", "TW", 25.03, 121.57, 7.0),
    _c("Hong Kong", "HK", 22.32, 114.17, 7.5),
    _c("Singapore", "SG", 1.35, 103.82, 5.9),
    _c("Kuala Lumpur", "MY", 3.14, 101.69, 8.0),
    _c("Bangkok", "TH", 13.76, 100.50, 10.7),
    _c("Ho Chi Minh City", "VN", 10.82, 106.63, 9.0),
    _c("Hanoi", "VN", 21.03, 105.85, 8.1),
    _c("Manila", "PH", 14.60, 120.98, 13.9),
    _c("Jakarta", "ID", -6.21, 106.85, 10.6),
    _c("Surabaya", "ID", -7.26, 112.75, 3.0),
    _c("Dhaka", "BD", 23.81, 90.41, 21.7),
    _c("Karachi", "PK", 24.86, 67.01, 16.1),
    _c("Lahore", "PK", 31.55, 74.34, 13.1),
    _c("Colombo", "LK", 6.93, 79.85, 2.3),
    _c("Kathmandu", "NP", 27.72, 85.32, 1.5),
    _c("Yangon", "MM", 16.87, 96.20, 5.3),
    _c("Phnom Penh", "KH", 11.56, 104.92, 2.3),
    _c("Almaty", "KZ", 43.24, 76.89, 2.0),
    # --- Oceania ---
    _c("Sydney", "AU", -33.87, 151.21, 5.3),
    _c("Melbourne", "AU", -37.81, 144.96, 5.1),
    _c("Brisbane", "AU", -27.47, 153.03, 2.6),
    _c("Perth", "AU", -31.95, 115.86, 2.1),
    _c("Auckland", "NZ", -36.85, 174.76, 1.7),
    _c("Suva", "FJ", -18.14, 178.44, 0.2),
    _c("Port Moresby", "PG", -9.44, 147.18, 0.4),
    # --- Africa ---
    _c("Johannesburg", "ZA", -26.20, 28.05, 6.0),
    _c("Cape Town", "ZA", -33.92, 18.42, 4.7),
    _c("Lagos", "NG", 6.52, 3.38, 15.4),
    _c("Abuja", "NG", 9.07, 7.40, 3.6),
    _c("Cairo", "EG", 30.04, 31.24, 21.3),
    _c("Alexandria", "EG", 31.20, 29.92, 5.4),
    _c("Nairobi", "KE", -1.29, 36.82, 5.0),
    _c("Casablanca", "MA", 33.57, -7.59, 3.8),
    _c("Accra", "GH", 5.60, -0.19, 2.6),
    _c("Dar es Salaam", "TZ", -6.79, 39.21, 7.0),
    _c("Addis Ababa", "ET", 9.02, 38.75, 5.2),
    _c("Algiers", "DZ", 36.75, 3.06, 2.8),
    _c("Tunis", "TN", 36.81, 10.18, 2.4),
    _c("Dakar", "SN", 14.72, -17.47, 3.3),
    _c("Luanda", "AO", -8.84, 13.23, 8.3),
    # --- expansion set: second-tier metros and additional countries ---
    _c("Philadelphia", "US", 39.95, -75.17, 6.2),
    _c("Detroit", "US", 42.33, -83.05, 4.3),
    _c("Tampa", "US", 27.95, -82.46, 3.2),
    _c("Charlotte", "US", 35.23, -80.84, 2.7),
    _c("Austin", "US", 30.27, -97.74, 2.3),
    _c("Nashville", "US", 36.16, -86.78, 2.0),
    _c("Ottawa", "CA", 45.42, -75.70, 1.4),
    _c("Edmonton", "CA", 53.55, -113.49, 1.4),
    _c("Tijuana", "MX", 32.51, -117.04, 2.2),
    _c("Puebla", "MX", 19.04, -98.20, 3.2),
    _c("Belo Horizonte", "BR", -19.92, -43.94, 6.0),
    _c("Recife", "BR", -8.05, -34.88, 4.1),
    _c("Salvador", "BR", -12.97, -38.50, 3.9),
    _c("Curitiba", "BR", -25.43, -49.27, 3.7),
    _c("Manaus", "BR", -3.10, -60.02, 2.2),
    _c("Rosario", "AR", -32.95, -60.64, 1.5),
    _c("Mendoza", "AR", -32.89, -68.84, 1.0),
    _c("Cali", "CO", 3.45, -76.53, 2.8),
    _c("Birmingham", "GB", 52.48, -1.90, 2.9),
    _c("Glasgow", "GB", 55.86, -4.25, 1.7),
    _c("Lyon", "FR", 45.76, 4.84, 1.7),
    _c("Toulouse", "FR", 43.60, 1.44, 1.0),
    _c("Cologne", "DE", 50.94, 6.96, 1.1),
    _c("Stuttgart", "DE", 48.78, 9.18, 2.8),
    _c("Valencia", "ES", 39.47, -0.38, 1.6),
    _c("Seville", "ES", 37.39, -5.99, 1.5),
    _c("Naples", "IT", 40.85, 14.27, 3.1),
    _c("Turin", "IT", 45.07, 7.69, 1.7),
    _c("Krakow", "PL", 50.06, 19.94, 0.8),
    _c("Novosibirsk", "RU", 55.03, 82.92, 1.6),
    _c("Yekaterinburg", "RU", 56.84, 60.65, 1.5),
    _c("Izmir", "TR", 38.42, 27.14, 3.0),
    _c("Guangzhou", "CN", 23.13, 113.26, 18.7),
    _c("Chengdu", "CN", 30.57, 104.07, 16.3),
    _c("Wuhan", "CN", 30.59, 114.31, 11.2),
    _c("Xi'an", "CN", 34.34, 108.94, 12.9),
    _c("Chongqing", "CN", 29.56, 106.55, 16.4),
    _c("Nagoya", "JP", 35.18, 136.91, 9.4),
    _c("Fukuoka", "JP", 33.59, 130.40, 2.6),
    _c("Sapporo", "JP", 43.06, 141.35, 2.6),
    _c("Busan", "KR", 35.18, 129.08, 3.4),
    _c("Surat", "IN", 21.17, 72.83, 6.9),
    _c("Jaipur", "IN", 26.91, 75.79, 3.9),
    _c("Lucknow", "IN", 26.85, 80.95, 3.5),
    _c("Da Nang", "VN", 16.05, 108.21, 1.2),
    _c("Chiang Mai", "TH", 18.79, 98.98, 1.2),
    _c("Bandung", "ID", -6.92, 107.61, 2.5),
    _c("Medan", "ID", 3.59, 98.67, 2.4),
    _c("Cebu", "PH", 10.32, 123.90, 3.0),
    _c("Islamabad", "PK", 33.68, 73.05, 1.2),
    _c("Tashkent", "UZ", 41.30, 69.24, 2.6),
    _c("Baku", "AZ", 40.41, 49.87, 2.3),
    _c("Adelaide", "AU", -34.93, 138.60, 1.4),
    _c("Wellington", "NZ", -41.29, 174.78, 0.4),
    _c("Christchurch", "NZ", -43.53, 172.64, 0.4),
    _c("Durban", "ZA", -29.86, 31.02, 3.9),
    _c("Pretoria", "ZA", -25.75, 28.19, 2.6),
    _c("Kano", "NG", 12.00, 8.52, 4.1),
    _c("Ibadan", "NG", 7.38, 3.95, 3.6),
    _c("Mombasa", "KE", -4.04, 39.67, 1.2),
    _c("Rabat", "MA", 34.02, -6.84, 1.9),
    _c("Abidjan", "CI", 5.36, -4.01, 5.6),
    _c("Douala", "CM", 4.05, 9.70, 3.9),
    _c("Kampala", "UG", 0.35, 32.58, 3.7),
)

_BY_NAME: Dict[str, City] = {c.name: c for c in WORLD_CITIES}
if len(_BY_NAME) != len(WORLD_CITIES):
    raise RuntimeError("duplicate city names in WORLD_CITIES")

_BY_COUNTRY: Dict[str, List[City]] = {}
for _city in WORLD_CITIES:
    _BY_COUNTRY.setdefault(_city.country, []).append(_city)


def city_named(name: str) -> City:
    """Look up a city by its exact name.

    Raises:
        AnalysisError: if the name is not in the dataset.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise AnalysisError(f"unknown city: {name!r}") from None


def cities_by_country(country: str) -> List[City]:
    """Return all cities in an ISO alpha-2 country, in dataset order.

    Returns an empty list for countries with no cities in the dataset
    rather than raising, so callers can iterate the full country list.
    """
    return list(_BY_COUNTRY.get(country.upper(), ()))


class CityDistanceCache:
    """Memoized great-circle distances between cities, ``km(a, b)``.

    The owner asks for the same pair many times (the generator re-ranks
    one small city universe thousands of times; forwarding traces cross
    the same interconnects for every client).  The cache calls the
    scalar :func:`great_circle_km` exactly once per unique unordered
    pair — no vectorized trig, whose last-ulp differences would flip
    distance-sorted tie-breaks.

    Keys are city names, which are unique in :data:`WORLD_CITIES` and
    whose string hashes Python caches, so a pickled or copied owner
    carries keys that stay valid.  Haversine is bitwise symmetric
    (``sin(-x)**2 == sin(x)**2`` and float multiplication commutes), so
    one canonical key per unordered pair halves the cache.
    """

    __slots__ = ("_km",)

    def __init__(self) -> None:
        self._km: Dict[Tuple[str, str], float] = {}

    def __call__(self, a: City, b: City) -> float:
        x = a.name
        y = b.name
        key = (x, y) if x <= y else (y, x)
        d = self._km.get(key)
        if d is None:
            d = self._km[key] = great_circle_km(a.location, b.location)
        return d
