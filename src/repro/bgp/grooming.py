"""Anycast grooming actions (Section 3.2.2 of the paper).

CDN operators "groom" anycast routing at human timescales by tweaking
announcements: prepending toward a neighbor that attracts traffic it
serves poorly, or withdrawing the announcement at a site entirely.  A
:class:`Grooming` object accumulates such actions and compiles them into
the ``origin_cities`` / ``prepends`` inputs of
:func:`repro.bgp.propagation.propagate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.errors import RoutingError, require_int
from repro.geo import City


@dataclass
class Grooming:
    """A set of grooming actions applied to one anycast prefix.

    Attributes:
        all_cities: The full set of cities the prefix is announced from
            when ungroomed (usually the provider's PoP cities).
    """

    all_cities: FrozenSet[City]
    _withdrawn: Set[City] = field(default_factory=set)
    _prepends: Dict[int, int] = field(default_factory=dict)
    _suppressed: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.all_cities:
            raise RoutingError("grooming needs at least one announcement city")

    # --- actions --------------------------------------------------------

    def prepend_to(self, neighbor_asn: int, count: int) -> "Grooming":
        """Prepend ``count`` extra hops on announcements to a neighbor.

        Setting ``count`` to 0 removes a previous prepend. Returns self
        for chaining.
        """
        count = require_int(count, "prepend count", RoutingError)
        if count < 0:
            raise RoutingError(f"prepend count must be >= 0, got {count}")
        if count == 0:
            self._prepends.pop(neighbor_asn, None)
        else:
            self._prepends[neighbor_asn] = count
        return self

    def suppress_neighbor(self, neighbor_asn: int) -> "Grooming":
        """Stop announcing to one neighbor (a no-announce community).

        This is how operators stop a peer from attracting traffic it
        serves poorly; prepending cannot do it, because local preference
        outranks path length.  Returns self.
        """
        self._suppressed.add(neighbor_asn)
        return self

    def unsuppress_neighbor(self, neighbor_asn: int) -> "Grooming":
        """Resume announcing to a previously suppressed neighbor."""
        self._suppressed.discard(neighbor_asn)
        return self

    def withdraw_city(self, city: City) -> "Grooming":
        """Stop announcing the prefix at ``city``. Returns self."""
        if city not in self.all_cities:
            raise RoutingError(f"{city.name} is not an announcement city")
        if len(self.announced_cities()) <= 1:
            raise RoutingError("cannot withdraw the last announcement city")
        self._withdrawn.add(city)
        return self

    def restore_city(self, city: City) -> "Grooming":
        """Re-announce the prefix at a previously withdrawn city."""
        self._withdrawn.discard(city)
        return self

    # --- compilation ------------------------------------------------------

    def announced_cities(self) -> FrozenSet[City]:
        """Cities the prefix is currently announced from."""
        return frozenset(self.all_cities - self._withdrawn)

    def compile(self) -> Tuple[Optional[FrozenSet[City]], Dict[int, int], FrozenSet[int]]:
        """Compile to ``(origin_cities, prepends, suppressed)``.

        ``origin_cities`` is ``None`` when nothing is withdrawn, keeping
        the ungroomed fast path.
        """
        origin_cities = None if not self._withdrawn else self.announced_cities()
        return origin_cities, dict(self._prepends), frozenset(self._suppressed)

    @property
    def actions(self) -> int:
        """Active grooming actions (withdrawals + prepends + suppressions)."""
        return len(self._withdrawn) + len(self._prepends) + len(self._suppressed)

    @classmethod
    def ungroomed(cls, cities: Iterable[City]) -> "Grooming":
        """An empty grooming state over the given announcement cities."""
        return cls(all_cities=frozenset(cities))
