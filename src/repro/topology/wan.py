"""Private WAN of a content/cloud provider.

The WAN is an explicit backbone graph over the provider's PoPs, not a
geodesic shortcut: real WAN topologies follow submarine cables and leased
fiber, and Section 3.3.2 of the paper depends on exactly this (Google's
WAN carried India traffic east across the Pacific while the public
Internet went west via Europe).  Latency between PoPs is the shortest path
over the backbone edges, each edge costed at geodesic distance times a
small inflation factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.geo import City, GeoPoint, great_circle_km, propagation_one_way_ms


@dataclass(frozen=True)
class PointOfPresence:
    """A provider Point of Presence.

    Attributes:
        code: Short unique identifier (e.g. ``"lhr"``).
        city: The city hosting the PoP.
    """

    code: str
    city: City


class PrivateWan:
    """Backbone graph over a provider's PoPs with shortest-path latency.

    Args:
        pops: The provider's PoPs. Codes must be unique.
        backbone_edges: Pairs of PoP codes that are directly connected by
            backbone fiber. The graph must be connected.
        inflation: Multiplier on geodesic distance for backbone segments;
            well-engineered WANs run close to the geodesic (default 1.08).
    """

    def __init__(
        self,
        pops: Sequence[PointOfPresence],
        backbone_edges: Iterable[Tuple[str, str]],
        inflation: float = 1.08,
    ) -> None:
        if not (math.isfinite(inflation) and inflation >= 1.0):
            raise TopologyError(f"inflation must be finite and >= 1, got {inflation}")
        self._pops: Dict[str, PointOfPresence] = {}
        for pop in pops:
            if pop.code in self._pops:
                raise TopologyError(f"duplicate PoP code {pop.code!r}")
            self._pops[pop.code] = pop
        if not self._pops:
            raise TopologyError("a WAN needs at least one PoP")
        self.inflation = inflation
        self._codes: List[str] = list(self._pops)
        self._index = {code: i for i, code in enumerate(self._codes)}

        n = len(self._codes)
        dist = np.full((n, n), np.inf)
        nxt = np.full((n, n), -1, dtype=np.intp)
        np.fill_diagonal(dist, 0.0)
        np.fill_diagonal(nxt, np.arange(n))
        for x, y in backbone_edges:
            i, j = self._pop_index(x), self._pop_index(y)
            if i == j:
                raise TopologyError(f"backbone self-loop at {x!r}")
            km = great_circle_km(
                self._pops[x].city.location, self._pops[y].city.location
            )
            ms = propagation_one_way_ms(km, inflation)
            if ms < dist[i, j]:
                dist[i, j] = dist[j, i] = ms
                nxt[i, j] = j
                nxt[j, i] = i
        # Floyd-Warshall, one array step per intermediate PoP k.  Row and
        # column k do not change in step k (the diagonal stays 0), so the
        # step equals the scalar loop over every (i, j): the same IEEE
        # sums, and a strict < that keeps the earlier next hop on a tie.
        alt = np.empty_like(dist)
        shorter = np.empty((n, n), dtype=bool)
        for k in range(n):
            np.add(dist[:, k, None], dist[None, k, :], out=alt)
            np.less(alt, dist, out=shorter)
            np.copyto(dist, alt, where=shorter)
            np.copyto(nxt, nxt[:, k, None], where=shorter)
        unreachable = np.argwhere(np.isinf(dist))
        if len(unreachable):
            i, j = unreachable[0]
            raise TopologyError(
                "WAN backbone is disconnected: no path "
                f"{self._codes[i]!r} -> {self._codes[j]!r}"
            )
        # Plain floats and ints: every query reads single entries.
        self._dist: List[List[float]] = dist.tolist()
        self._next: List[List[int]] = nxt.tolist()
        self._nearest: Dict[GeoPoint, PointOfPresence] = {}

    def _pop_index(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise TopologyError(f"unknown PoP {code!r}") from None

    # --- queries ------------------------------------------------------

    @property
    def pops(self) -> List[PointOfPresence]:
        """All PoPs, in construction order."""
        return [self._pops[c] for c in self._codes]

    @property
    def pop_codes(self) -> List[str]:
        """All PoP codes, in construction order."""
        return list(self._codes)

    def pop(self, code: str) -> PointOfPresence:
        """Return the PoP with the given code."""
        self._pop_index(code)
        return self._pops[code]

    def pop_at_city(self, city: City) -> Optional[PointOfPresence]:
        """Return the PoP located in ``city``, or ``None``."""
        for pop in self._pops.values():
            if pop.city == city:
                return pop
        return None

    def nearest_pop(self, location: GeoPoint) -> PointOfPresence:
        """Return the PoP geographically nearest to ``location``.

        Ties break toward the earlier-constructed PoP, deterministically.
        The WAN never changes after construction, so each location's
        answer is kept and later calls for it skip the scan.
        """
        best = self._nearest.get(location)
        if best is not None:
            return best
        best_km = float("inf")
        for code in self._codes:
            pop = self._pops[code]
            km = great_circle_km(location, pop.city.location)
            if km < best_km:
                best_km = km
                best = pop
        assert best is not None  # at least one PoP is guaranteed
        self._nearest[location] = best
        return best

    def one_way_ms(self, a: str, b: str) -> float:
        """One-way backbone latency between two PoPs, in milliseconds."""
        return self._dist[self._pop_index(a)][self._pop_index(b)]

    def rtt_ms(self, a: str, b: str) -> float:
        """Round-trip backbone latency between two PoPs, in milliseconds."""
        return 2.0 * self.one_way_ms(a, b)

    def path(self, a: str, b: str) -> List[PointOfPresence]:
        """Shortest backbone path as a list of PoPs, endpoints included."""
        i, j = self._pop_index(a), self._pop_index(b)
        hops = [i]
        while hops[-1] != j:
            hops.append(self._next[hops[-1]][j])
        return [self._pops[self._codes[k]] for k in hops]
