"""Premium vs Standard tier routing over a generated Internet.

The two tiers differ only in where traffic enters/leaves the provider:

* **Premium** — the prefix is announced at every PoP; traffic enters the
  WAN near the client and the WAN carries it to the data center (cold
  potato).
* **Standard** — the prefix is announced only at the data-center PoP;
  the public Internet carries traffic all the way there (hot potato from
  the provider's perspective).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.geo import City
from repro.topology import Internet, PointOfPresence
from repro.bgp import PropagationRequest, propagate_many
from repro.bgp.propagation import RoutingTable
from repro.netmodel import ForwardingPath, trace


class Tier(str, enum.Enum):
    """The two networking tiers of the cloud provider."""

    PREMIUM = "premium"
    STANDARD = "standard"


@dataclass
class CloudDeployment:
    """Routing state for both tiers toward one data center.

    Args:
        internet: Topology; the provider AS plays the cloud.
    """

    internet: Internet
    premium_table: RoutingTable = field(init=False, repr=False)
    standard_table: RoutingTable = field(init=False, repr=False)

    def __init__(self, internet: Internet) -> None:
        self.internet = internet
        # Both tiers' tables come from one propagate_many batch over the
        # shared CSR adjacency.
        self.premium_table, self.standard_table = propagate_many(
            internet.graph,
            [
                PropagationRequest(origin=internet.provider_asn),
                PropagationRequest(
                    origin=internet.provider_asn,
                    origin_cities=frozenset({internet.dc_pop.city}),
                ),
            ],
        )

    @property
    def dc_pop(self) -> PointOfPresence:
        """The PoP hosting the VMs."""
        return self.internet.dc_pop

    def table(self, tier: Tier) -> RoutingTable:
        """Routing state for a tier's prefix."""
        return self.premium_table if tier is Tier.PREMIUM else self.standard_table

    def path(self, tier: Tier, src_asn: int, src_city: City) -> ForwardingPath:
        """Forwarding path from a vantage point to a tier's VM.

        Premium paths ride the provider WAN from the ingress PoP to the
        data center; Standard paths can only enter at the data center, so
        the public Internet carries them the whole way.

        Raises:
            RoutingError: if the vantage point has no route to the tier.
        """
        return trace(
            self.internet.graph,
            self.table(tier),
            src_asn,
            src_city,
            dest_city=self.dc_pop.city,
            wan=self.internet.wan,
        )

    def enters_directly(self, tier: Tier, src_asn: int) -> Optional[bool]:
        """Whether the AS-level route enters the provider from ``src_asn``.

        Returns ``None`` when the vantage point has no route at all.
        The paper's Figure 5 filter keeps vantage points that enter
        directly on Premium but have at least one intermediate AS on
        Standard.
        """
        route = self.table(tier).best(src_asn)
        if route is None:
            return None
        return route.as_hops == 1 and route.origin == self.internet.provider_asn
