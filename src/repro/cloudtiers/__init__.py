"""Setting C: private WAN (Premium Tier) vs public Internet (Standard).

Reproduces the Google cloud networking-tiers study of Sections 2.3.3 and
3.3: two VMs in the US-Central data center, one reachable over the
Premium Tier (announced at every PoP; the private WAN carries traffic
between the ingress PoP and the data center) and one over the Standard
Tier (announced only near the data center; the public Internet carries
traffic the rest of the way).  A Speedchecker-like measurement platform
pings and traceroutes both VMs from vantage points rotated daily across
⟨City, AS⟩ locations for months; Figure 5 is the per-country median
latency difference.
"""

from repro.cloudtiers.tiers import CloudDeployment, Tier
from repro.cloudtiers.speedchecker import (
    SpeedcheckerPlatform,
    VantagePoint,
    TracerouteResult,
)
from repro.cloudtiers.campaign import CampaignConfig, TierDataset, run_campaign
from repro.cloudtiers.split_tcp import (
    SplitTcpPoint,
    SplitTcpResult,
    split_tcp_study,
)
from repro.cloudtiers.analysis import (
    Fig5Result,
    IngressResult,
    IndiaCaseStudy,
    GoodputResult,
    country_medians,
    ingress_distance_cdf,
    india_case_study,
    goodput_comparison,
)

__all__ = [
    "CloudDeployment",
    "Tier",
    "SpeedcheckerPlatform",
    "VantagePoint",
    "TracerouteResult",
    "CampaignConfig",
    "TierDataset",
    "run_campaign",
    "SplitTcpPoint",
    "SplitTcpResult",
    "split_tcp_study",
    "Fig5Result",
    "IngressResult",
    "IndiaCaseStudy",
    "GoodputResult",
    "country_medians",
    "ingress_distance_cdf",
    "india_case_study",
    "goodput_comparison",
]
