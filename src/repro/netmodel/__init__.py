"""Network latency model.

Turns AS-level routing state into milliseconds:

* :mod:`repro.netmodel.paths` traces a packet geographically through the
  AS path (hot- or cold-potato exits per AS) and sums propagation delay;
* :mod:`repro.netmodel.congestion` adds time-varying queueing delay from
  diurnal load and transient events, keyed so that last-mile and
  destination-network congestion is shared by every route to a prefix
  while interdomain-link congestion is route-specific;
* :mod:`repro.netmodel.rtt` models sampled TCP MinRTT measurements and
  their medians/confidence intervals.
"""

from repro.netmodel.paths import (
    AS_HOP_PENALTY_MS,
    ForwardingPath,
    Segment,
    trace,
)
from repro.netmodel.congestion import CongestionConfig, CongestionModel
from repro.netmodel.queueing import queueing_delay_ms
from repro.netmodel.tcp import (
    TcpPath,
    goodput_mbps,
    split_benefit_ms,
    split_transfer_time_s,
    transfer_time_s,
)
from repro.netmodel.rtt import (
    median_min_rtt,
    median_min_rtt_ci_halfwidth,
    sample_min_rtts,
    sampled_median_matrix,
)

__all__ = [
    "AS_HOP_PENALTY_MS",
    "ForwardingPath",
    "Segment",
    "trace",
    "CongestionConfig",
    "CongestionModel",
    "queueing_delay_ms",
    "TcpPath",
    "goodput_mbps",
    "split_benefit_ms",
    "split_transfer_time_s",
    "transfer_time_s",
    "median_min_rtt",
    "median_min_rtt_ci_halfwidth",
    "sample_min_rtts",
    "sampled_median_matrix",
]
