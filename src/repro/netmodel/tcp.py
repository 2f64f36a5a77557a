"""TCP transfer-time model: slow start, bottleneck drain, split TCP.

Used by the Section 4 analyses: the goodput footnote ("10MB downloads
... saw little difference") and the split-TCP discussion ("splitting
TCP connections provides latency benefits over long distances; an
interesting area for study is how this benefit varies if the backend of
the split connection is over a private WAN versus the public
Internet").

The model is deliberately simple — slow start doubles the window every
RTT from an initial window until it hits the bottleneck's
bandwidth-delay product, then the transfer drains at the bottleneck
rate — but it captures the two facts the paper leans on: long transfers
are bottleneck-dominated (tiers don't matter), short transfers are
RTT-dominated (split TCP matters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import AnalysisError

#: Default initial congestion window (IW10, ~10 * 1460B segments).
DEFAULT_IW_KB = 14.6


@dataclass(frozen=True)
class TcpPath:
    """One TCP connection's path characteristics.

    Attributes:
        rtt_ms: Round-trip time of the connection.
        bottleneck_mbps: Bottleneck bandwidth along the path.
    """

    rtt_ms: float
    bottleneck_mbps: float

    def __post_init__(self) -> None:
        # An infinite RTT gives goodput 0, which a tier ratio divides
        # by, and a NaN one a NaN goodput.
        if not (math.isfinite(self.rtt_ms) and self.rtt_ms > 0):
            raise AnalysisError(f"rtt must be finite and positive, got {self.rtt_ms}")
        if not (math.isfinite(self.bottleneck_mbps) and self.bottleneck_mbps > 0):
            raise AnalysisError(
                f"bottleneck must be finite and positive, got {self.bottleneck_mbps}"
            )


def transfer_time_s(
    path: TcpPath,
    size_mb: float,
    iw_kb: float = DEFAULT_IW_KB,
    warm: bool = False,
) -> float:
    """Seconds to transfer ``size_mb`` over one TCP connection.

    Args:
        path: Connection characteristics.
        size_mb: Payload size in megabytes.
        iw_kb: Initial congestion window (ignored when ``warm``).
        warm: A warm (persistent, already-ramped) connection starts at
            the bottleneck rate with no handshake — how a split
            terminator's pooled backend connections behave.
    """
    # A size or window that is not finite and positive gives no
    # meaningful time: the slow-start loop never ends on a zero or
    # negative window.
    for name, value in (("size", size_mb), ("initial window", iw_kb)):
        if not (math.isfinite(value) and value > 0):
            raise AnalysisError(f"{name} must be finite and positive, got {value}")
    rtt_s = path.rtt_ms / 1e3
    rate_bps = path.bottleneck_mbps * 1e6
    remaining_bits = size_mb * 8e6
    if warm:
        return remaining_bits / rate_bps
    elapsed = rtt_s  # connection establishment
    window_bits = iw_kb * 8e3
    cap_bits = rate_bps * rtt_s  # bandwidth-delay product
    while remaining_bits > 0:
        if window_bits >= cap_bits:
            # At line rate: drain whatever is left.
            elapsed += remaining_bits / rate_bps
            break
        sent = min(window_bits, remaining_bits)
        remaining_bits -= sent
        if remaining_bits > 0:
            elapsed += rtt_s
            window_bits *= 2.0
        else:
            # Final (partial) window still takes one RTT to complete
            # delivery and acknowledgement of the tail.
            elapsed += rtt_s
    return elapsed


def goodput_mbps(
    path: TcpPath, size_mb: float, iw_kb: float = DEFAULT_IW_KB
) -> float:
    """Achieved goodput (Mbps) for a cold transfer of ``size_mb``."""
    return size_mb * 8.0 / transfer_time_s(path, size_mb, iw_kb=iw_kb)


def split_transfer_time_s(
    front: TcpPath,
    back: TcpPath,
    size_mb: float,
    iw_kb: float = DEFAULT_IW_KB,
    warm_backend: bool = True,
) -> float:
    """Seconds to transfer through a split-TCP terminator (e.g. a PoP).

    The client's connection terminates at the PoP (short RTT, so slow
    start ramps fast); the PoP fetches from the origin over its own
    connection.  With a warm backend (persistent connection pool — the
    production norm, and the reason providers deploy split TCP at all)
    the backend contributes its one-way streaming delay; with a cold
    backend it pays its own slow start.

    The two segments pipeline: total time is the slower segment's
    transfer plus the other's first-byte latency, approximated as the
    max of the two segment times plus half the backend RTT for the
    initial fetch.
    """
    front_time = transfer_time_s(front, size_mb, iw_kb=iw_kb)
    back_time = transfer_time_s(back, size_mb, iw_kb=iw_kb, warm=warm_backend)
    first_byte_penalty = back.rtt_ms / 1e3  # PoP -> origin request + first data
    return max(front_time, back_time) + first_byte_penalty


def split_benefit_ms(
    end_to_end: TcpPath,
    front: TcpPath,
    back: TcpPath,
    size_mb: float,
    iw_kb: float = DEFAULT_IW_KB,
) -> float:
    """Latency saved by splitting at the PoP, in milliseconds.

    Positive values mean the split transfer finishes sooner than the
    single end-to-end connection.
    """
    direct = transfer_time_s(end_to_end, size_mb, iw_kb=iw_kb)
    split = split_transfer_time_s(front, back, size_mb, iw_kb=iw_kb)
    return (direct - split) * 1e3
