"""Tests for the TCP transfer-time model."""

import math

import pytest

from repro.errors import AnalysisError
from repro.netmodel import (
    TcpPath,
    goodput_mbps,
    split_benefit_ms,
    split_transfer_time_s,
    transfer_time_s,
)


class TestTcpPath:
    def test_validation(self):
        with pytest.raises(AnalysisError):
            TcpPath(rtt_ms=0.0, bottleneck_mbps=10.0)
        with pytest.raises(AnalysisError):
            TcpPath(rtt_ms=10.0, bottleneck_mbps=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_rejected(self, value):
        """An infinite RTT gave goodput 0.0 and a NaN one NaN."""
        with pytest.raises(AnalysisError, match="rtt must be finite"):
            TcpPath(rtt_ms=value, bottleneck_mbps=10.0)
        with pytest.raises(AnalysisError, match="bottleneck must be finite"):
            TcpPath(rtt_ms=10.0, bottleneck_mbps=value)


#: Sizes and windows that are not finite and positive.
BAD_AMOUNTS = [math.nan, math.inf, -math.inf, 0.0, -1.0]


class TestTransferTime:
    def test_size_validation(self):
        with pytest.raises(AnalysisError):
            transfer_time_s(TcpPath(50.0, 10.0), 0.0)

    @pytest.mark.parametrize("value", BAD_AMOUNTS)
    def test_bad_size_or_window_refused(self, value):
        """A NaN size returned the handshake alone (0.05 s on this path)
        and an infinite one inf; a zero or negative window never left
        the slow-start loop, and a NaN one returned 0.1 s."""
        path = TcpPath(rtt_ms=50.0, bottleneck_mbps=50.0)
        with pytest.raises(AnalysisError, match="size must be finite"):
            transfer_time_s(path, value)
        with pytest.raises(AnalysisError, match="initial window must be finite"):
            transfer_time_s(path, 10.0, iw_kb=value)

    def test_warm_is_pure_drain(self):
        path = TcpPath(rtt_ms=100.0, bottleneck_mbps=8.0)
        # 1 MB at 8 Mbps = 1 second, no handshake or slow start.
        assert transfer_time_s(path, 1.0, warm=True) == pytest.approx(1.0)

    def test_cold_slower_than_warm(self):
        path = TcpPath(rtt_ms=100.0, bottleneck_mbps=50.0)
        assert transfer_time_s(path, 1.0) > transfer_time_s(path, 1.0, warm=True)

    def test_monotone_in_size(self):
        path = TcpPath(rtt_ms=80.0, bottleneck_mbps=20.0)
        times = [transfer_time_s(path, s) for s in (0.1, 0.5, 2.0, 10.0)]
        assert times == sorted(times)

    def test_monotone_in_rtt(self):
        fast = transfer_time_s(TcpPath(20.0, 20.0), 1.0)
        slow = transfer_time_s(TcpPath(200.0, 20.0), 1.0)
        assert slow > fast

    def test_slow_start_round_count(self):
        """A transfer needing n doublings takes ~n+1 RTTs before line rate."""
        # 14.6 KB IW; 100 KB payload: windows 14.6, 29.2, 58.4 -> 3 rounds.
        # Huge bottleneck so the cap never binds.
        path = TcpPath(rtt_ms=100.0, bottleneck_mbps=10_000.0)
        t = transfer_time_s(path, 0.1)
        # handshake + 3 send rounds = 4 RTTs
        assert t == pytest.approx(0.4, abs=0.05)

    def test_large_transfer_bottleneck_dominated(self):
        path = TcpPath(rtt_ms=100.0, bottleneck_mbps=50.0)
        t = transfer_time_s(path, 100.0)
        drain = 100.0 * 8.0 / 50.0
        assert t == pytest.approx(drain, rel=0.1)


class TestGoodput:
    def test_goodput_below_bottleneck(self):
        path = TcpPath(rtt_ms=100.0, bottleneck_mbps=50.0)
        assert goodput_mbps(path, 10.0) < 50.0

    def test_goodput_rises_with_size(self):
        path = TcpPath(rtt_ms=100.0, bottleneck_mbps=50.0)
        assert goodput_mbps(path, 10.0) > goodput_mbps(path, 0.1)

    def test_rtt_matters_less_for_large_transfers(self):
        fast = TcpPath(rtt_ms=20.0, bottleneck_mbps=50.0)
        slow = TcpPath(rtt_ms=200.0, bottleneck_mbps=50.0)
        small_ratio = goodput_mbps(fast, 0.1) / goodput_mbps(slow, 0.1)
        large_ratio = goodput_mbps(fast, 50.0) / goodput_mbps(slow, 50.0)
        assert small_ratio > large_ratio
        assert large_ratio == pytest.approx(1.0, abs=0.2)


class TestSplit:
    def test_split_helps_long_rtt_small_objects(self):
        """The §4 premise: split TCP wins over long distances because the
        slow-start ramp happens on the short front segment."""
        end_to_end = TcpPath(rtt_ms=200.0, bottleneck_mbps=50.0)
        front = TcpPath(rtt_ms=20.0, bottleneck_mbps=50.0)
        back = TcpPath(rtt_ms=180.0, bottleneck_mbps=1000.0)
        assert split_benefit_ms(end_to_end, front, back, 0.25) > 100.0

    def test_split_useless_for_short_rtt(self):
        end_to_end = TcpPath(rtt_ms=10.0, bottleneck_mbps=50.0)
        front = TcpPath(rtt_ms=5.0, bottleneck_mbps=50.0)
        back = TcpPath(rtt_ms=5.0, bottleneck_mbps=1000.0)
        assert abs(split_benefit_ms(end_to_end, front, back, 0.25)) < 50.0

    def test_warm_backend_beats_cold(self):
        front = TcpPath(rtt_ms=20.0, bottleneck_mbps=50.0)
        back = TcpPath(rtt_ms=180.0, bottleneck_mbps=1000.0)
        warm = split_transfer_time_s(front, back, 1.0, warm_backend=True)
        cold = split_transfer_time_s(front, back, 1.0, warm_backend=False)
        assert warm < cold
