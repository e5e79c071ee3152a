"""Tests for the alternative traffic patterns and trace utilities."""

import pytest

from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError, TraceError
from repro.core.packet import Packet
from repro.traffic.columnar import columnar_poisson_workload
from repro.traffic.patterns import (
    heavy_tailed_workload,
    mixed_trace,
    periodic_burst_workload,
    thin_trace,
)
from repro.traffic.trace import Trace
from repro.traffic.workloads import processing_capacity

np = pytest.importorskip("numpy", exc_type=ImportError)


@pytest.fixture
def config():
    return SwitchConfig.contiguous(4, 32)


class TestPoisson:
    def test_respects_port_work(self, config):
        trace = columnar_poisson_workload(config, 200, load=2.0, seed=0)
        trace.validate_for(config)

    def test_mean_rate(self, config):
        trace = columnar_poisson_workload(config, 10_000, load=2.0, seed=1)
        expected = 2.0 * processing_capacity(config)
        assert trace.total_packets / 10_000 == pytest.approx(
            expected, rel=0.1
        )

    def test_smooth_no_giant_bursts(self, config):
        trace = columnar_poisson_workload(config, 2000, load=2.0, seed=2)
        offsets = trace.offsets
        biggest = max(hi - lo for lo, hi in zip(offsets, offsets[1:]))
        mean = trace.total_packets / trace.n_slots
        assert biggest < mean * 6

    def test_deterministic(self, config):
        a = columnar_poisson_workload(config, 100, seed=9)
        b = columnar_poisson_workload(config, 100, seed=9)
        assert a == b

    def test_validation(self, config):
        with pytest.raises(ConfigError):
            columnar_poisson_workload(config, 0)


class TestPeriodicBursts:
    def test_burst_cadence(self, config):
        trace = periodic_burst_workload(
            config, 200, period=50, burst_per_port=5, phase_offset=False,
        )
        # All ports fire together at slots 0, 50, 100, 150.
        firing = [i for i, burst in enumerate(trace) if burst]
        assert firing == [0, 50, 100, 150]
        assert len(trace.slots[0]) == 20  # 4 ports x 5 packets

    def test_phase_offsets_stagger_ports(self, config):
        trace = periodic_burst_workload(
            config, 100, period=25, burst_per_port=3, phase_offset=True,
            seed=4,
        )
        ports_per_slot = [
            {p.port for p in burst} for burst in trace if burst
        ]
        # With staggered phases most firing slots involve a single port.
        single = sum(1 for ports in ports_per_slot if len(ports) == 1)
        assert single >= len(ports_per_slot) // 2

    def test_validation(self, config):
        with pytest.raises(ConfigError):
            periodic_burst_workload(config, 10, period=0)


class TestHeavyTailed:
    def test_respects_port_work(self, config):
        trace = heavy_tailed_workload(config, 500, load=2.0, seed=0)
        trace.validate_for(config)

    def test_mean_rate_roughly_calibrated(self, config):
        trace = heavy_tailed_workload(
            config, 30_000, load=2.0, tail_index=2.0, seed=3
        )
        expected = 2.0 * processing_capacity(config)
        assert trace.total_packets / 30_000 == pytest.approx(
            expected, rel=0.35
        )

    def test_has_heavy_bursts(self, config):
        trace = heavy_tailed_workload(config, 5000, load=2.0, seed=5)
        sizes = [len(burst) for burst in trace if burst]
        assert max(sizes) > 5 * (sum(sizes) / len(sizes))

    def test_tail_index_validated(self, config):
        with pytest.raises(ConfigError):
            heavy_tailed_workload(config, 10, tail_index=1.0)
        with pytest.raises(ConfigError):
            heavy_tailed_workload(config, 10, mean_gap_slots=0.5)


class TestTraceUtilities:
    def test_mixed_trace_superimposes(self):
        a = Trace([[Packet(port=0, work=1)], []])
        b = Trace([[Packet(port=1, work=1)], [Packet(port=1, work=1)], []])
        mixed = mixed_trace([a, b])
        assert mixed.n_slots == 3
        assert len(mixed.slots[0]) == 2
        assert len(mixed.slots[1]) == 1

    def test_mixed_empty_rejected(self):
        with pytest.raises(TraceError):
            mixed_trace([])

    def test_thin_trace_probability_extremes(self):
        trace = Trace([[Packet(port=0, work=1)] * 10] * 5)
        assert thin_trace(trace, 1.0).total_packets == 50
        assert thin_trace(trace, 0.0).total_packets == 0

    def test_thin_trace_roughly_halves(self):
        trace = Trace([[Packet(port=0, work=1)] * 100] * 20)
        thinned = thin_trace(trace, 0.5, seed=1)
        assert thinned.total_packets == pytest.approx(1000, rel=0.15)
        assert thinned.n_slots == 20

    def test_thin_trace_validation(self):
        with pytest.raises(TraceError):
            thin_trace(Trace(), 1.5)
