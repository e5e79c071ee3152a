"""Tests for the MMPP workload generators."""

import pytest

from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError
from repro.traffic.columnar import (
    columnar_processing_workload,
    columnar_value_port_workload,
    columnar_value_uniform_workload,
)
from repro.traffic.workloads import processing_capacity, value_capacity

np = pytest.importorskip("numpy", exc_type=ImportError)


@pytest.fixture
def proc_config():
    return SwitchConfig.contiguous(4, 32)


@pytest.fixture
def value_config():
    return SwitchConfig.value_contiguous(4, 32)


class TestCapacities:
    def test_processing_capacity_is_c_times_z(self):
        config = SwitchConfig.contiguous(4, 16, speedup=2)
        assert processing_capacity(config) == pytest.approx(
            2 * (1 + 1 / 2 + 1 / 3 + 1 / 4)
        )

    def test_value_capacity_is_n_times_c(self):
        config = SwitchConfig.value_contiguous(4, 16, speedup=3)
        assert value_capacity(config) == 12.0


class TestProcessingWorkload:
    def test_packets_respect_port_work(self, proc_config):
        trace = columnar_processing_workload(
            proc_config, 300, load=2.0, seed=0
        )
        assert trace.total_packets > 0
        for port, work in zip(trace.ports, trace.works):
            assert work == proc_config.work_of(port)

    def test_mean_rate_tracks_load(self, proc_config):
        load = 2.0
        trace = columnar_processing_workload(
            proc_config, 20_000, load=load, seed=1,
            mean_on_slots=10, mean_off_slots=30,
        )
        expected = load * processing_capacity(proc_config)
        assert trace.total_packets / 20_000 == pytest.approx(
            expected, rel=0.15
        )

    def test_absolute_rate_overrides_load(self, proc_config):
        trace = columnar_processing_workload(
            proc_config, 20_000, load=99.0, absolute_rate=1.5, seed=1,
            mean_on_slots=10, mean_off_slots=30,
        )
        assert trace.total_packets / 20_000 == pytest.approx(1.5, rel=0.15)

    def test_deterministic_under_seed(self, proc_config):
        a = columnar_processing_workload(proc_config, 200, seed=5)
        b = columnar_processing_workload(proc_config, 200, seed=5)
        assert a == b

    def test_different_seeds_differ(self, proc_config):
        a = columnar_processing_workload(proc_config, 500, seed=1)
        b = columnar_processing_workload(proc_config, 500, seed=2)
        assert a.offsets != b.offsets

    def test_needs_positive_slots(self, proc_config):
        with pytest.raises(ConfigError):
            columnar_processing_workload(proc_config, 0)

    def test_validates_against_config(self, proc_config):
        trace = columnar_processing_workload(proc_config, 100, seed=3)
        trace.validate_for(proc_config)


class TestValueUniformWorkload:
    def test_values_in_range(self, value_config):
        trace = columnar_value_uniform_workload(
            value_config, 300, max_value=7, seed=0
        )
        assert set(trace.values) <= {float(v) for v in range(1, 8)}

    def test_unit_work(self, value_config):
        trace = columnar_value_uniform_workload(
            value_config, 200, max_value=4, seed=0
        )
        assert set(trace.works) == {1}

    def test_port_bound_sources_concentrate_bursts(self, value_config):
        # With port binding, per-slot bursts target few ports; without,
        # they spread over all ports. Compare distinct ports per burst.
        bound = columnar_value_uniform_workload(
            value_config, 2000, max_value=4, seed=0, n_sources=4,
            mean_on_slots=10, mean_off_slots=90, load=3.0,
        )
        spread = columnar_value_uniform_workload(
            value_config, 2000, max_value=4, seed=0, n_sources=4,
            mean_on_slots=10, mean_off_slots=90, load=3.0,
            port_bound_sources=False,
        )

        def mean_distinct_ports(trace):
            per_slot = [
                len(set(trace.ports[lo:hi]))
                for lo, hi in zip(trace.offsets, trace.offsets[1:])
                if hi > lo
            ]
            return sum(per_slot) / max(len(per_slot), 1)

        assert mean_distinct_ports(bound) < mean_distinct_ports(spread)

    def test_max_value_validated(self, value_config):
        with pytest.raises(ConfigError):
            columnar_value_uniform_workload(value_config, 10, max_value=0)

    def test_value_distribution_roughly_uniform(self, value_config):
        trace = columnar_value_uniform_workload(
            value_config, 5000, max_value=4, seed=2, load=3.0,
            mean_on_slots=10, mean_off_slots=30,
        )
        counts = np.zeros(4)
        for value in trace.values:
            counts[int(value) - 1] += 1
        assert counts.min() > 0.7 * counts.max()


class TestValuePortWorkload:
    def test_value_equals_port_value(self, value_config):
        trace = columnar_value_port_workload(value_config, 300, seed=0)
        assert trace.total_packets > 0
        for port, value in zip(trace.ports, trace.values):
            assert value == value_config.value_of(port)

    def test_port_weights_skew_assignment(self, value_config):
        trace = columnar_value_port_workload(
            value_config, 3000, seed=0, load=3.0,
            mean_on_slots=10, mean_off_slots=30,
            port_weights=np.array([0.0001, 0.0001, 0.0001, 1.0]),
        )
        counts = trace.per_port_counts(4)
        assert counts[3] > 0.9 * sum(counts)

    def test_bad_port_weights_rejected(self, value_config):
        with pytest.raises(ConfigError):
            columnar_value_port_workload(
                value_config, 10, port_weights=np.array([1.0, 2.0])
            )

    def test_absolute_rate(self, value_config):
        trace = columnar_value_port_workload(
            value_config, 20_000, absolute_rate=2.0, seed=1,
            mean_on_slots=10, mean_off_slots=30,
        )
        assert trace.total_packets / 20_000 == pytest.approx(2.0, rel=0.15)
