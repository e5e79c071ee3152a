"""Tests for the per-slot MMPP generators and the lock-step streaming
runner."""

import pytest

from repro.analysis.competitive import measure_competitive_ratio
from repro.analysis.streaming import stream_competitive
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError
from repro.policies import make_policy
from repro.traffic.columnar import (
    columnar_processing_workload,
    columnar_value_port_workload,
    columnar_value_uniform_workload,
    processing_slots,
    value_port_slots,
    value_uniform_slots,
)

pytest.importorskip("numpy", exc_type=ImportError)


@pytest.fixture
def proc_config():
    return SwitchConfig.contiguous(5, 40)


@pytest.fixture
def value_config():
    return SwitchConfig.value_contiguous(5, 40)


def _collected(slot_stream):
    """The per-slot stream as (port, work, value) rows per slot."""
    return [
        list(zip(ports.tolist(), works.tolist(), values.tolist()))
        for ports, works, values in slot_stream
    ]


def _rows(trace):
    return [
        list(zip(trace.ports[lo:hi], trace.works[lo:hi], trace.values[lo:hi]))
        for lo, hi in zip(trace.offsets, trace.offsets[1:])
    ]


class TestStreamEquivalence:
    """A recipe's per-slot stream must carry exactly the arrivals of its
    collected trace (same seed, same parameters): the streaming runner
    and the materialized runner see one packet sequence."""

    def test_processing_identical(self, proc_config):
        kwargs = dict(load=3.0, seed=4, n_sources=50)
        stream = _collected(processing_slots(proc_config, 300, **kwargs))
        trace = columnar_processing_workload(proc_config, 300, **kwargs)
        assert len(stream) == trace.n_slots
        assert stream == _rows(trace)

    def test_value_port_identical(self, value_config):
        kwargs = dict(load=3.0, seed=9, n_sources=50)
        stream = _collected(value_port_slots(value_config, 300, **kwargs))
        trace = columnar_value_port_workload(value_config, 300, **kwargs)
        assert stream == _rows(trace)

    @pytest.mark.parametrize("port_bound_sources", [True, False])
    def test_value_uniform_identical(self, port_bound_sources):
        config = SwitchConfig.uniform(
            4, 30, work=1, discipline=QueueDiscipline.PRIORITY
        )
        kwargs = dict(
            load=3.0, seed=6, n_sources=30,
            port_bound_sources=port_bound_sources,
        )
        stream = _collected(value_uniform_slots(config, 200, 5, **kwargs))
        trace = columnar_value_uniform_workload(config, 200, 5, **kwargs)
        assert stream == _rows(trace)

    def test_slot_count_validated(self, proc_config):
        with pytest.raises(ConfigError):
            list(processing_slots(proc_config, 0))


class TestStreamRunner:
    def test_matches_materialized_measurement(self, proc_config):
        """The single-pass lock-step run must produce exactly the same
        objectives as the replay-twice runner on the same workload."""
        kwargs = dict(load=3.0, seed=2, n_sources=50)
        trace = columnar_processing_workload(proc_config, 400, **kwargs)
        direct = measure_competitive_ratio(
            make_policy("LWD"), trace, proc_config,
            by_value=False, flush_every=100,
        )
        streamed = stream_competitive(
            make_policy("LWD"),
            proc_config,
            processing_slots(proc_config, 400, **kwargs),
            flush_every=100,
        )
        assert streamed.alg_objective == direct.alg_objective
        assert streamed.opt_objective == direct.opt_objective
        assert streamed.ratio == pytest.approx(direct.ratio)

    def test_checkpoints(self, proc_config):
        streamed = stream_competitive(
            make_policy("LWD"),
            proc_config,
            processing_slots(
                proc_config, 300, load=3.0, seed=1, n_sources=50
            ),
            checkpoint_every=100,
        )
        assert [c.slots for c in streamed.checkpoints] == [100, 200, 300]
        # Cumulative objectives are monotone along the run.
        algs = [c.alg_objective for c in streamed.checkpoints]
        assert algs == sorted(algs)

    def test_value_model_defaults(self, value_config):
        streamed = stream_competitive(
            make_policy("MRD"),
            value_config,
            value_port_slots(
                value_config, 200, load=3.0, seed=3, n_sources=50
            ),
        )
        assert streamed.by_value
        assert streamed.ratio >= 1.0 or streamed.ratio == pytest.approx(
            1.0, abs=0.05
        )

    def test_validation(self, proc_config):
        with pytest.raises(ConfigError):
            stream_competitive(
                make_policy("LWD"), proc_config, iter([]), flush_every=0
            )
        with pytest.raises(ConfigError):
            stream_competitive(
                make_policy("LWD"), proc_config, iter([]),
                checkpoint_every=0,
            )

    def test_summary(self, proc_config):
        streamed = stream_competitive(
            make_policy("LWD"),
            proc_config,
            processing_slots(
                proc_config, 50, load=3.0, seed=0, n_sources=20
            ),
        )
        assert "LWD" in streamed.summary()
