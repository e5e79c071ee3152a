"""Trace-driver fast-forwarding and the opt-in invariant-check hook."""

import pytest

from repro.analysis.competitive import (
    PolicySystem,
    invariant_check_interval,
    run_system,
)
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.core.packet import Packet
from repro.opt.surrogate import SrptSurrogate
from repro.policies import make_policy
from repro.traffic.trace import Trace


def _gapped_trace(n_ports, idle_slots):
    """A burst, a long idle stretch, then another burst."""
    trace = Trace()
    trace.append_slot([Packet(port=p, work=p + 1) for p in range(n_ports)])
    for _ in range(idle_slots):
        trace.append_slot([])
    trace.append_slot([Packet(port=0, work=1)])
    return trace


class TestFastForward:
    def test_metrics_identical_to_slot_by_slot(self):
        config = SwitchConfig.contiguous(3, 12)
        trace = _gapped_trace(3, idle_slots=40)

        fast = PolicySystem(config, make_policy("LWD"))
        run_system(fast, trace)

        manual = PolicySystem(config, make_policy("LWD"))
        for burst in trace:
            manual.run_slot(burst)

        assert fast.metrics.as_dict() == manual.metrics.as_dict()
        assert fast.switch.current_slot == manual.switch.current_slot

    def test_does_not_skip_slots_with_backlog(self):
        # One work-5 packet: the buffer stays busy through empty-arrival
        # slots, so no slot may be skipped while it drains.
        config = SwitchConfig.uniform(1, 4, work=5)
        trace = Trace()
        trace.append_slot([Packet(port=0, work=5)])
        for _ in range(10):
            trace.append_slot([])
        system = PolicySystem(config, make_policy("LWD"))
        metrics = run_system(system, trace)
        assert metrics.transmitted_packets == 1
        assert metrics.slots_elapsed == 11
        # The packet occupied the buffer for 5 slots.
        assert metrics.occupancy_integral == 4

    def test_surrogate_fast_forwards_too(self):
        config = SwitchConfig.contiguous(2, 8)
        trace = _gapped_trace(2, idle_slots=25)
        surrogate = SrptSurrogate(config)
        metrics = run_system(surrogate, trace)
        assert metrics.slots_elapsed == trace.n_slots
        assert metrics.transmitted_packets == 3

    def test_flushouts_inside_idle_stretch_are_noops(self):
        config = SwitchConfig.contiguous(2, 8)
        trace = _gapped_trace(2, idle_slots=20)
        fast = PolicySystem(config, make_policy("LQD"))
        run_system(fast, trace, flush_every=7)
        manual = PolicySystem(config, make_policy("LQD"))
        for slot, burst in enumerate(trace):
            manual.run_slot(burst)
            if (slot + 1) % 7 == 0:
                manual.flush()
        assert fast.metrics.as_dict() == manual.metrics.as_dict()


class TestInvariantHook:
    def test_interval_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert invariant_check_interval() == 0
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "")
        assert invariant_check_interval() == 0
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert invariant_check_interval() == 0
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert invariant_check_interval() == 256
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "64")
        assert invariant_check_interval() == 64
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "often")
        with pytest.raises(ConfigError, match="REPRO_CHECK_INVARIANTS"):
            invariant_check_interval()

    def test_checks_run_every_k_slots(self, monkeypatch):
        calls = []

        class CountingSystem(PolicySystem):
            def check_invariants(self):
                calls.append(self.switch.current_slot)
                super().check_invariants()

        config = SwitchConfig.contiguous(2, 6)
        trace = Trace()
        for slot in range(10):
            trace.append_slot([Packet(port=slot % 2, work=slot % 2 + 1)])

        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "3")
        system = CountingSystem(config, make_policy("LWD"))
        run_system(system, trace)
        assert len(calls) == 3  # after slots 3, 6, 9

        monkeypatch.delenv("REPRO_CHECK_INVARIANTS")
        calls.clear()
        system = CountingSystem(config, make_policy("LWD"))
        run_system(system, trace)
        assert calls == []

    def test_detects_corrupted_accounting(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "2")
        config = SwitchConfig.contiguous(2, 6)
        trace = Trace()
        for _ in range(4):
            trace.append_slot([Packet(port=0, work=1)])
        system = PolicySystem(config, make_policy("LWD"), engine="reference")
        # Sabotage the tracked work of a queue: the periodic self-check
        # must surface it instead of letting the run finish quietly.
        system.switch.queues[1].admit(Packet(port=1, work=2).fresh_copy())
        with pytest.raises(AssertionError):
            run_system(system, trace)
