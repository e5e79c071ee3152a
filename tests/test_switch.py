"""Tests for the shared-memory switch engine."""

import pytest

from repro.core.config import SwitchConfig
from repro.core.decisions import ACCEPT, DROP, push_out
from repro.core.errors import PolicyError, TraceError
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch

from conftest import AcceptAll, pkt


class FixedDecision:
    """Test policy returning a pre-seeded sequence of decisions."""

    name = "fixed"
    is_push_out = True

    def __init__(self, decisions):
        self.decisions = list(decisions)

    def admit(self, view, packet):
        return self.decisions.pop(0)


class TestArrivalPhase:
    def test_accept_enqueues_fresh_copy(self, proc_switch):
        template = pkt(port=2, work=3)
        template.residual = 1  # simulate a stale template
        proc_switch.offer(template, FixedDecision([ACCEPT]))
        admitted = proc_switch.queues[2].peek_head()
        assert admitted.residual == 3
        assert proc_switch.occupancy == 1

    def test_drop_records_metrics(self, proc_switch):
        proc_switch.offer(pkt(0, 1), FixedDecision([DROP]))
        assert proc_switch.occupancy == 0
        assert proc_switch.metrics.dropped == 1

    def test_push_out_swaps_victim(self, proc_switch):
        policy = AcceptAll()
        for _ in range(12):
            proc_switch.offer(pkt(0, 1), policy)
        assert proc_switch.occupancy == 12
        proc_switch.offer(pkt(1, 2), FixedDecision([push_out(0)]))
        assert proc_switch.occupancy == 12
        assert len(proc_switch.queues[0]) == 11
        assert len(proc_switch.queues[1]) == 1
        assert proc_switch.metrics.pushed_out == 1

    def test_push_out_from_empty_queue_rejected(self, proc_switch):
        with pytest.raises(PolicyError):
            proc_switch.offer(pkt(0, 1), FixedDecision([push_out(3)]))

    def test_push_out_bad_port_rejected(self, proc_switch):
        with pytest.raises(PolicyError):
            proc_switch.offer(pkt(0, 1), FixedDecision([push_out(99)]))

    def test_accept_into_full_buffer_rejected(self, proc_switch):
        policy = AcceptAll()
        for _ in range(12):
            proc_switch.offer(pkt(0, 1), policy)
        with pytest.raises(PolicyError):
            proc_switch.offer(pkt(0, 1), FixedDecision([ACCEPT]))

    def test_port_range_validated(self, proc_switch):
        with pytest.raises(TraceError):
            proc_switch.offer(pkt(7, 1), AcceptAll())

    def test_per_port_work_constraint_enforced(self, proc_switch):
        # Port 1 of the contiguous config requires work 2.
        with pytest.raises(TraceError):
            proc_switch.offer(pkt(1, 5), AcceptAll())

    def test_value_model_allows_any_value_per_port(self, value_switch):
        value_switch.offer(
            Packet(port=0, work=1, value=3.5), AcceptAll()
        )
        assert value_switch.occupancy == 1


class TestTransmissionPhase:
    def test_unit_work_transmits_next_slot(self, proc_switch):
        proc_switch.offer(pkt(0, 1), AcceptAll())
        done = proc_switch.transmission_phase()
        assert len(done) == 1
        assert proc_switch.occupancy == 0
        assert proc_switch.metrics.transmitted_packets == 1

    def test_multi_cycle_packet_needs_w_slots(self, proc_switch):
        proc_switch.offer(pkt(2, 3), AcceptAll())
        assert proc_switch.transmission_phase() == []
        assert proc_switch.transmission_phase() == []
        done = proc_switch.transmission_phase()
        assert len(done) == 1

    def test_all_nonempty_queues_served_in_parallel(self, proc_switch):
        policy = AcceptAll()
        proc_switch.offer(pkt(0, 1), policy)
        proc_switch.offer(pkt(1, 2), policy)
        done = proc_switch.transmission_phase()
        assert [p.port for p in done] == [0]
        done = proc_switch.transmission_phase()
        assert [p.port for p in done] == [1]

    def test_speedup_processes_multiple_heads(self):
        config = SwitchConfig.uniform(1, 8, work=2, speedup=3)
        switch = SharedMemorySwitch(config)
        policy = AcceptAll()
        for _ in range(4):
            switch.offer(pkt(0, 2), policy)
        assert switch.transmission_phase() == []
        done = switch.transmission_phase()
        assert len(done) == 3

    def test_value_switch_transmits_highest_value(self, value_switch):
        policy = AcceptAll()
        value_switch.offer(Packet(port=0, work=1, value=1.0), policy)
        value_switch.offer(Packet(port=0, work=1, value=9.0), policy)
        done = value_switch.transmission_phase()
        assert [p.value for p in done] == [9.0]


class TestRunSlotAndFlush:
    def test_run_slot_combines_phases(self, proc_switch):
        done = proc_switch.run_slot([pkt(0, 1), pkt(0, 1)], AcceptAll())
        assert len(done) == 1
        assert proc_switch.current_slot == 1
        assert proc_switch.metrics.slots_elapsed == 1

    def test_flush_clears_without_credit(self, proc_switch):
        policy = AcceptAll()
        for _ in range(5):
            proc_switch.offer(pkt(0, 1), policy)
        flushed = proc_switch.flush()
        assert flushed == 5
        assert proc_switch.occupancy == 0
        assert proc_switch.metrics.flushed == 5
        assert proc_switch.metrics.transmitted_packets == 0

    def test_occupancy_metrics_recorded(self, proc_switch):
        proc_switch.run_slot([pkt(0, 1), pkt(1, 2)], AcceptAll())
        assert proc_switch.metrics.occupancy_peak >= 1

    def test_fast_forward_requires_empty_buffer(self):
        switch = SharedMemorySwitch(SwitchConfig.contiguous(2, 4))
        switch.fast_forward(10)
        assert switch.current_slot == 10
        assert switch.metrics.slots_elapsed == 10
        assert switch.metrics.mean_occupancy == 0.0
        switch.offer(pkt(0, 1), AcceptAll())
        with pytest.raises(PolicyError, match="empty buffer"):
            switch.fast_forward(1)


class TestInvariants:
    def test_check_invariants_on_fresh_switch(self, proc_switch):
        proc_switch.check_invariants()

    def test_check_invariants_after_traffic(self, proc_switch):
        policy = AcceptAll()
        for slot in range(10):
            arrivals = [pkt(slot % 4, (slot % 4) + 1) for _ in range(3)]
            proc_switch.run_slot(arrivals, policy)
            proc_switch.check_invariants()

    def test_occupancy_never_exceeds_buffer(self, proc_switch):
        policy = AcceptAll()
        for _ in range(50):
            proc_switch.run_slot([pkt(0, 1)] * 30, policy)
            assert proc_switch.occupancy <= proc_switch.config.buffer_size
