"""Property-based tests (hypothesis) on the core engine invariants.

These cover the invariants the paper's model takes for granted and the
proofs rely on:

* buffer occupancy never exceeds ``B`` and internal accounting stays
  consistent under arbitrary admissible traffic and any registered policy;
* FIFO queues never reorder packets, value queues stay sorted;
* push-out policies are greedy (they never drop while the buffer has
  space); non-push-out policies never evict;
* conservation: every arrived packet is exactly one of
  transmitted / dropped / pushed-out / flushed / still buffered;
* replaying the same trace twice gives identical outcomes (determinism).
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.competitive import PolicySystem
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.packet import Packet
from repro.policies import available_policies, make_policy

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

works_strategy = st.lists(
    st.integers(min_value=1, max_value=5), min_size=1, max_size=4
)


@st.composite
def processing_scenario(draw):
    """A processing-model config plus an admissible multi-slot trace."""
    works = tuple(draw(works_strategy))
    n_ports = len(works)
    buffer_size = draw(st.integers(min_value=n_ports, max_value=12))
    speedup = draw(st.integers(min_value=1, max_value=3))
    config = SwitchConfig.from_works(works, buffer_size, speedup=speedup)
    n_slots = draw(st.integers(min_value=1, max_value=8))
    slots = []
    for slot in range(n_slots):
        ports = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_ports - 1),
                min_size=0,
                max_size=8,
            )
        )
        slots.append(
            [
                Packet(port=p, work=works[p], arrival_slot=slot)
                for p in ports
            ]
        )
    return config, slots


@st.composite
def value_scenario(draw):
    """A value-model config plus an admissible multi-slot trace."""
    n_ports = draw(st.integers(min_value=1, max_value=4))
    buffer_size = draw(st.integers(min_value=n_ports, max_value=12))
    speedup = draw(st.integers(min_value=1, max_value=3))
    config = SwitchConfig.uniform(
        n_ports, buffer_size, work=1, speedup=speedup,
        discipline=QueueDiscipline.PRIORITY,
    )
    n_slots = draw(st.integers(min_value=1, max_value=8))
    slots = []
    for slot in range(n_slots):
        packets = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_ports - 1),
                    st.integers(min_value=1, max_value=9),
                ),
                min_size=0,
                max_size=8,
            )
        )
        slots.append(
            [
                Packet(port=p, work=1, value=float(v), arrival_slot=slot)
                for p, v in packets
            ]
        )
    return config, slots


PROCESSING_POLICY_NAMES = [
    e.name for e in available_policies("processing")
]
VALUE_POLICY_NAMES = [e.name for e in available_policies("value")]


def run_and_check(config, slots, policy_name):
    """Drive the scenario, asserting engine invariants each slot."""
    system = PolicySystem(
        config, make_policy(policy_name), engine="reference"
    )
    for burst in slots:
        system.run_slot(burst)
        system.switch.check_invariants()
        assert system.backlog <= config.buffer_size
    return system


# ---------------------------------------------------------------------------
# Processing model properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(scenario=processing_scenario(), policy_index=st.integers(0, 10_000))
def test_processing_engine_invariants(scenario, policy_index):
    config, slots = scenario
    name = PROCESSING_POLICY_NAMES[policy_index % len(PROCESSING_POLICY_NAMES)]
    system = run_and_check(config, slots, name)
    metrics = system.metrics
    accounted = (
        metrics.transmitted_packets
        + metrics.dropped
        + metrics.pushed_out
        + metrics.flushed
        + system.backlog
    )
    assert accounted == metrics.arrived


@settings(max_examples=40, deadline=None)
@given(scenario=processing_scenario(), policy_index=st.integers(0, 10_000))
def test_push_out_policies_are_greedy(scenario, policy_index):
    """Push-out policies accept whenever the buffer has space: drops and
    push-outs can only happen at a full buffer, so total losses are
    bounded by arrivals minus what a full buffer plus service absorbed."""
    config, slots = scenario
    push_out_names = [
        n for n in PROCESSING_POLICY_NAMES if make_policy(n).is_push_out
    ]
    name = push_out_names[policy_index % len(push_out_names)]

    system = PolicySystem(config, make_policy(name))
    for burst in slots:
        for packet in burst:
            was_full = system.backlog >= config.buffer_size
            before_losses = (
                system.metrics.dropped + system.metrics.pushed_out
            )
            system.switch.offer(packet, system.policy)
            after_losses = (
                system.metrics.dropped + system.metrics.pushed_out
            )
            if not was_full:
                assert after_losses == before_losses, (
                    f"{name} lost a packet with free buffer space"
                )
        system.switch.transmission_phase()


@settings(max_examples=40, deadline=None)
@given(scenario=processing_scenario(), policy_index=st.integers(0, 10_000))
def test_non_push_out_policies_never_evict(scenario, policy_index):
    config, slots = scenario
    threshold_names = [
        n for n in PROCESSING_POLICY_NAMES if not make_policy(n).is_push_out
    ]
    name = threshold_names[policy_index % len(threshold_names)]
    system = run_and_check(config, slots, name)
    assert system.metrics.pushed_out == 0


@settings(max_examples=30, deadline=None)
@given(scenario=processing_scenario())
def test_fifo_order_preserved(scenario):
    """Packets leave a FIFO queue in exactly their admission order."""
    config, slots = scenario
    system = PolicySystem(config, make_policy("LWD"), engine="reference")
    admission_order: dict[int, list[int]] = {
        p: [] for p in range(config.n_ports)
    }
    transmit_order: dict[int, list[int]] = {
        p: [] for p in range(config.n_ports)
    }
    original_admit = system.switch.queues[0].__class__.admit

    for burst in slots:
        for packet in burst:
            before = {
                p: [q.seq for q in system.switch.queues[p]]
                for p in range(config.n_ports)
            }
            system.switch.offer(packet, system.policy)
            after = {
                p: [q.seq for q in system.switch.queues[p]]
                for p in range(config.n_ports)
            }
            for port in range(config.n_ports):
                added = [s for s in after[port] if s not in before[port]]
                admission_order[port].extend(added)
                removed = [s for s in before[port] if s not in after[port]]
                for seq in removed:  # pushed out: forget it
                    admission_order[port].remove(seq)
        done = system.switch.transmission_phase()
        for packet in done:
            transmit_order[packet.port].append(packet.seq)
    # Drain fully.
    for _ in range(config.buffer_size * config.max_work + 1):
        for packet in system.switch.transmission_phase():
            transmit_order[packet.port].append(packet.seq)
    for port in range(config.n_ports):
        assert transmit_order[port] == admission_order[port][: len(
            transmit_order[port]
        )]


@settings(max_examples=25, deadline=None)
@given(scenario=processing_scenario(), policy_index=st.integers(0, 10_000))
def test_determinism(scenario, policy_index):
    config, slots = scenario
    name = PROCESSING_POLICY_NAMES[policy_index % len(PROCESSING_POLICY_NAMES)]
    outcomes = []
    for _ in range(2):
        system = run_and_check(config, slots, name)
        outcomes.append(
            (
                system.metrics.transmitted_packets,
                system.metrics.dropped,
                system.metrics.pushed_out,
                [len(q) for q in system.switch.queues],
            )
        )
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Value model properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(scenario=value_scenario(), policy_index=st.integers(0, 10_000))
def test_value_engine_invariants(scenario, policy_index):
    config, slots = scenario
    name = VALUE_POLICY_NAMES[policy_index % len(VALUE_POLICY_NAMES)]
    system = run_and_check(config, slots, name)
    metrics = system.metrics
    accounted = (
        metrics.transmitted_packets
        + metrics.dropped
        + metrics.pushed_out
        + metrics.flushed
        + system.backlog
    )
    assert accounted == metrics.arrived


@settings(max_examples=40, deadline=None)
@given(scenario=value_scenario(), policy_index=st.integers(0, 10_000))
def test_value_queues_stay_sorted(scenario, policy_index):
    config, slots = scenario
    name = VALUE_POLICY_NAMES[policy_index % len(VALUE_POLICY_NAMES)]
    system = PolicySystem(config, make_policy(name), engine="reference")
    for burst in slots:
        system.run_slot(burst)
        for queue in system.switch.queues:
            values = [p.value for p in queue]
            assert values == sorted(values, reverse=True)


@settings(max_examples=40, deadline=None)
@given(scenario=value_scenario())
def test_mvd_never_decreases_buffered_value_on_push_out(scenario):
    """MVD's push-outs always trade a cheaper packet for a dearer one."""
    config, slots = scenario
    system = PolicySystem(config, make_policy("MVD"), engine="reference")
    for burst in slots:
        for packet in burst:
            before = sum(q.total_value for q in system.switch.queues)
            pushed_before = system.metrics.pushed_out
            system.switch.offer(packet, system.policy)
            if system.metrics.pushed_out > pushed_before:
                after = sum(q.total_value for q in system.switch.queues)
                assert after > before
        system.switch.transmission_phase()


@settings(max_examples=30, deadline=None)
@given(scenario=value_scenario())
def test_transmitted_value_counts_head_packets(scenario):
    """Each queue transmits its highest-valued packets first, so per-slot
    transmitted value from a queue equals the top-C values it held."""
    config, slots = scenario
    system = PolicySystem(config, make_policy("Greedy"), engine="reference")
    for burst in slots:
        system.switch.arrival_phase(burst, system.policy)
        expected = []
        for queue in system.switch.queues:
            held = sorted((p.value for p in queue), reverse=True)
            expected.extend(held[: config.speedup])
        done = system.switch.transmission_phase()
        assert sorted(p.value for p in done) == sorted(expected)
