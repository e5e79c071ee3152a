"""Differential suite: naive vs. fast-path vs. vectorized engines.

The correctness contract has two layers:

* **Selector parity** (PR 2): a switch built with ``fast_path=True``
  (aggregate-index selectors) produces *byte-identical* simulation
  output to one built with ``fast_path=False`` (the naive O(n)
  reference scans) — every Decision, including the paper's
  tie-breaking orders, must match.
* **Engine parity** (the vectorized oracle contract, see
  docs/VECTORIZED.md): the columnar batch-slot engine of
  :mod:`repro.core.columnar` must reproduce the reference engine's
  decision stream byte-identically — on its per-packet slow path
  (offer-driven, compared decision by decision) *and* in its batched
  fast mode (compared on final queue contents and the full metrics
  snapshot, since fast mode by design emits no per-decision stream).

This suite drives all engines in lock-step over hypothesis-generated
traces for every registered push-out policy in both disciplines.
Values are drawn from a tiny set so exact-value ties occur constantly,
and processing-model configs flip between distinct and *uniform* works
— under uniform works aggregate keys (queue length, queue work) tie on
every congested arrival, which is exactly where victim tie-breaking
order is the whole behavior. Dedicated regression tests additionally
pin the engineered tie cases from the paper's definitions on all three
implementations.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import VectorizedSwitch
from repro.core.config import SwitchConfig
from repro.core.decisions import Decision, push_out
from repro.core.errors import ConfigError
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.policies import available_policies, make_policy
from repro.policies.base import PushOutPolicy


def _pushout_names(model: str) -> List[str]:
    names = []
    for entry in available_policies():
        if model not in entry.models:
            continue
        try:
            policy = make_policy(entry.name)
        except ConfigError:
            # Policies gated on optional deps (Random without numpy)
            # simply drop out of the differential matrix.
            continue
        if isinstance(policy, PushOutPolicy):
            names.append(entry.name)
    return names


PROC_PUSHOUT = _pushout_names("processing")
VALUE_PUSHOUT = _pushout_names("value")

#: Small tie-prone value alphabet for the value-model traces.
TIE_VALUES = (1.0, 2.0, 3.0)


def _drive_trio(
    policy_name: str,
    config: SwitchConfig,
    slot_bursts: Sequence[Sequence[Packet]],
    flush_every: int | None = None,
) -> Tuple[SharedMemorySwitch, SharedMemorySwitch, VectorizedSwitch,
           VectorizedSwitch]:
    """Run all engines in lock-step, asserting equal decision streams.

    Three implementations see each packet as an individual ``offer``
    (naive scan, fast-path index, vectorized slow path) and their
    Decisions are compared pointwise. A fourth instance — the
    vectorized engine in batched fast mode — consumes each slot's burst
    through ``run_slot`` and is compared on end state only.
    """
    fast = SharedMemorySwitch(config, fast_path=True)
    naive = SharedMemorySwitch(config, fast_path=False)
    vec = VectorizedSwitch(config)
    batch = VectorizedSwitch(config)
    assert fast.index is not None and naive.index is None
    fast_policy = make_policy(policy_name)
    naive_policy = make_policy(policy_name)
    vec_policy = make_policy(policy_name)
    batch_policy = make_policy(policy_name)
    for slot, burst in enumerate(slot_bursts):
        for packet in burst:
            d_fast = fast.offer(packet, fast_policy)
            d_naive = naive.offer(packet, naive_policy)
            d_vec = vec.offer(packet, vec_policy)
            assert d_fast == d_naive == d_vec, (
                f"{policy_name} diverged at slot {slot} on {packet}: "
                f"fast={d_fast}, naive={d_naive}, vectorized={d_vec}"
            )
        fast.transmission_phase()
        naive.transmission_phase()
        vec.transmission_phase()
        # run_slot owns slot accounting; the offer-driven loop must do
        # it by hand for the metrics snapshots to stay comparable with
        # the batch instance.
        for system in (fast, naive, vec):
            system.metrics.record_slot(system.occupancy)
            system.current_slot += 1
        batch.run_slot(burst, batch_policy)
        if flush_every is not None and (slot + 1) % flush_every == 0:
            fast.flush()
            naive.flush()
            vec.flush()
            batch.flush()
    return fast, naive, vec, batch


def _vec_state(vec: VectorizedSwitch, port: int) -> List[Tuple]:
    return [(p, v, r) for (p, v, r) in vec.queue_state(port)]


def _assert_same_outcome(
    fast: SharedMemorySwitch,
    naive: SharedMemorySwitch,
    vec: VectorizedSwitch,
    batch: VectorizedSwitch,
) -> None:
    fast.check_invariants()
    naive.check_invariants()
    vec.check_invariants()
    batch.check_invariants()
    # Sequence numbers differ (interleaved fresh copies draw from one
    # global counter; fast-mode columnar admissions draw none), so
    # compare the observable packet state instead.
    for port, (q_fast, q_naive) in enumerate(zip(fast.queues, naive.queues)):
        state_fast = [(p.port, p.value, p.residual) for p in q_fast]
        state_naive = [(p.port, p.value, p.residual) for p in q_naive]
        assert state_fast == state_naive
        assert _vec_state(vec, port) == state_fast
        assert _vec_state(batch, port) == state_fast
    m_fast, m_naive = fast.metrics, naive.metrics
    assert m_fast.accepted == m_naive.accepted
    assert m_fast.dropped == m_naive.dropped
    assert m_fast.pushed_out == m_naive.pushed_out
    assert m_fast.transmitted_packets == m_naive.transmitted_packets
    assert m_fast.transmitted_value == m_naive.transmitted_value
    # The vectorized instances must match the reference on the *full*
    # flat export — every counter, per-port lists included.
    reference_snapshot = m_fast.snapshot()
    assert vec.metrics.snapshot() == reference_snapshot
    assert batch.metrics.snapshot() == reference_snapshot


@st.composite
def fifo_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    buffer_size = draw(st.integers(min_value=n, max_value=3 * n))
    n_slots = draw(st.integers(min_value=1, max_value=8))
    bursts = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=2 * buffer_size,
            ),
            min_size=n_slots,
            max_size=n_slots,
        )
    )
    flush_every = draw(st.sampled_from([None, 3]))
    # Uniform works force exact aggregate-key ties (equal lengths tie
    # LQD, equal queue works tie LWD, equal static works tie BPD) on
    # essentially every congested arrival; distinct works exercise the
    # weighted orderings instead. Both shapes must agree across all
    # engines.
    uniform_work = draw(st.sampled_from([None, 1, 2]))
    return n, buffer_size, bursts, flush_every, uniform_work


@st.composite
def value_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    buffer_size = draw(st.integers(min_value=n, max_value=3 * n))
    n_slots = draw(st.integers(min_value=1, max_value=8))
    bursts = draw(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.sampled_from(TIE_VALUES),
                ),
                min_size=0,
                max_size=2 * buffer_size,
            ),
            min_size=n_slots,
            max_size=n_slots,
        )
    )
    flush_every = draw(st.sampled_from([None, 3]))
    return n, buffer_size, bursts, flush_every


@pytest.mark.parametrize("policy_name", PROC_PUSHOUT)
@settings(max_examples=25, deadline=None)
@given(scenario=fifo_scenario())
def test_processing_policies_decision_identical(policy_name, scenario):
    n, buffer_size, bursts, flush_every, uniform_work = scenario
    if uniform_work is None:
        config = SwitchConfig.contiguous(n, buffer_size)
    else:
        config = SwitchConfig.from_works(
            [uniform_work] * n, buffer_size=buffer_size
        )
    slot_bursts = [
        [
            Packet(port=p, work=config.work_of(p), arrival_slot=slot)
            for p in burst
        ]
        for slot, burst in enumerate(bursts)
    ]
    fast, naive, vec, batch = _drive_trio(
        policy_name, config, slot_bursts, flush_every=flush_every
    )
    _assert_same_outcome(fast, naive, vec, batch)


@pytest.mark.parametrize("policy_name", VALUE_PUSHOUT)
@settings(max_examples=25, deadline=None)
@given(scenario=value_scenario())
def test_value_policies_decision_identical(policy_name, scenario):
    n, buffer_size, bursts, flush_every = scenario
    config = SwitchConfig.value_contiguous(n, buffer_size)
    slot_bursts = [
        [
            Packet(port=p, work=1, value=v, arrival_slot=slot)
            for p, v in burst
        ]
        for slot, burst in enumerate(bursts)
    ]
    fast, naive, vec, batch = _drive_trio(
        policy_name, config, slot_bursts, flush_every=flush_every
    )
    _assert_same_outcome(fast, naive, vec, batch)


# ----------------------------------------------------------------------
# Engineered exact-tie regressions (the paper's tie-breaking orders)
# ----------------------------------------------------------------------


def _fill(
    switches: Sequence,
    policies: Sequence,
    packets: Sequence[Packet],
) -> None:
    """Offer setup packets (buffer has room, so they are all accepted)."""
    for packet in packets:
        for switch, policy in zip(switches, policies):
            decision = switch.offer(packet, policy)
            assert decision.victim_port is None


def _tie_case(
    policy_name: str,
    config: SwitchConfig,
    setup: Sequence[Packet],
    arrival: Packet,
    expected: Decision,
) -> None:
    """The engineered tie must resolve identically on all three
    implementations — and, for the vectorized engine, identically again
    when the whole scenario arrives as one batched slot."""
    fast = SharedMemorySwitch(config, fast_path=True)
    naive = SharedMemorySwitch(config, fast_path=False)
    vec = VectorizedSwitch(config)
    policies = [make_policy(policy_name) for _ in range(3)]
    _fill((fast, naive, vec), policies, setup)
    assert fast.view.is_full and naive.view.is_full and vec.view.is_full
    d_fast = fast.offer(arrival, policies[0])
    d_naive = naive.offer(arrival, policies[1])
    d_vec = vec.offer(arrival, policies[2])
    assert d_fast == d_naive == d_vec == expected
    fast.check_invariants()
    vec.check_invariants()

    # Batched replay: the same packets as one slot through the fast
    # arrival kernels must leave the same buffer state.
    batch = VectorizedSwitch(config)
    batch.run_slot(list(setup) + [arrival], make_policy(policy_name))
    batch.check_invariants()
    # run_slot also ran one transmission phase; apply it to the
    # offer-driven instance to compare final states.
    vec.transmission_phase()
    for port in range(config.n_ports):
        assert batch.queue_state(port) == vec.queue_state(port)


def test_lqd_length_tie_prefers_heavier_then_higher_port():
    # Queues 0 and 2 tied at length 2 (work 1 vs 3): victim is port 2.
    config = SwitchConfig.contiguous(3, 4)
    setup = [
        Packet(port=0, work=1), Packet(port=0, work=1),
        Packet(port=2, work=3), Packet(port=2, work=3),
    ]
    _tie_case(
        "LQD", config, setup,
        Packet(port=1, work=2), push_out(2),
    )


def test_lwd_work_tie_prefers_heavier_packets():
    # W_0 = 6 via six work-1 packets, W_2 = 6 via two work-3 packets:
    # tied total work, tie broken by per-packet work -> port 2.
    config = SwitchConfig.contiguous(3, 8)
    setup = [Packet(port=0, work=1) for _ in range(6)] + [
        Packet(port=2, work=3), Packet(port=2, work=3),
    ]
    _tie_case(
        "LWD", config, setup,
        Packet(port=1, work=2), push_out(2),
    )


def test_mvd_min_value_tie_prefers_longer_queue():
    # Both queues hold min value 1.0; queue 0 is longer -> victim 0.
    config = SwitchConfig.value_contiguous(3, 4)
    setup = [
        Packet(port=0, work=1, value=1.0),
        Packet(port=0, work=1, value=2.0),
        Packet(port=0, work=1, value=3.0),
        Packet(port=2, work=1, value=1.0),
    ]
    _tie_case(
        "MVD", config, setup,
        Packet(port=1, work=1, value=2.0), push_out(0),
    )


def test_mrd_ratio_tie_prefers_higher_port():
    # Identical queues at ports 0 and 2: ratio and min value tie, so the
    # higher port wins.
    config = SwitchConfig.value_contiguous(3, 4)
    setup = [
        Packet(port=0, work=1, value=1.0),
        Packet(port=0, work=1, value=3.0),
        Packet(port=2, work=1, value=1.0),
        Packet(port=2, work=1, value=3.0),
    ]
    _tie_case(
        "MRD", config, setup,
        Packet(port=1, work=1, value=2.0), push_out(2),
    )


def test_lqd_arrival_queue_wins_tie_and_drops():
    # The arrival's own queue (virtually one longer) is the unique
    # argmax -> DROP, on both paths.
    config = SwitchConfig.contiguous(2, 2)
    setup = [Packet(port=1, work=2), Packet(port=1, work=2)]
    fast = SharedMemorySwitch(config, fast_path=True)
    naive = SharedMemorySwitch(config, fast_path=False)
    vec = VectorizedSwitch(config)
    policies = [make_policy("LQD") for _ in range(3)]
    _fill((fast, naive, vec), policies, setup)
    arrival = Packet(port=1, work=2)
    d_fast = fast.offer(arrival, policies[0])
    d_naive = naive.offer(arrival, policies[1])
    d_vec = vec.offer(arrival, policies[2])
    assert d_fast == d_naive == d_vec
    assert d_fast.victim_port is None


# ----------------------------------------------------------------------
# Dynamic scenarios: churn events, reserved/shared splits, alpha
# admission — the same lock-step contract under the buffer-model seam
# ----------------------------------------------------------------------


from repro.core.config import BufferModel  # noqa: E402
from repro.policies.dynamic import DynamicThreshold, Harmonic  # noqa: E402


def _drive_dynamic(
    policy_factory: Callable[[], object],
    config: SwitchConfig,
    slot_bursts: Sequence[Sequence[Packet]],
    events_by_slot: Sequence[Sequence[Tuple[int, bool]]],
) -> Tuple[SharedMemorySwitch, SharedMemorySwitch, VectorizedSwitch,
           VectorizedSwitch]:
    """Lock-step drive with mid-run ``set_port_state`` churn.

    Port events apply at slot start on all four instances, and the
    reclaim counts must agree — a down event flushes the same queue on
    every engine or the buffer accounting has already diverged.
    """
    fast = SharedMemorySwitch(config, fast_path=True)
    naive = SharedMemorySwitch(config, fast_path=False)
    vec = VectorizedSwitch(config)
    batch = VectorizedSwitch(config)
    fast_policy = policy_factory()
    naive_policy = policy_factory()
    vec_policy = policy_factory()
    batch_policy = policy_factory()
    for slot, burst in enumerate(slot_bursts):
        for port, up in events_by_slot[slot]:
            r_fast = fast.set_port_state(port, up)
            r_naive = naive.set_port_state(port, up)
            r_vec = vec.set_port_state(port, up)
            r_batch = batch.set_port_state(port, up)
            assert r_fast == r_naive == r_vec == r_batch, (
                f"reclaim mismatch at slot {slot} port {port}: "
                f"{r_fast}/{r_naive}/{r_vec}/{r_batch}"
            )
        for packet in burst:
            d_fast = fast.offer(packet, fast_policy)
            d_naive = naive.offer(packet, naive_policy)
            d_vec = vec.offer(packet, vec_policy)
            assert d_fast == d_naive == d_vec, (
                f"dynamic diverged at slot {slot} on {packet}: "
                f"fast={d_fast}, naive={d_naive}, vectorized={d_vec}"
            )
        fast.transmission_phase()
        naive.transmission_phase()
        vec.transmission_phase()
        for system in (fast, naive, vec):
            system.metrics.record_slot(system.occupancy)
            system.current_slot += 1
        batch.run_slot(burst, batch_policy)
    return fast, naive, vec, batch


@st.composite
def dynamic_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    buffer_size = draw(st.integers(min_value=max(n, 4), max_value=3 * n + 4))
    n_slots = draw(st.integers(min_value=2, max_value=8))
    bursts = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=2 * buffer_size,
            ),
            min_size=n_slots,
            max_size=n_slots,
        )
    )
    # Reserved/shared split: None keeps the purely shared model; the
    # split variants reserve 1 slot per port (even) or front-load the
    # reservations onto port 0 (uneven).
    split = draw(st.sampled_from([None, "even", "uneven"]))
    # Churn plan: per slot, up to two valid toggles (validity is
    # tracked, so redundant-transition errors cannot occur).
    toggles = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=0,
                max_size=2,
            ),
            min_size=n_slots,
            max_size=n_slots,
        )
    )
    return n, buffer_size, bursts, split, toggles


def _dynamic_config(n: int, buffer_size: int, split) -> SwitchConfig:
    if split is None:
        model = None
    elif split == "even":
        model = BufferModel.split((1,) * n, buffer_size - n)
    else:
        model = BufferModel.split(
            (2,) + (0,) * (n - 1), buffer_size - 2
        )
    return SwitchConfig.uniform(n, buffer_size, buffer_model=model)


def _dynamic_events(n, toggles):
    port_up = [True] * n
    events_by_slot = []
    for slot_toggles in toggles:
        events = []
        for port in slot_toggles:
            port_up[port] = not port_up[port]
            events.append((port, port_up[port]))
        events_by_slot.append(events)
    return events_by_slot


#: Engines a single-engine regression replays on.
ENGINE_FACTORIES = {
    "naive": lambda config: SharedMemorySwitch(config, fast_path=False),
    "fast": lambda config: SharedMemorySwitch(config, fast_path=True),
    "vectorized": VectorizedSwitch,
}


@pytest.mark.parametrize("engine", sorted(ENGINE_FACTORIES))
def test_lqd_port_up_while_shared_pool_over_committed(engine):
    """Port 0 (2 reserved slots) goes down, port 1 fills the shared pool
    plus port 0's reclaimed reservation, and port 0 comes back up while
    port 1's overflow still holds that reservation. Port 0's arrivals
    may only use a reserved slot that is physically free: the second
    one pushes out port 1's tail, the third (port 0 now the longest
    queue) is dropped. Found by the dynamic Hypothesis differential;
    every engine used to raise PolicyError on the third arrival."""
    config = _dynamic_config(2, 4, "uneven")
    bursts = [[], [], [], [], [1, 1, 1, 1], [0, 0, 0]]
    toggles = [[], [], [], [], [0], [0]]
    switch = ENGINE_FACTORIES[engine](config)
    policy = make_policy("LQD")
    for slot, events in enumerate(_dynamic_events(2, toggles)):
        for port, up in events:
            switch.set_port_state(port, up)
        switch.run_slot(
            [Packet(port=p, work=1, arrival_slot=slot) for p in bursts[slot]],
            policy,
        )
        assert switch.occupancy <= config.buffer_size
    switch.check_invariants()
    metrics = switch.metrics
    assert (metrics.arrived, metrics.accepted) == (7, 6)
    assert (metrics.dropped, metrics.pushed_out) == (1, 1)
    assert list(metrics.dropped_by_port) == [1, 1]


DYNAMIC_FACTORIES = [
    ("LQD", lambda: make_policy("LQD")),
    ("Harmonic", Harmonic),
    ("DT-0.5", lambda: DynamicThreshold(alpha=0.5)),
    ("DT-1", lambda: DynamicThreshold(alpha=1.0)),
    ("DT-2", lambda: DynamicThreshold(alpha=2.0)),
]


@pytest.mark.parametrize(
    "factory", [f for _, f in DYNAMIC_FACTORIES],
    ids=[name for name, _ in DYNAMIC_FACTORIES],
)
@settings(max_examples=25, deadline=None)
@given(scenario=dynamic_scenario())
def test_dynamic_policies_decision_identical(factory, scenario):
    n, buffer_size, bursts, split, toggles = scenario
    config = _dynamic_config(n, buffer_size, split)
    slot_bursts = [
        [Packet(port=p, work=1, arrival_slot=slot) for p in burst]
        for slot, burst in enumerate(bursts)
    ]
    fast, naive, vec, batch = _drive_dynamic(
        factory, config, slot_bursts, _dynamic_events(n, toggles)
    )
    _assert_same_outcome(fast, naive, vec, batch)
