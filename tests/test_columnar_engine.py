"""Columnar-engine state audits: self-checks, backends, wide switches.

The vectorized engine keeps two representations of the same buffer —
flat per-port columns for the hot path and per-packet record stores as
the object view. ``check_invariants`` cross-validates them (plus the
derived kernel structures and the transmission calendar), and
``REPRO_CHECK_INVARIANTS`` runs that audit periodically through
:func:`repro.analysis.competitive.run_system`. These tests prove the
audit has teeth: a deliberately corrupted column must be caught, from a
direct call and from the periodic driver alike.

The suite also pins the engine's backend seam — a forced pure-python
backend (``REPRO_VECTOR_BACKEND=python``) must be decision-identical to
the reference — and runs a switch wider than any Fig. 5 panel through
the expiry-calendar transmission path against the reference.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.competitive import PolicySystem, run_system
from repro.core import columns as columns_mod
from repro.core.columnar import VectorizedSwitch
from repro.core.config import SwitchConfig
from repro.core.packet import Packet
from repro.core.switch import SharedMemorySwitch
from repro.policies import make_policy
from repro.traffic.trace import Trace


def _congested_trace(
    config: SwitchConfig, n_slots: int, seed: int, per_slot: int
) -> Trace:
    """A seeded random trace hot enough to exercise push-outs."""
    rng = random.Random(seed)
    n = config.n_ports
    trace = Trace()
    for slot in range(n_slots):
        burst = [
            Packet(
                port=(p := rng.randrange(n)),
                work=config.work_of(p),
                value=config.value_of(p),
                arrival_slot=slot,
            )
            for _ in range(rng.randint(0, per_slot))
        ]
        trace.append_slot(burst)
    return trace


def _warm_switch(policy_name: str = "LQD") -> VectorizedSwitch:
    """A small switch after a few congested fast-mode slots."""
    config = SwitchConfig.contiguous(4, 8)
    switch = VectorizedSwitch(config)
    policy = make_policy(policy_name)
    trace = _congested_trace(config, 12, seed=5, per_slot=10)
    for burst in trace.slots:
        switch.run_slot(burst, policy)
    assert switch.occupancy > 0
    switch.check_invariants()
    return switch


# ----------------------------------------------------------------------
# Deliberate corruption must be caught
# ----------------------------------------------------------------------


def test_clean_state_passes():
    _warm_switch().check_invariants()


def test_corrupt_length_column_caught():
    switch = _warm_switch()
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._lens[port] += 1
    with pytest.raises(AssertionError):
        switch.check_invariants()


def test_corrupt_value_total_caught():
    switch = _warm_switch()
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._tv[port] += 0.5
    with pytest.raises(AssertionError):
        switch.check_invariants()


def test_corrupt_store_caught():
    # Dropping a record desynchronizes the object view from the length
    # column — the column/object-view consistency check must fire.
    switch = _warm_switch()
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._stores[port].pop()
    with pytest.raises(AssertionError):
        switch.check_invariants()


def test_corrupt_active_set_caught():
    switch = _warm_switch()
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._is_act[port] = False
    with pytest.raises(AssertionError):
        switch.check_invariants()


def test_corrupt_transmission_calendar_caught():
    # Single-core FIFO heads complete on an expiry-tick calendar;
    # moving a head's expiry off its scheduled bucket must be caught.
    switch = _warm_switch()
    port = max(range(4), key=lambda p: switch._lens[p])
    switch._hexp[port] += 1
    with pytest.raises(AssertionError):
        switch.check_invariants()


@pytest.mark.parametrize("policy_name", ["LQD", "LWD", "BPD"])
def test_corrupt_kernel_structures_caught(policy_name):
    switch = _warm_switch(policy_name)
    if policy_name == "LQD":
        switch._maxl += 1
    elif policy_name == "LWD":
        switch._ncode[switch._active[0]] += 1
    else:
        switch._nm ^= 1
    with pytest.raises(AssertionError):
        switch.check_invariants()


def test_corrupt_occupancy_caught():
    switch = _warm_switch()
    switch.occupancy -= 1
    with pytest.raises(AssertionError):
        switch.check_invariants()


# ----------------------------------------------------------------------
# The periodic driver must run the audit
# ----------------------------------------------------------------------


def test_periodic_check_catches_corruption(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "3")
    config = SwitchConfig.contiguous(4, 8)
    system = PolicySystem(config, make_policy("LQD"), engine="vectorized")
    trace = _congested_trace(config, 20, seed=9, per_slot=8)
    # Pre-corrupt a column: the run itself proceeds (fast kernels do not
    # audit per slot) until the periodic check fires at slot 3.
    system.switch._tv[0] += 1.0
    with pytest.raises(AssertionError):
        run_system(system, trace)


def test_periodic_check_passes_clean_vectorized_run(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "3")
    config = SwitchConfig.contiguous(4, 8)
    trace = _congested_trace(config, 30, seed=10, per_slot=8)
    vec = PolicySystem(config, make_policy("LWD"), engine="vectorized")
    ref = PolicySystem(config, make_policy("LWD"), engine="reference")
    vec_metrics = run_system(vec, trace, flush_every=11)
    ref_metrics = run_system(ref, trace, flush_every=11)
    assert vec_metrics.snapshot() == ref_metrics.snapshot()


# ----------------------------------------------------------------------
# Packet bursts: converted to columns at entry
# ----------------------------------------------------------------------


def test_packet_burst_tags_reach_the_policy():
    """Policies consulted on a converted ``Packet`` burst see the
    caller's packets, so scripted-OPT tags survive the conversion."""
    from repro.opt.scripted import ScriptedPolicy
    from repro.traffic.trace import burst

    config = SwitchConfig.contiguous(2, 4)
    trace = Trace()
    trace.append_slot(burst(0, port=0, count=6, opt_accept_first=3))
    trace.append_slot(burst(1, port=1, count=2, work=2, opt_accept_first=1))
    snapshots = []
    for engine in ("reference", "vectorized"):
        system = PolicySystem(config, ScriptedPolicy(), engine=engine)
        snapshots.append(run_system(system, trace).snapshot())
    assert snapshots[0] == snapshots[1]
    assert snapshots[1]["accepted"] == 4


def test_burst_validation_memo_keyed_on_the_burst():
    """A burst replayed across switches validates once, keyed on the
    burst object; the per-call column lists never enter the memo."""
    from repro.core import columnar

    config = SwitchConfig.contiguous(3, 6)
    slot = [Packet(port=p % 3, work=p % 3 + 1) for p in range(5)]
    before = set(columnar._VALIDATED)
    for _ in range(3):
        VectorizedSwitch(config).run_slot(slot, make_policy("LQD"))
    added = set(columnar._VALIDATED) - before
    assert added == {(id(slot), id(config))}


# ----------------------------------------------------------------------
# Backend forcing: the pure-python column fallback
# ----------------------------------------------------------------------


def _drive_both(config: SwitchConfig, trace: Trace, policy_name: str):
    vec = VectorizedSwitch(config)
    ref = SharedMemorySwitch(config)
    vec_policy = make_policy(policy_name)
    ref_policy = make_policy(policy_name)
    for burst in trace.slots:
        vec.run_slot(burst, vec_policy)
        ref.run_slot(burst, ref_policy)
    vec.check_invariants()
    return vec, ref


def _assert_matches_reference(
    vec: VectorizedSwitch, ref: SharedMemorySwitch
) -> None:
    for port in range(ref.config.n_ports):
        ref_state = [(p.port, p.value, p.residual) for p in ref.queues[port]]
        assert vec.queue_state(port) == ref_state
    assert vec.metrics.snapshot() == ref.metrics.snapshot()


def test_python_backend_forced(monkeypatch):
    monkeypatch.setenv(columns_mod.BACKEND_ENV, "python")
    columns_mod.reset_backend_cache()
    try:
        assert columns_mod.backend() == "python"
        assert columns_mod.numpy_module() is None
        config = SwitchConfig.contiguous(5, 12)
        trace = _congested_trace(config, 40, seed=21, per_slot=12)
        vec, ref = _drive_both(config, trace, "LWD")
        _assert_matches_reference(vec, ref)
    finally:
        monkeypatch.delenv(columns_mod.BACKEND_ENV, raising=False)
        columns_mod.reset_backend_cache()


def test_backend_env_validation(monkeypatch):
    from repro.core.errors import ConfigError

    monkeypatch.setenv(columns_mod.BACKEND_ENV, "cupy")
    columns_mod.reset_backend_cache()
    try:
        with pytest.raises(ConfigError):
            columns_mod.backend()
    finally:
        monkeypatch.delenv(columns_mod.BACKEND_ENV, raising=False)
        columns_mod.reset_backend_cache()


# ----------------------------------------------------------------------
# Transmission calendar: narrow and wide switches
# ----------------------------------------------------------------------


def test_wide_switch_on_calendar_matches_reference():
    n = 130
    config = SwitchConfig.from_works(
        [1 + (p % 3) for p in range(n)], buffer_size=2 * n
    )
    switch = VectorizedSwitch(config)
    trace = _congested_trace(config, 30, seed=31, per_slot=3 * n)
    ref = SharedMemorySwitch(config)
    policy_vec, policy_ref = make_policy("LQD"), make_policy("LQD")
    for burst in trace.slots:
        switch.run_slot(burst, policy_vec)
        ref.run_slot(burst, policy_ref)
    switch.check_invariants()
    _assert_matches_reference(switch, ref)


def test_narrow_switch_uses_calendar():
    config = SwitchConfig.contiguous(8, 32)
    switch = VectorizedSwitch(config)
    work = config.work_of(2)
    switch.run_slot([Packet(port=2, work=work)], make_policy("LQD"))
    assert switch._sched[switch._hexp[2]] == [2]
    assert switch._head_residual(2) == work - 1
