"""Property-based tests around the exhaustive OPT oracle.

The oracle is only trustworthy if it dominates every feasible schedule;
these hypothesis tests generate random tiny instances, run every policy
(online and scripted) through the real engine with a full drain, and
assert the oracle's objective is an upper bound. A failure here would
mean either the oracle explores an illegal schedule or the engine and the
oracle disagree about the model semantics — both fatal for every result
built on top of them.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.competitive import PolicySystem
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.packet import Packet
from repro.opt.exhaustive import TinyInstance, exhaustive_opt
from repro.opt.surrogate import make_surrogate
from repro.policies import make_policy


@st.composite
def tiny_processing_instance(draw):
    n_ports = draw(st.integers(min_value=1, max_value=3))
    works = tuple(
        draw(st.integers(min_value=1, max_value=3)) for _ in range(n_ports)
    )
    buffer_size = draw(st.integers(min_value=n_ports, max_value=4))
    config = SwitchConfig.from_works(works, buffer_size)
    n_slots = draw(st.integers(min_value=1, max_value=3))
    arrivals = []
    budget = 8
    for _ in range(n_slots):
        size = min(draw(st.integers(min_value=0, max_value=3)), budget)
        budget -= size
        arrivals.append(
            tuple(
                (draw(st.integers(min_value=0, max_value=n_ports - 1)), 1.0)
                for _ in range(size)
            )
        )
    return config, tuple(arrivals)


@st.composite
def tiny_value_instance(draw):
    n_ports = draw(st.integers(min_value=1, max_value=3))
    buffer_size = draw(st.integers(min_value=n_ports, max_value=4))
    config = SwitchConfig.uniform(
        n_ports, buffer_size, work=1,
        discipline=QueueDiscipline.PRIORITY,
    )
    n_slots = draw(st.integers(min_value=1, max_value=3))
    arrivals = []
    budget = 8
    for _ in range(n_slots):
        size = min(draw(st.integers(min_value=0, max_value=3)), budget)
        budget -= size
        arrivals.append(
            tuple(
                (
                    draw(st.integers(min_value=0, max_value=n_ports - 1)),
                    float(draw(st.integers(min_value=1, max_value=5))),
                )
                for _ in range(size)
            )
        )
    return config, tuple(arrivals)


def drained_objective(config, arrivals, policy_name, by_value):
    system = PolicySystem(config, make_policy(policy_name))
    for slot, burst in enumerate(arrivals):
        packets = [
            Packet(
                port=port,
                work=config.work_of(port) if not by_value else 1,
                value=value,
                arrival_slot=slot,
            )
            for port, value in burst
        ]
        system.run_slot(packets)
    guard = config.buffer_size * config.max_work + 1
    while system.backlog > 0 and guard > 0:
        system.run_slot(())
        guard -= 1
    return system.metrics.objective(by_value)


def drained_surrogate(config, arrivals, by_value, engine):
    """Run the OPT surrogate over ``arrivals``, then drain it empty."""
    surrogate = make_surrogate(config, by_value=by_value, engine=engine)
    for slot, burst in enumerate(arrivals):
        surrogate.run_slot(
            [
                Packet(
                    port=port,
                    work=config.work_of(port) if not by_value else 1,
                    value=value,
                    arrival_slot=slot,
                )
                for port, value in burst
            ]
        )
    guard = config.buffer_size * config.max_work + 1
    while surrogate.backlog > 0 and guard > 0:
        surrogate.run_slot(())
        guard -= 1
    assert surrogate.backlog == 0
    return surrogate


@settings(max_examples=60, deadline=None)
@given(scenario=tiny_processing_instance(), policy_index=st.integers(0, 999))
def test_oracle_dominates_processing_policies(scenario, policy_index):
    config, arrivals = scenario
    policies = ("LWD", "LQD", "BPD", "NEST", "NHDT", "NHST")
    name = policies[policy_index % len(policies)]
    oracle = exhaustive_opt(
        TinyInstance(config=config, arrivals=arrivals), by_value=False
    )
    achieved = drained_objective(config, arrivals, name, by_value=False)
    assert achieved <= oracle + 1e-9


@settings(max_examples=60, deadline=None)
@given(scenario=tiny_value_instance(), policy_index=st.integers(0, 999))
def test_oracle_dominates_value_policies(scenario, policy_index):
    config, arrivals = scenario
    policies = ("MRD", "MVD", "LQD-V", "Greedy", "NEST")
    name = policies[policy_index % len(policies)]
    oracle = exhaustive_opt(
        TinyInstance(config=config, arrivals=arrivals), by_value=True
    )
    achieved = drained_objective(config, arrivals, name, by_value=True)
    assert achieved <= oracle + 1e-9


@settings(max_examples=40, deadline=None)
@given(scenario=tiny_processing_instance())
def test_oracle_achievable_by_some_schedule(scenario):
    """The oracle must not overshoot what any schedule can reach: its
    objective is bounded by the number of arrivals."""
    config, arrivals = scenario
    oracle = exhaustive_opt(
        TinyInstance(config=config, arrivals=arrivals), by_value=False
    )
    total = sum(len(burst) for burst in arrivals)
    assert 0 <= oracle <= total


@settings(max_examples=40, deadline=None)
@given(scenario=tiny_value_instance())
def test_oracle_monotone_in_buffer(scenario):
    """Extra buffer can never hurt the offline optimum."""
    config, arrivals = scenario
    small = exhaustive_opt(
        TinyInstance(config=config, arrivals=arrivals), by_value=True
    )
    bigger_config = SwitchConfig.uniform(
        config.n_ports, config.buffer_size + 2, work=1,
        discipline=QueueDiscipline.PRIORITY,
    )
    big = exhaustive_opt(
        TinyInstance(config=bigger_config, arrivals=arrivals), by_value=True
    )
    assert big >= small - 1e-9


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_surrogate_is_not_an_upper_bound_on_opt(engine):
    """Pinned counterexample: the single-PQ OPT surrogate (Section V-A)
    transmits fewer packets than the exact offline optimum.

    Works (1, 3), B = 4, C = 1. OPT transmits 7 of the 8 arrivals; the
    drained surrogate transmits 6 on both engines, so Fig. 5 processing
    ratios measured against it are not always ratios to a true upper
    bound on OPT.
    """
    config = SwitchConfig.from_works((1, 3), 4)
    arrivals = (
        ((1, 1.0),),
        ((1, 1.0), (1, 1.0), (0, 1.0), (0, 1.0)),
        ((1, 1.0),),
        ((0, 1.0), (0, 1.0)),
    )
    oracle = exhaustive_opt(
        TinyInstance(config=config, arrivals=arrivals), by_value=False
    )
    surrogate = drained_surrogate(config, arrivals, False, engine)
    assert oracle == 7
    assert surrogate.metrics.objective(False) == 6


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@settings(max_examples=60, deadline=None)
@given(scenario=tiny_value_instance())
def test_value_surrogate_is_an_upper_bound_on_opt(engine, scenario):
    """In the value model the surrogate does bound OPT from above.

    One priority queue with ``n*C`` cores relaxes every per-port
    constraint of the switch: any feasible switch schedule is also a
    feasible schedule of the single queue, so the drained surrogate
    transmits at least the exact optimum's value.
    """
    config, arrivals = scenario
    oracle = exhaustive_opt(
        TinyInstance(config=config, arrivals=arrivals), by_value=True
    )
    surrogate = drained_surrogate(config, arrivals, True, engine)
    assert surrogate.metrics.objective(True) >= oracle - 1e-9
