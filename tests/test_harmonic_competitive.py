"""Competitive-ratio wall for the dynamic buffer-sharing policies.

Two claims are pinned:

* **Harmonic stays inside its guarantee.** The Harmonic policy is
  ``(2 + ln n)``-competitive for online buffer sharing
  (arXiv:2511.06514). The guarantee is an upper bound against the true
  clairvoyant OPT; here the empirical ratio — measured against the
  paper's OPT *surrogate*, which only over-credits OPT — must stay
  inside ``2 + ln n`` on every seeded random workload and on the
  adversarial constructions aimed at LQD. A violation would mean the
  implementation does not implement the harmonic allocation rule.

* **LQD's static guarantee does not survive churn.** Static LQD is
  1.5-competitive (arXiv:1207.1141) and at least sqrt(2) ~ 1.414 in
  the worst case. The churn-collapse construction drives the measured
  ratio against the scripted clairvoyant OPT to exactly
  ``2B / (B + 2T)`` = 1.6 at the defaults — past the 1.4 bar and past
  the static upper bound, which is the whole point of the dynamic
  scenario family.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._math import harmonic_number
from repro.analysis.competitive import (
    ENGINES,
    measure_competitive_ratio,
    run_scenario,
)
from repro.core.config import SwitchConfig
from repro.policies import make_policy
from repro.traffic.columnar import columnar_poisson_workload
from repro.traffic.dynamic import (
    lqd_churn_collapse,
    lqd_oversubscription_squeeze,
    oversubscription_spike_workload,
    port_flap_workload,
)


def _harmonic_bound(n_ports: int) -> float:
    return 2.0 + math.log(n_ports)


def _measured(policy_name, trace, config, **kwargs):
    return measure_competitive_ratio(
        make_policy(policy_name),
        trace,
        config,
        by_value=False,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Harmonic <= 2 + ln n
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    b_mult=st.integers(min_value=2, max_value=6),
    load=st.sampled_from([0.8, 1.2, 2.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_harmonic_within_guarantee_random(n, b_mult, load, seed):
    config = SwitchConfig.uniform(n, n * b_mult)
    trace = columnar_poisson_workload(
        config, 300, load=load, seed=seed
    ).to_trace()
    result = _measured("Harmonic", trace, config, opt="surrogate")
    assert result.alg_objective > 0
    assert result.ratio <= _harmonic_bound(n)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    workload=st.sampled_from(["spike", "flap"]),
)
def test_harmonic_within_guarantee_dynamic(n, seed, workload):
    config = SwitchConfig.uniform(n, 8 * n)
    if workload == "spike":
        trace = oversubscription_spike_workload(
            config, 300, load=0.9, seed=seed
        )
    else:
        trace = port_flap_workload(config, 300, load=0.9, seed=seed)
    result = _measured("Harmonic", trace, config, opt="surrogate")
    assert result.alg_objective > 0
    assert result.ratio <= _harmonic_bound(n)


@pytest.mark.parametrize(
    "builder", [lqd_churn_collapse, lqd_oversubscription_squeeze]
)
def test_harmonic_within_guarantee_adversarial(builder):
    # The adversaries are built to hurt LQD; Harmonic replayed over the
    # same traces (same scripted-OPT plan) must stay inside its bound.
    scenario = builder()
    result = _measured(
        "Harmonic", scenario.trace, scenario.config, opt="scripted"
    )
    assert result.alg_objective > 0
    assert result.ratio <= _harmonic_bound(scenario.config.n_ports)


@pytest.mark.parametrize("engine", ENGINES)
def test_harmonic_bound_engine_independent(engine):
    config = SwitchConfig.uniform(4, 32)
    trace = oversubscription_spike_workload(config, 400, load=1.0, seed=7)
    result = _measured(
        "Harmonic", trace, config, opt="surrogate", engine=engine
    )
    assert result.ratio <= _harmonic_bound(4)


def test_harmonic_bound_helper_matches_policy_constant():
    # The policy's admission rule uses H_n, the proof's bound 2 + ln n;
    # H_n <= 1 + ln n keeps the former strictly inside the latter.
    for n in range(2, 64):
        assert harmonic_number(n) <= 1.0 + math.log(n)


# ----------------------------------------------------------------------
# LQD adversarial constructions
# ----------------------------------------------------------------------


def test_lqd_churn_collapse_breaks_static_bound():
    scenario = lqd_churn_collapse()
    outcome = run_scenario(scenario)
    assert outcome.ratio == pytest.approx(scenario.predicted_ratio)
    # Past the >= 1.4 bar (the static sqrt(2) lower bound) *and* past
    # the static 1.5-competitiveness upper bound.
    assert outcome.ratio >= 1.4
    assert outcome.ratio > 1.5


@pytest.mark.parametrize(
    "buffer_size,down_slot",
    [(240, 30), (240, 16), (128, 16), (480, 60)],
)
def test_lqd_churn_collapse_ratio_formula(buffer_size, down_slot):
    scenario = lqd_churn_collapse(
        buffer_size=buffer_size, down_slot=down_slot
    )
    outcome = run_scenario(scenario)
    expected = 2.0 * buffer_size / (buffer_size + 2.0 * down_slot)
    assert outcome.ratio == pytest.approx(expected)


def test_lqd_churn_collapse_rounds_preserve_ratio():
    one = run_scenario(lqd_churn_collapse(rounds=1))
    three = run_scenario(lqd_churn_collapse(rounds=3))
    assert three.ratio == pytest.approx(one.ratio)
    assert three.alg_objective == pytest.approx(3 * one.alg_objective)


def test_lqd_squeeze_measured_near_equalization_cap():
    scenario = lqd_oversubscription_squeeze()
    outcome = run_scenario(scenario)
    # Equalization protects the inventory: the static squeeze family is
    # capped at 4/3 for one stream, and the measured ratio approaches
    # (but cannot exceed) it.
    assert 1.2 <= outcome.ratio <= scenario.predicted_ratio + 1e-9


def test_churn_collapse_depends_on_the_teardown():
    # Ablation: the same trace *without* the port-down event is
    # zero-sum — both sides transmit from the same inventory and the
    # ratio collapses toward 1. The churn event is what opens the gap.
    scenario = lqd_churn_collapse()
    static_trace = type(scenario.trace)(
        [list(slot) for slot in scenario.trace.slots], {}
    )
    with_churn = run_scenario(scenario)
    without = _measured(
        "LQD", static_trace, scenario.config, opt="scripted"
    )
    assert with_churn.ratio > without.ratio + 0.25
    assert without.ratio < 1.25
