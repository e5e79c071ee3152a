"""Benchmarks: ranking robustness across traffic families, skewed
distributions, horizon convergence, and buffer-sharing profiles.

Together these back the claims EXPERIMENTS.md makes about the scope of
validity of the Fig. 5 conclusions: which orderings are traffic-model
artifacts (none of the headline ones), how the run horizon was chosen,
and where each policy lands on the complete-sharing-to-partitioning
spectrum the paper's introduction discusses.
"""

import pytest

from repro.analysis.convergence import convergence_profile
from repro.analysis.occupancy import compare_sharing
from repro.core.config import SwitchConfig
from repro.experiments.robustness import run_robustness_study
from repro.experiments.skewed import run_skew_sweep
from repro.policies import make_policy
from repro.traffic.columnar import columnar_processing_workload

from conftest import BENCH_SLOTS, run_once


def test_ranking_robustness_across_traffic_families(benchmark):
    result = run_once(
        benchmark,
        lambda: run_robustness_study(
            k=8, buffer_size=64, n_slots=max(BENCH_SLOTS, 1200), load=3.0,
        ),
    )
    print("\n=== ranking robustness across traffic families ===")
    print(result.format_table())
    benchmark.extra_info["ratios"] = {
        family: {name: round(v, 4) for name, v in row.items()}
        for family, row in result.ratios.items()
    }
    # The headline ordering holds on every bursty family.
    for family in ("mmpp", "periodic", "pareto"):
        row = result.ratios[family]
        assert row["LWD"] <= min(row.values()) + 1e-9, family
        assert row["BPD"] >= row["LWD"] + 0.3, family


def test_skewed_value_distributions(benchmark):
    result = run_once(
        benchmark,
        lambda: run_skew_sweep(
            k=8, buffer_size=64, n_slots=max(BENCH_SLOTS, 1200),
            skews=(-1.0, 0.0, 1.0, 2.0),
        ),
    )
    print("\n=== MRD-vs-LQD gap across port-value skews ===")
    print(result.format_table())
    # MRD is never much worse than LQD at any skew (the paper: "never
    # explicitly worse").
    for point in result.points:
        assert point.mrd_advantage > -0.1, point.skew


def test_horizon_convergence(benchmark):
    config = SwitchConfig.contiguous(8, 64)
    trace = columnar_processing_workload(
        config, max(4 * BENCH_SLOTS, 3000), load=3.0, seed=1
    ).to_trace()

    profile = run_once(
        benchmark,
        lambda: convergence_profile(
            make_policy("LWD"), trace, config, flush_every=500
        ),
    )
    print("\n=== cumulative ratio vs horizon (LWD) ===")
    print(profile.format_table())
    settled = profile.settled_after(tolerance=0.05)
    print(f"settled (5% band) after {settled} slots")
    benchmark.extra_info["settled_after"] = settled
    assert settled is not None
    assert settled <= trace.n_slots


def test_buffer_sharing_spectrum(benchmark):
    config = SwitchConfig.contiguous(8, 64)
    trace = columnar_processing_workload(
        config, max(BENCH_SLOTS, 1200), load=3.0, seed=2
    ).to_trace()

    profiles = run_once(
        benchmark,
        lambda: compare_sharing(
            ("NEST", "NHDT", "LQD", "LWD", "BPD"), trace, config
        ),
    )
    print("\n=== buffer sharing: utilization / sharing index ===")
    for profile in profiles:
        print(f"  {profile.summary()}")
    by_name = {p.policy_name: p for p in profiles}
    # Partitioning (NEST) utilizes the least; push-out policies the most.
    assert by_name["NEST"].utilization < by_name["LWD"].utilization
    assert by_name["NEST"].utilization < by_name["LQD"].utilization
