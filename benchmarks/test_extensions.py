"""Benchmarks for the extension policies and the conjecture probe.

These quantify the claims EXPERIMENTS.md makes about material beyond the
paper: NHDT-W's improvement on the open NHDT-generalization problem, the
"never empty a queue" refinement applied to the good policies, and the
exact-OPT conjecture probe for MRD.
"""

import pytest

from repro.analysis.competitive import measure_competitive_ratio
from repro.analysis.conjecture import adversarial_search, probe_policy
from repro.core.config import SwitchConfig
from repro.policies import make_policy
from repro.traffic.adversarial import thm3_nhdt
from repro.traffic.columnar import (
    columnar_processing_workload,
    columnar_value_port_workload,
)

from conftest import BENCH_SLOTS, run_once


def test_nhdtw_on_theorem3_nemesis(benchmark):
    """NHDT-W vs NHDT on the Theorem 3 adversarial trace."""
    scenario = thm3_nhdt(k=32, buffer_size=960, rounds=1)

    def run():
        return {
            name: measure_competitive_ratio(
                make_policy(name), scenario.trace, scenario.config,
                by_value=False, opt="scripted",
            ).ratio
            for name in ("NHDT", "NHDT-W")
        }

    ratios = run_once(benchmark, run)
    print(
        f"\n=== NHDT-W vs NHDT on Thm 3 trace (k=32) ===\n"
        f"NHDT   : {ratios['NHDT']:.3f}\n"
        f"NHDT-W : {ratios['NHDT-W']:.3f}"
    )
    benchmark.extra_info.update(
        {k: round(v, 4) for k, v in ratios.items()}
    )
    # The work-aware generalization must cut the blow-up by at least half.
    assert ratios["NHDT-W"] < 0.5 * ratios["NHDT"]


def test_nhdtw_on_mmpp(benchmark):
    """NHDT-W should not lose to NHDT on ordinary bursty traffic either."""
    config = SwitchConfig.contiguous(12, 96)
    trace = columnar_processing_workload(
        config, BENCH_SLOTS, load=3.0, seed=0
    )

    def run():
        return {
            name: measure_competitive_ratio(
                make_policy(name), trace, config,
                by_value=False, flush_every=400,
            ).ratio
            for name in ("NHDT", "NHDT-W", "LWD")
        }

    ratios = run_once(benchmark, run)
    print(
        "\n=== NHDT-W vs NHDT on MMPP (k=12) ===\n"
        + "\n".join(f"{k:7s}: {v:.3f}" for k, v in ratios.items())
    )
    assert ratios["NHDT-W"] <= ratios["NHDT"] + 0.05


def test_one_packet_refinement_on_good_policies(benchmark):
    """BPD needs BPD1; do LWD/MRD need LWD1/MRD1? (Answer: barely.)"""
    proc_config = SwitchConfig.contiguous(8, 64)
    proc_trace = columnar_processing_workload(
        proc_config, BENCH_SLOTS, load=3.0, seed=4
    )
    value_config = SwitchConfig.value_contiguous(8, 64)
    value_trace = columnar_value_port_workload(
        value_config, BENCH_SLOTS, load=3.0, seed=4
    )

    def run():
        out = {}
        for name in ("LWD", "LWD1"):
            out[name] = measure_competitive_ratio(
                make_policy(name), proc_trace, proc_config,
                by_value=False, flush_every=400,
            ).ratio
        for name in ("MRD", "MRD1"):
            out[name] = measure_competitive_ratio(
                make_policy(name), value_trace, value_config,
                by_value=True, flush_every=400,
            ).ratio
        return out

    ratios = run_once(benchmark, run)
    print(
        "\n=== 'never empty a queue' refinement ===\n"
        + "\n".join(f"{k:5s}: {v:.3f}" for k, v in ratios.items())
    )
    # The refinement must not break the good policies.
    assert ratios["LWD1"] <= ratios["LWD"] + 0.15
    assert ratios["MRD1"] <= ratios["MRD"] + 0.15


def test_mrd_conjecture_probe(benchmark):
    """Exact worst-case probe of MRD vs the true OPT on tiny instances."""

    def run():
        report = probe_policy("MRD", trials=120, seed=0)
        climbed = adversarial_search(
            "MRD", restarts=3, steps_per_restart=40, seed=0
        )
        return report, climbed

    report, climbed = run_once(benchmark, run)
    print(
        f"\n=== MRD conjecture probe (exact OPT) ===\n"
        f"random sample : {report.summary()}\n"
        f"hill-climb    : worst ratio {climbed.ratio:.4f}"
    )
    benchmark.extra_info["worst_random"] = round(report.worst_ratio, 4)
    benchmark.extra_info["worst_climbed"] = round(climbed.ratio, 4)
    assert max(report.worst_ratio, climbed.ratio) < 2.0
