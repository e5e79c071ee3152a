#!/usr/bin/env python3
"""How robust is 'LWD wins' to the choice of traffic model?

Fig. 5's conclusions are measured under one traffic family (MMPP on-off
sources). This example re-measures the processing-model policy line-up
under four structurally different generators — the paper's MMPP,
memoryless Poisson, deterministic rotating bursts, and heavy-tailed
Pareto bursts — and then shows *where the differences come from* with a
buffer-sharing profile: which fraction of the shared buffer each policy
actually uses, and how evenly it splits it across ports.

Run:  python examples/robustness_study.py
"""

from repro.analysis.occupancy import compare_sharing
from repro.core.config import SwitchConfig
from repro.experiments.robustness import run_robustness_study
from repro.traffic.columnar import columnar_processing_workload


def main() -> None:
    print("== competitive ratio by traffic family ==")
    result = run_robustness_study(
        k=8, buffer_size=64, n_slots=1500, load=3.0, seed=0
    )
    print(result.format_table())
    for family in result.ratios:
        print(f"  best under {family:9s}: {result.best_policy(family)}")
    print(
        "\nUnder smooth Poisson overload all work-conserving policies "
        "tie — no port ever starves, so admission barely matters. Under "
        "every bursty family LWD keeps its lead.\n"
    )

    print("== buffer sharing (same MMPP trace for all policies) ==")
    config = SwitchConfig.contiguous(8, 64)
    trace = columnar_processing_workload(
        config, 1500, load=3.0, seed=0
    ).to_trace()
    for profile in compare_sharing(
        ("NEST", "NHDT", "LQD", "LWD", "BPD"), trace, config
    ):
        shares = " ".join(f"{s:.2f}" for s in profile.shares)
        print(f"  {profile.summary()}  shares=[{shares}]")
    print(
        "\nNEST sits at the complete-partitioning end (even shares, "
        "wasted space); the push-out policies fill the buffer; LWD's "
        "per-port shares decay with the port's work — equal *work* per "
        "queue, which is exactly its design."
    )


if __name__ == "__main__":
    main()
