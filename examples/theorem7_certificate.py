#!/usr/bin/env python3
"""Run the paper's Theorem 7 proof as an executable certificate.

Theorem 7 — the paper's main result — proves LWD is at most 2-competitive
by mapping every packet OPT transmits onto a packet LWD transmits (at
most two per LWD packet; Fig. 3 and Lemma 8 of the paper). This example
maintains that mapping *online* while LWD runs lock-step against:

1. the clairvoyant OPT strategies from the paper's own lower-bound
   proofs (scripted admission plans) — where every invariant of Lemma 8
   verifies, step by step;
2. arbitrary non-push-out reference schedules (NEST, NHDT) on random
   bursty traffic — where the 2x accounting always holds, but the
   checker surfaces an interesting subtlety: Lemma 8's intermediate
   latency invariant can invert when LWD pushes out a partially
   processed packet and later re-admits a fresh one to the same port.
   (The proof only claims the lemma for the *optimal* schedule; our
   runs show which of its steps rely on that.)

Run:  python examples/theorem7_certificate.py
"""

from repro.analysis.mapping import certify_lwd
from repro.core.config import SwitchConfig
from repro.opt.scripted import ScriptedPolicy
from repro.policies import make_policy
from repro.traffic.adversarial import thm4_lqd, thm5_bpd, thm6_lwd
from repro.traffic.columnar import columnar_processing_workload


def main() -> None:
    print("== 1. Against the proofs' own clairvoyant OPT strategies ==")
    scenarios = [
        ("Theorem 6 trace (LWD's own nemesis)",
         thm6_lwd(buffer_size=96, rounds=2)),
        ("Theorem 4 trace (LQD's nemesis)",
         thm4_lqd(k=9, buffer_size=108, rounds=1)),
        ("Theorem 5 trace (BPD's nemesis)",
         thm5_bpd(k=5, buffer_size=30, n_slots=150)),
    ]
    for label, scenario in scenarios:
        report = certify_lwd(scenario.trace, scenario.config, ScriptedPolicy())
        print(f"  {label}:")
        print(f"    {report.summary()}")

    print("\n== 2. Against arbitrary non-push-out references ==")
    config = SwitchConfig.contiguous(5, 20)
    lemma_warnings = 0
    runs = 0
    for seed in range(6):
        trace = columnar_processing_workload(
            config, 150, load=4.0, seed=seed,
            mean_on_slots=8, mean_off_slots=72, n_sources=25,
        ).to_trace()
        for ref_name in ("NEST", "NHDT"):
            report = certify_lwd(trace, config, make_policy(ref_name))
            runs += 1
            assert report.certified, "2x accounting must always hold"
            if not report.lemma_clean:
                lemma_warnings += 1
    print(f"  {runs} random runs: 2x accounting certified in all;")
    print(
        f"  {lemma_warnings} runs produced lemma-layer latency inversions "
        "(see repro/analysis/mapping.py for the mechanism)"
    )


if __name__ == "__main__":
    main()
