#!/usr/bin/env python3
"""Run a Fig. 5 measurement at (or toward) the paper's 2*10^6-slot scale.

The default examples use a few thousand slots; this one shows how to go
all the way. The MMPP recipe's per-slot generator
(repro.traffic.columnar.processing_slots — the same code that builds
the collected Fig. 5 traces) yields each slot's columns on the fly, and
repro.analysis.streaming builds that slot's packets and feeds the policy
and the OPT surrogate lock-step, so memory stays constant regardless of
horizon, and checkpoints record the cumulative ratio's convergence along
the way.

Run:  python examples/paper_scale_run.py [n_slots]
      (default 50,000 — a couple of minutes; pass 2000000 for the full
       paper horizon if you have the patience)
"""

import sys
import time

from repro.analysis.streaming import stream_competitive
from repro.core.config import SwitchConfig
from repro.policies import make_policy
from repro.traffic.columnar import processing_slots
from repro.viz import sparkline


def main() -> None:
    n_slots = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    config = SwitchConfig.contiguous(k=12, buffer_size=96)
    print(f"switch : {config.describe()}")
    print(f"horizon: {n_slots} slots (paper: 2,000,000)")

    for name in ("LWD", "LQD", "BPD"):
        start = time.perf_counter()
        result = stream_competitive(
            make_policy(name),
            config,
            processing_slots(config, n_slots, load=3.0, seed=7),
            flush_every=500,
            checkpoint_every=max(n_slots // 20, 1),
        )
        elapsed = time.perf_counter() - start
        ratios = [c.ratio for c in result.checkpoints]
        print(
            f"{name:4s}: ratio {result.ratio:.4f}  "
            f"({elapsed:6.1f}s, {n_slots / elapsed:,.0f} slots/s)  "
            f"convergence {sparkline(ratios)}"
        )


if __name__ == "__main__":
    main()
