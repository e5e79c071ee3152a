#!/usr/bin/env python3
"""Extend the library with a custom buffer-management policy.

Implements a policy the paper does not study — Longest-Expected-Delay-
Drop (LEDD), which pushes out from the queue whose *tail packet* would
wait longest before transmitting (queue length times per-packet work) —
plugs it into the competitive-ratio harness next to LWD and LQD, and
compares the three on the paper's traffic. The point is the API shape:
a policy is ~15 lines, and everything else (engine, OPT surrogate,
workloads, sweeps) is reused.

Run:  python examples/custom_policy.py
"""

from repro import (
    SwitchConfig,
    columnar_processing_workload,
    measure_competitive_ratio,
)
from repro.core.decisions import DROP, Decision, push_out
from repro.core.packet import Packet
from repro.core.switch import SwitchView
from repro.policies import make_policy
from repro.policies.base import PushOutPolicy


class LEDD(PushOutPolicy):
    """Longest-Expected-Delay-Drop: evict where the tail waits longest.

    The tail of queue j waits roughly ``|Q_j| * w_j`` slots before
    transmitting; under congestion that packet is the least likely to be
    worth its buffer slot. Ties break towards larger work, then larger
    port index (deterministic runs).
    """

    name = "LEDD"

    def congested(self, view: SwitchView, packet: Packet) -> Decision:
        own_delay = (
            (view.queue_len(packet.port) + 1) * view.work_of(packet.port)
        )
        best_port, best_key = packet.port, (own_delay, view.work_of(packet.port), packet.port)
        for port in range(view.n_ports):
            if port == packet.port:
                continue
            delay = view.queue_len(port) * view.work_of(port)
            key = (delay, view.work_of(port), port)
            if key > best_key:
                best_port, best_key = port, key
        if best_port == packet.port:
            return DROP
        return push_out(best_port)


def main() -> None:
    config = SwitchConfig.contiguous(k=10, buffer_size=80)
    trace = columnar_processing_workload(
        config, n_slots=4000, load=3.0, seed=9
    )
    print(f"switch: {config.describe()}")
    print(f"trace : {trace.total_packets} packets over {trace.n_slots} slots\n")

    contenders = [LEDD(), make_policy("LWD"), make_policy("LQD")]
    for policy in contenders:
        result = measure_competitive_ratio(
            policy, trace, config, flush_every=800
        )
        print(f"{policy.name:5s}: competitive ratio {result.ratio:.3f}")

    print(
        "\nLEDD weighs queue length by per-packet work like LWD weighs "
        "total residual work; on bursty traffic the two typically land "
        "close together, and both beat work-oblivious LQD."
    )


if __name__ == "__main__":
    main()
