"""The farm ledger: counters of everything the coordinator absorbed.

The farm analogue of
:class:`~repro.resilience.supervisor.ResilienceStats` — one integer per
recovery mechanism, all zero on a clean run, carried on
:class:`~repro.analysis.sweep.SweepStats` and folded into the sweep's
counter registry under ``farm.*`` names. ``repro farm status`` serves
the same counters live, and the report table totals them per panel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Counter fields, in display order. Kept explicit (rather than
#: ``dataclasses.fields``) because the ledger also carries the
#: non-counter per-worker stage map.
_COUNTERS = (
    "workers_joined",
    "workers_lost",
    "leases_issued",
    "leases_reissued",
    "leases_expired",
    "heartbeats_missed",
    "results_rejected",
    "duplicate_results",
    "cells_farmed",
    "fallback_cells",
    "joins_timed_out",
)


@dataclass
class FarmStats:
    """What the farm did and what it had to absorb.

    ``leases_reissued`` counts replacement leases after loss or expiry;
    ``leases_expired`` counts leases that blew their TTL while their
    worker kept heartbeating (the stale-heartbeat case — liveness is
    not progress); ``heartbeats_missed`` counts workers declared lost
    for heartbeat silence; ``results_rejected`` counts payloads that
    failed validation or transport-digest checks; ``duplicate_results``
    counts redundant deliveries that passed the digest-equality
    determinism check; ``fallback_cells`` counts cells handed down to
    the local pool/serial chain when the farm could not finish them;
    ``joins_timed_out`` counts coordinator threads (accept loop,
    readers) still alive after their bounded join at teardown.
    """

    workers_joined: int = 0
    workers_lost: int = 0
    leases_issued: int = 0
    leases_reissued: int = 0
    leases_expired: int = 0
    heartbeats_missed: int = 0
    results_rejected: int = 0
    duplicate_results: int = 0
    cells_farmed: int = 0
    fallback_cells: int = 0
    joins_timed_out: int = 0
    #: Per-worker accumulated stage seconds (``trace_gen`` etc.), keyed
    #: by worker name — observability only, never part of any digest.
    worker_stages: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )

    def any(self) -> bool:
        return any(getattr(self, name) for name in _COUNTERS)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTERS}

    def add_worker_stages(
        self, worker: str, stages: Dict[str, float]
    ) -> None:
        into = self.worker_stages.setdefault(worker, {})
        for stage, seconds in stages.items():
            into[stage] = into.get(stage, 0.0) + float(seconds)

    def merge_into(self, registry) -> None:
        """Fold nonzero counters into a CounterRegistry as
        ``farm.<name>``."""
        for name, amount in self.as_dict().items():
            if amount:
                registry.incr(f"farm.{name}", amount)

    def merge_from(self, other: "FarmStats") -> None:
        """Accumulate another ledger (the report totals panels)."""
        for name in _COUNTERS:
            setattr(
                self, name, getattr(self, name) + getattr(other, name)
            )
        for worker, stages in other.worker_stages.items():
            self.add_worker_stages(worker, stages)

    def summary(self) -> str:
        """Compact one-liner, e.g. ``2 workers, 9 leases, 1 reissued``."""
        parts = []
        for name, label in (
            ("workers_joined", "workers"),
            ("workers_lost", "lost"),
            ("cells_farmed", "cells farmed"),
            ("leases_issued", "leases"),
            ("leases_reissued", "reissued"),
            ("leases_expired", "expired"),
            ("heartbeats_missed", "heartbeats missed"),
            ("results_rejected", "rejected"),
            ("duplicate_results", "duplicates verified"),
            ("fallback_cells", "fell back"),
            ("joins_timed_out", "joins timed out"),
        ):
            amount = getattr(self, name)
            if amount:
                parts.append(f"{amount} {label}")
        return ", ".join(parts) if parts else "idle"
