"""Lock-step streaming competitive measurement (paper-scale runs).

:func:`repro.analysis.competitive.measure_competitive_ratio` replays a
materialized trace twice (once per system). For paper-scale horizons the
trace itself is the memory bottleneck, so this runner consumes a
recipe's per-slot column stream (e.g.
:func:`repro.traffic.columnar.processing_slots`, the same generator a
collected ``columnar_*_workload`` trace comes from) exactly once,
builds one slot's packets at a time, and feeds the online policy and
the OPT surrogate that burst in lock-step. Memory is O(switch state);
2*10^6-slot runs are just time.

Checkpoints (cumulative ratio every ``checkpoint_every`` slots) come for
free from the single pass, so long runs double as convergence profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.analysis.competitive import PolicySystem
from repro.analysis.convergence import ConvergencePoint
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet
from repro.core.switch import AdmissionPolicy
from repro.opt.surrogate import System, make_surrogate
from repro.traffic.columnar import SlotColumns


@dataclass
class StreamResult:
    """Outcome of one streaming lock-step run."""

    policy_name: str
    slots: int
    by_value: bool
    alg_metrics: SwitchMetrics
    opt_metrics: SwitchMetrics
    checkpoints: List[ConvergencePoint] = field(default_factory=list)

    @property
    def alg_objective(self) -> float:
        return self.alg_metrics.objective(self.by_value)

    @property
    def opt_objective(self) -> float:
        return self.opt_metrics.objective(self.by_value)

    @property
    def ratio(self) -> float:
        if self.alg_objective <= 0:
            return float("inf") if self.opt_objective > 0 else 1.0
        return self.opt_objective / self.alg_objective

    def summary(self) -> str:
        return (
            f"{self.policy_name}: ratio={self.ratio:.4f} over "
            f"{self.slots} slots (ALG={self.alg_objective:.1f}, "
            f"OPT={self.opt_objective:.1f})"
        )


def stream_competitive(
    policy: AdmissionPolicy,
    config: SwitchConfig,
    slot_stream: Iterable[SlotColumns],
    *,
    by_value: Optional[bool] = None,
    flush_every: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
) -> StreamResult:
    """Feed one streaming workload to ALG and the OPT surrogate lock-step.

    Parameters mirror :func:`~repro.analysis.competitive.
    measure_competitive_ratio`; ``slot_stream`` yields each slot's
    ``(ports, works, values)`` columns and is consumed exactly once, so
    pass a fresh generator (e.g. :func:`repro.traffic.columnar.
    processing_slots`).
    """
    if by_value is None:
        by_value = config.discipline is QueueDiscipline.PRIORITY
    if flush_every is not None and flush_every < 1:
        raise ConfigError(f"flush_every must be >= 1, got {flush_every}")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ConfigError(
            f"checkpoint_every must be >= 1, got {checkpoint_every}"
        )

    alg: System = PolicySystem(config, policy)
    opt: System = make_surrogate(config, by_value)
    checkpoints: List[ConvergencePoint] = []
    slots = 0
    for ports, works, values in slot_stream:
        burst = [
            Packet(port=port, work=work, value=value, arrival_slot=slots)
            for port, work, value in zip(
                ports.tolist(), works.tolist(), values.tolist()
            )
        ]
        alg.run_slot(burst)
        opt.run_slot(burst)
        slots += 1
        if flush_every is not None and slots % flush_every == 0:
            alg.flush()
            opt.flush()
        if checkpoint_every is not None and slots % checkpoint_every == 0:
            checkpoints.append(
                ConvergencePoint(
                    slots=slots,
                    alg_objective=alg.metrics.objective(by_value),
                    opt_objective=opt.metrics.objective(by_value),
                )
            )
    return StreamResult(
        policy_name=getattr(policy, "name", type(policy).__name__),
        slots=slots,
        by_value=by_value,
        alg_metrics=alg.metrics,
        opt_metrics=opt.metrics,
        checkpoints=checkpoints,
    )
