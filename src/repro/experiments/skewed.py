"""Skewed port-value distributions (Section V-C's closing observation).

The paper reports that *"MRD is never explicitly worse than LQD, and its
advantage grows for distributions that prioritize certain values at
specific queues."* This experiment makes that claim quantitative: in the
value=port regime, traffic sources are assigned to ports with weights
``w_i ∝ value_i^s``; ``s = 0`` is the uniform assignment of Fig. 5 panels
7-9, positive ``s`` concentrates traffic on the high-value ports, negative
``s`` on the low-value ones. For each skew we measure the full value-model
policy line-up and, in particular, the LQD-to-MRD ratio gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

try:  # pure-stdlib installs can still import the module
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.analysis.competitive import measure_competitive_ratio
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.policies import make_policy
from repro.traffic.columnar import columnar_value_port_workload

#: Default skew grid: cheap-heavy ... uniform ... expensive-heavy.
DEFAULT_SKEWS: Tuple[float, ...] = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)



def _require_numpy() -> None:
    if np is None:
        raise ConfigError(
            "the skew sweep needs numpy (its draws are pinned to "
            "numpy.random.default_rng); install numpy to use it"
        )

@dataclass(frozen=True)
class SkewPoint:
    """Measurements at one skew exponent."""

    skew: float
    ratios: Dict[str, float]

    @property
    def mrd_advantage(self) -> float:
        """How much worse LQD is than MRD at this skew (>= 0 supports
        the paper's claim)."""
        return self.ratios["LQD-V"] - self.ratios["MRD"]


@dataclass
class SkewSweepResult:
    """All skew measurements plus formatting helpers."""

    k: int
    buffer_size: int
    points: List[SkewPoint]

    def format_table(self) -> str:
        policies = list(self.points[0].ratios)
        header = ["    skew"] + [p.rjust(9) for p in policies] + [
            "  LQD-MRD"
        ]
        lines = ["  ".join(header)]
        for point in self.points:
            cells = [f"{point.skew:8.2f}"]
            cells.extend(
                f"{point.ratios[p]:9.4f}" for p in policies
            )
            cells.append(f"{point.mrd_advantage:9.4f}")
            lines.append("  ".join(cells))
        return "\n".join(lines)


def skew_weights(config: SwitchConfig, skew: float) -> np.ndarray:
    """Source-assignment weights ``value_i ** skew`` (uniform at 0)."""
    _require_numpy()
    values = np.asarray(config.values, dtype=float)
    return values ** skew


def run_skew_sweep(
    *,
    k: int = 8,
    buffer_size: int = 64,
    n_slots: int = 2000,
    load: float = 3.0,
    skews: Sequence[float] = DEFAULT_SKEWS,
    policies: Optional[Sequence[str]] = None,
    seed: int = 0,
    flush_every: Optional[int] = 500,
) -> SkewSweepResult:
    """Measure value-model policies across port-assignment skews.

    The policy set defaults to LQD-V, MVD, MVD1 and MRD (the paper's
    push-out line-up); any value-model registry names are accepted.
    """
    if not skews:
        raise ConfigError("skew sweep needs at least one skew value")
    names = tuple(policies) if policies else ("LQD-V", "MVD", "MVD1", "MRD")
    if "LQD-V" not in names or "MRD" not in names:
        raise ConfigError(
            "the skew sweep tracks the LQD-V vs MRD gap; include both"
        )
    config = SwitchConfig.value_contiguous(k, buffer_size)
    points: List[SkewPoint] = []
    for skew in skews:
        trace = columnar_value_port_workload(
            config,
            n_slots,
            load=load,
            seed=seed,
            port_weights=skew_weights(config, skew),
        )
        ratios = {
            name: measure_competitive_ratio(
                make_policy(name), trace, config,
                by_value=True, flush_every=flush_every,
            ).ratio
            for name in names
        }
        points.append(SkewPoint(skew=float(skew), ratios=ratios))
    return SkewSweepResult(k=k, buffer_size=buffer_size, points=points)
