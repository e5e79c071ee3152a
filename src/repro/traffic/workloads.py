"""Shared calibration of the paper's simulation traffic.

Section V-A: traffic is the interleaving of 500 independent MMPP on-off
sources. The recipes themselves — one generator each for the three rows
of Fig. 5 — live in :mod:`repro.traffic.columnar`
(:func:`~repro.traffic.columnar.processing_slots`,
:func:`~repro.traffic.columnar.value_uniform_slots`,
:func:`~repro.traffic.columnar.value_port_slots` and their collected
``columnar_*_workload`` forms); this module holds what they share: the
source count, the fleet builder and the capacity helpers.

Load calibration: the paper gives intensities only implicitly ("in case of
congestion..."), so generators accept a dimensionless ``load`` — the ratio
of mean offered packets per slot to the switch's maximal service rate
(``C * sum_i 1/w_i`` for the processing model, ``n * C`` for the value
model). ``load > 1`` produces sustained congestion, which is where the
policies differ.

Burstiness calibration: buffer-management policies only separate when
per-port traffic is *intermittent* — under smooth sustained overload every
work-conserving policy keeps all ports busy and throughputs coincide. The
default duty cycle (ON 20 slots of every ~2000) concentrates each source's
traffic into rare intense bursts, so queues drain between bursts and the
policies' buffer-allocation choices decide which ports starve. This regime
reproduces the orderings of the paper's Fig. 5; smoother settings compress
all curves towards 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import SwitchConfig
from repro.traffic.mmpp import MmppFleet, MmppParams

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: The paper's source count (Section V-A).
DEFAULT_SOURCES = 500


def _fleet(
    n_sources: int,
    mean_per_slot: float,
    rng: np.random.Generator,
    mean_on_slots: float,
    mean_off_slots: float,
) -> MmppFleet:
    """Build a fleet whose aggregate mean rate is ``mean_per_slot``."""
    params_probe = MmppParams(
        rate_on=1.0,
        mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots,
    )
    stationary_on = params_probe.stationary_on
    rate_on = mean_per_slot / (n_sources * stationary_on)
    params = MmppParams(
        rate_on=rate_on,
        mean_on_slots=mean_on_slots,
        mean_off_slots=mean_off_slots,
    )
    return MmppFleet(n_sources, params, rng)


def processing_capacity(config: SwitchConfig) -> float:
    """Maximal sustained service rate of the processing-model switch:
    every port busy forever transmits ``C / w_i`` packets per slot."""
    return config.speedup * config.inverse_work_sum


def value_capacity(config: SwitchConfig) -> float:
    """Maximal sustained service rate of the value-model switch: each of
    the ``n`` ports transmits up to ``C`` unit-work packets per slot."""
    return float(config.n_ports * config.speedup)
