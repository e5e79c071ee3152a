"""Traffic generation: traces, MMPP sources, workloads, adversarial inputs."""

from repro.traffic.adversarial import (
    ALL_SCENARIOS,
    AdversarialScenario,
    thm1_nhst,
    thm3_nhdt,
    thm4_lqd,
    thm5_bpd,
    thm6_lwd,
    thm9_lqd_value,
    thm10_mvd,
    thm11_mrd,
)
from repro.traffic.dynamic import (
    DYNAMIC_SCENARIOS,
    lqd_churn_collapse,
    lqd_oversubscription_squeeze,
    oversubscription_spike_workload,
    port_flap_workload,
)
from repro.traffic.columnar import (
    ColumnarTrace,
    columnar_poisson_workload,
    columnar_processing_workload,
    columnar_saturating_workload,
    columnar_value_port_workload,
    columnar_value_uniform_workload,
    processing_slots,
    value_port_slots,
    value_uniform_slots,
)
from repro.traffic.mmpp import MmppFleet, MmppParams, MmppSource
from repro.traffic.patterns import (
    heavy_tailed_workload,
    mixed_trace,
    periodic_burst_workload,
    thin_trace,
)
from repro.traffic.trace import Trace, burst
from repro.traffic.workloads import (
    DEFAULT_SOURCES,
    processing_capacity,
    value_capacity,
)

__all__ = [
    "ALL_SCENARIOS",
    "AdversarialScenario",
    "ColumnarTrace",
    "DEFAULT_SOURCES",
    "DYNAMIC_SCENARIOS",
    "MmppFleet",
    "MmppParams",
    "MmppSource",
    "Trace",
    "burst",
    "columnar_poisson_workload",
    "columnar_processing_workload",
    "columnar_saturating_workload",
    "columnar_value_port_workload",
    "columnar_value_uniform_workload",
    "heavy_tailed_workload",
    "lqd_churn_collapse",
    "lqd_oversubscription_squeeze",
    "mixed_trace",
    "oversubscription_spike_workload",
    "periodic_burst_workload",
    "port_flap_workload",
    "processing_capacity",
    "processing_slots",
    "thin_trace",
    "thm10_mvd",
    "thm11_mrd",
    "thm1_nhst",
    "thm3_nhdt",
    "thm4_lqd",
    "thm5_bpd",
    "thm6_lwd",
    "thm9_lqd_value",
    "value_capacity",
    "value_port_slots",
    "value_uniform_slots",
]
