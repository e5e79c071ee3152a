"""shmem-switch: shared memory buffer management for heterogeneous packet
processing.

A complete reproduction of Eugster, Kogan, Nikolenko & Sirotkin,
*"Shared Memory Buffer Management for Heterogeneous Packet Processing"*
(ICDCS 2014): the slotted shared-memory switch model, every buffer-
management policy the paper analyzes (including the 2-competitive
Longest-Work-Drop policy and the conjectured-constant Maximal-Ratio-Drop
policy), the OPT references, MMPP traffic generation, the adversarial
lower-bound constructions of Theorems 1-11, and the Fig. 5 simulation
study.

Quickstart
----------
>>> from repro import (
...     SwitchConfig, LWD, columnar_processing_workload,
...     measure_competitive_ratio,
... )
>>> config = SwitchConfig.contiguous(k=8, buffer_size=64)
>>> trace = columnar_processing_workload(config, 500, load=2.0, seed=1)
>>> result = measure_competitive_ratio(LWD(), trace, config)
>>> result.ratio >= 1.0
True
"""

from repro.analysis import (
    CompetitiveResult,
    PolicySystem,
    SweepResult,
    measure_competitive_ratio,
    run_scenario,
    run_sweep,
    run_system,
)
from repro.core import (
    ACCEPT,
    DROP,
    Action,
    ConfigError,
    Decision,
    Packet,
    PolicyError,
    PortSpec,
    QueueDiscipline,
    ReproError,
    ResilienceError,
    SharedMemorySwitch,
    SweepExecutionError,
    SweepInterrupted,
    SwitchConfig,
    SwitchMetrics,
    SwitchView,
    TraceError,
    push_out,
)
from repro.opt import (
    MaxValueSurrogate,
    ScriptedPolicy,
    SrptSurrogate,
    TinyInstance,
    exhaustive_opt,
    make_surrogate,
)
from repro.policies import (
    BPD,
    BPD1,
    LQD,
    LWD,
    MRD,
    MVD,
    MVD1,
    NEST,
    NHDT,
    NHST,
    GreedyNonPushOut,
    LQDValue,
    NHSTValue,
    Policy,
    available_policies,
    make_policy,
)
from repro.resilience import (
    FaultInjector,
    InjectedFault,
    ResilienceStats,
    RunJournal,
    SupervisorOptions,
)
from repro.traffic import (
    AdversarialScenario,
    MmppFleet,
    MmppParams,
    MmppSource,
    Trace,
    burst,
    columnar_processing_workload,
    columnar_value_port_workload,
    columnar_value_uniform_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ACCEPT",
    "AdversarialScenario",
    "Action",
    "BPD",
    "BPD1",
    "CompetitiveResult",
    "ConfigError",
    "DROP",
    "Decision",
    "FaultInjector",
    "GreedyNonPushOut",
    "InjectedFault",
    "LQD",
    "LQDValue",
    "LWD",
    "MRD",
    "MVD",
    "MVD1",
    "MaxValueSurrogate",
    "MmppFleet",
    "MmppParams",
    "MmppSource",
    "NEST",
    "NHDT",
    "NHST",
    "NHSTValue",
    "Packet",
    "Policy",
    "PolicyError",
    "PolicySystem",
    "PortSpec",
    "QueueDiscipline",
    "ReproError",
    "ResilienceError",
    "ResilienceStats",
    "RunJournal",
    "ScriptedPolicy",
    "SharedMemorySwitch",
    "SrptSurrogate",
    "SupervisorOptions",
    "SweepExecutionError",
    "SweepInterrupted",
    "SweepResult",
    "SwitchConfig",
    "SwitchMetrics",
    "SwitchView",
    "TinyInstance",
    "Trace",
    "TraceError",
    "available_policies",
    "burst",
    "columnar_processing_workload",
    "columnar_value_port_workload",
    "columnar_value_uniform_workload",
    "exhaustive_opt",
    "make_policy",
    "make_surrogate",
    "measure_competitive_ratio",
    "push_out",
    "run_scenario",
    "run_sweep",
    "run_system",
    "__version__",
]
