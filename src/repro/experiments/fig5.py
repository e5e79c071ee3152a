"""The nine panels of the paper's Fig. 5 as declarative experiments.

Fig. 5 plots the empirical competitive ratio (vs. the single-PQ OPT
surrogate) under MMPP traffic:

* panels 1-3 — heterogeneous processing model, ratio vs. ``k`` (maximal
  work / number of contiguous ports), ``B`` (buffer), ``C`` (speedup);
* panels 4-6 — value model, port and value uniform at random;
* panels 7-9 — value model, value uniquely determined by the port.

The paper shows parameter details only in (unreproduced) graph captions, so
the exact sweep grids below are our choice; the *shape* claims the paper
makes in Section V (who wins, how curves bend with congestion) are what
EXPERIMENTS.md tracks. ``n_slots`` scales the run length: the paper uses
2*10^6 slots; the defaults here are laptop-scale and already well past the
convergence knee, and any panel can be re-run at paper scale through the
CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.farm.coordinator import FarmOptions

from repro.analysis.cache import SweepCache
from repro.analysis.sweep import ProgressCallback, SweepResult, run_sweep
from repro.analysis.tracestore import TraceKeyFn, TraceStore
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ExperimentError
from repro.resilience import FaultInjector, RunJournal, SupervisorOptions
from repro.traffic.columnar import (
    columnar_processing_workload,
    columnar_value_port_workload,
    columnar_value_uniform_workload,
)
from repro.traffic.workloads import processing_capacity, value_capacity

#: Policy line-ups per traffic regime, mirroring the paper's legends,
#: plus the two dynamic-threshold buffer-sharing policies (Harmonic,
#: DT) the dynamic-scenario family adds to the comparison matrix.
PROCESSING_POLICIES: Tuple[str, ...] = (
    "NHST",
    "NEST",
    "NHDT",
    "LQD",
    "BPD",
    "BPD1",
    "LWD",
    "Harmonic",
    "DT",
)
VALUE_UNIFORM_POLICIES: Tuple[str, ...] = (
    "Greedy",
    "NEST",
    "NHDT",
    "LQD-V",
    "MVD",
    "MVD1",
    "MRD",
    "Harmonic",
    "DT",
)
VALUE_PORT_POLICIES: Tuple[str, ...] = (
    "Greedy",
    "NEST",
    "NHDT",
    "NHST-V",
    "LQD-V",
    "MVD",
    "MVD1",
    "MRD",
    "Harmonic",
    "DT",
)


@dataclass(frozen=True)
class PanelSpec:
    """Declarative description of one Fig. 5 panel."""

    panel: int
    title: str
    model: str  # "processing" | "value-uniform" | "value-port"
    param_name: str  # "k" | "B" | "C"
    param_values: Tuple[int, ...]
    policies: Tuple[str, ...]
    fixed_k: int
    fixed_b: int
    fixed_c: int

    @property
    def experiment_id(self) -> str:
        return f"fig5-{self.panel}"


PANELS: Dict[int, PanelSpec] = {
    1: PanelSpec(
        panel=1,
        title="processing model: ratio vs maximal work k",
        model="processing",
        param_name="k",
        param_values=(2, 4, 6, 8, 12, 16, 24),
        policies=PROCESSING_POLICIES,
        fixed_k=12,
        fixed_b=96,
        fixed_c=1,
    ),
    2: PanelSpec(
        panel=2,
        title="processing model: ratio vs buffer size B",
        model="processing",
        param_name="B",
        param_values=(24, 48, 96, 192, 384, 768),
        policies=PROCESSING_POLICIES,
        fixed_k=12,
        fixed_b=96,
        fixed_c=1,
    ),
    3: PanelSpec(
        panel=3,
        title="processing model: ratio vs speedup C",
        model="processing",
        param_name="C",
        param_values=(1, 2, 3, 4, 6, 8),
        policies=PROCESSING_POLICIES,
        fixed_k=12,
        fixed_b=96,
        fixed_c=1,
    ),
    4: PanelSpec(
        panel=4,
        title="value model (uniform): ratio vs maximal value k",
        model="value-uniform",
        param_name="k",
        param_values=(2, 4, 8, 16, 32, 64),
        policies=VALUE_UNIFORM_POLICIES,
        fixed_k=16,
        fixed_b=96,
        fixed_c=1,
    ),
    5: PanelSpec(
        panel=5,
        title="value model (uniform): ratio vs buffer size B",
        model="value-uniform",
        param_name="B",
        param_values=(16, 32, 64, 128, 256, 512),
        policies=VALUE_UNIFORM_POLICIES,
        fixed_k=16,
        fixed_b=96,
        fixed_c=1,
    ),
    6: PanelSpec(
        panel=6,
        title="value model (uniform): ratio vs speedup C",
        model="value-uniform",
        param_name="C",
        param_values=(1, 2, 3, 4, 6, 8),
        policies=VALUE_UNIFORM_POLICIES,
        fixed_k=16,
        fixed_b=96,
        fixed_c=1,
    ),
    7: PanelSpec(
        panel=7,
        title="value model (value=port): ratio vs maximal value k",
        model="value-port",
        param_name="k",
        param_values=(2, 4, 8, 12, 16, 24),
        policies=VALUE_PORT_POLICIES,
        fixed_k=12,
        fixed_b=96,
        fixed_c=1,
    ),
    8: PanelSpec(
        panel=8,
        title="value model (value=port): ratio vs buffer size B",
        model="value-port",
        param_name="B",
        param_values=(24, 48, 96, 192, 384, 768),
        policies=VALUE_PORT_POLICIES,
        fixed_k=12,
        fixed_b=96,
        fixed_c=1,
    ),
    9: PanelSpec(
        panel=9,
        title="value model (value=port): ratio vs speedup C",
        model="value-port",
        param_name="C",
        param_values=(1, 2, 3, 4, 6, 8),
        policies=VALUE_PORT_POLICIES,
        fixed_k=12,
        fixed_b=96,
        fixed_c=1,
    ),
}


def _panel_factories(
    spec: PanelSpec,
    n_slots: int,
    load: float,
) -> Tuple[Callable, Callable, TraceKeyFn]:
    """Build (config_factory, trace_factory, trace_key) for one panel.

    ``trace_factory`` calls the panel's MMPP generator
    (:mod:`repro.traffic.columnar`) through this module's namespace, so
    a wrapper installed here sees every generation. ``trace_key`` maps a
    cell to its trace's *content key* — a string over exactly the inputs
    the cell's generator consumes (recipe, slot count, effective rate,
    port layout, seed), so cells whose keys match provably generate
    identical packet streams. Buffer size never enters a key (no MMPP
    generator reads ``B``), and speedup sweeps share one key across all
    ``C`` because their offered rate is anchored — which is what lets
    the trace store collapse a whole B- or C-sweep row to one
    generation per seed.
    """

    def dims(v: float) -> Tuple[int, int, int]:
        k, b, c = spec.fixed_k, spec.fixed_b, spec.fixed_c
        if spec.param_name == "k":
            k = int(v)
        elif spec.param_name == "B":
            b = int(v)
        elif spec.param_name == "C":
            c = int(v)
        else:  # pragma: no cover - specs are static
            raise ExperimentError(f"bad sweep parameter {spec.param_name}")
        return k, b, c

    # Speedup sweeps keep the *offered* traffic fixed while capacity grows
    # with C (otherwise congestion would be constant and the sweep flat);
    # the rate is anchored at the panel's fixed dimensions with C = 1.
    sweep_c = spec.param_name == "C"

    if spec.model == "processing":

        def config_factory(v: float) -> SwitchConfig:
            k, b, c = dims(v)
            return SwitchConfig.contiguous(k, max(b, k), speedup=c)

        anchor = SwitchConfig.contiguous(
            spec.fixed_k, max(spec.fixed_b, spec.fixed_k), speedup=1
        )
        anchor_rate = load * processing_capacity(anchor)

        def trace_factory(config: SwitchConfig, v: float, seed: int):
            if sweep_c:
                return columnar_processing_workload(
                    config, n_slots, absolute_rate=anchor_rate, seed=seed
                )
            return columnar_processing_workload(
                config, n_slots, load=load, seed=seed
            )

        def trace_key(
            config: SwitchConfig, v: float, seed: int
        ) -> Optional[str]:
            rate = (
                anchor_rate
                if sweep_c
                else load * processing_capacity(config)
            )
            works = ",".join(str(w) for w in config.works)
            return (
                f"mmpp-500-v1|proc|slots={n_slots}|rate={rate!r}"
                f"|ports={config.n_ports}|works={works}|seed={seed}"
            )

    elif spec.model == "value-uniform":
        # The uniform regime follows the paper's reading that k scales the
        # switch: k output ports, values uniform on 1..k, and a *fixed*
        # offered rate, so growing k reduces congestion (Section V-C).
        anchor_rate = load * spec.fixed_k  # capacity at fixed k, C = 1

        def config_factory(v: float) -> SwitchConfig:
            k, b, c = dims(v)
            return SwitchConfig.uniform(
                k,
                max(b, k),
                work=1,
                speedup=c,
                discipline=QueueDiscipline.PRIORITY,
            )

        def trace_factory(config: SwitchConfig, v: float, seed: int):
            k, _b, _c = dims(v)
            return columnar_value_uniform_workload(
                config,
                n_slots,
                max_value=k,
                absolute_rate=anchor_rate,
                seed=seed,
            )

        def trace_key(
            config: SwitchConfig, v: float, seed: int
        ) -> Optional[str]:
            k, _b, _c = dims(v)
            return (
                f"mmpp-500-v1|vu|slots={n_slots}|rate={anchor_rate!r}"
                f"|ports={config.n_ports}|maxv={k}|seed={seed}"
            )

    elif spec.model == "value-port":

        def config_factory(v: float) -> SwitchConfig:
            k, b, c = dims(v)
            return SwitchConfig.value_contiguous(k, max(b, k), speedup=c)

        anchor_rate = load * spec.fixed_k  # capacity at fixed k, C = 1

        def trace_factory(config: SwitchConfig, v: float, seed: int):
            if sweep_c:
                return columnar_value_port_workload(
                    config, n_slots, absolute_rate=anchor_rate, seed=seed
                )
            return columnar_value_port_workload(
                config, n_slots, load=load, seed=seed
            )

        def trace_key(
            config: SwitchConfig, v: float, seed: int
        ) -> Optional[str]:
            rate = (
                anchor_rate if sweep_c else load * value_capacity(config)
            )
            values = ",".join(repr(x) for x in config.values)
            return (
                f"mmpp-500-v1|vport|slots={n_slots}|rate={rate!r}"
                f"|ports={config.n_ports}|values={values}|seed={seed}"
            )

    else:  # pragma: no cover - specs are static
        raise ExperimentError(f"unknown panel model {spec.model!r}")

    return config_factory, trace_factory, trace_key


def panel_cache_token(
    spec: PanelSpec, n_slots: int, load: float
) -> Dict[str, object]:
    """The content-address component describing a panel's workload.

    Everything the trace generator consumes beyond ``(config, value,
    seed)`` must appear here — the cache key is only sound if two sweeps
    with equal tokens (and equal configs/values/seeds) generate identical
    traces. ``generator`` names the MMPP recipe so a future change to the
    workload code can invalidate old entries by bumping it.
    """
    return {
        "experiment": spec.experiment_id,
        "model": spec.model,
        "param_name": spec.param_name,
        "n_slots": int(n_slots),
        "load": float(load),
        "generator": "mmpp-500-v1",
    }


def run_panel(
    panel: int,
    *,
    n_slots: int = 2000,
    seeds: Sequence[int] = (0,),
    load: float = 3.0,
    flush_every: Optional[int] = 500,
    policies: Optional[Sequence[str]] = None,
    param_values: Optional[Sequence[float]] = None,
    jobs: Optional[int] = None,
    cache: Optional[SweepCache] = None,
    cache_dir: Optional[Path | str] = None,
    progress: Optional[ProgressCallback] = None,
    resilience: Optional[SupervisorOptions] = None,
    journal: Optional[RunJournal] = None,
    fault_injector: Optional[FaultInjector] = None,
    engine: str = "reference",
    trace_reuse: bool = False,
    trace_store: Optional[TraceStore] = None,
    farm: Optional["FarmOptions"] = None,
) -> SweepResult:
    """Execute one Fig. 5 panel and return its sweep result.

    ``n_slots=2000`` gives a quick but already-converged picture; pass the
    paper's ``2_000_000`` to match Section V-A exactly. At that scale use
    ``jobs`` to fan the panel's (value, seed) cells out over worker
    processes and ``cache``/``cache_dir`` to make the run resumable —
    both preserve byte-identical output (see
    :mod:`repro.analysis.sweep`). ``param_values``/``policies`` restrict
    the sweep grid, e.g. for smoke tests. ``resilience``/``journal``/
    ``fault_injector`` configure the supervised executor — see
    :mod:`repro.resilience` and ``docs/RESILIENCE.md``. ``engine``
    selects the ALG-side simulation engine (``"reference"`` or
    ``"vectorized"``); the engines are decision-identical by contract,
    so the panel's numbers do not depend on the choice. The same
    contract covers ``trace_reuse`` (generate each distinct trace once
    per sweep via a :class:`~repro.analysis.tracestore.TraceStore`;
    pass ``trace_store`` to share one store — and its artifacts —
    across panels): neither changes a single output byte, so neither
    is part of cache keys or journal identity (docs/PIPELINE.md).
    ``farm`` distributes the panel's cells over socket workers
    (:mod:`repro.farm`): the panel builds its own
    :class:`~repro.farm.jobs.FarmJob` — the declarative twin of the
    closures below — so remote workers rebuild bit-identical cell
    functions, and a shared ``cache``/``cache_dir`` doubles as the
    farm's artifact store.
    """
    spec = PANELS.get(panel)
    if spec is None:
        raise ExperimentError(f"Fig. 5 has panels 1-9, not {panel}")
    config_factory, trace_factory, trace_key = _panel_factories(
        spec, n_slots, load
    )
    if trace_reuse and trace_store is None:
        trace_store = TraceStore()
    by_value = spec.model != "processing"
    if cache is None and cache_dir is not None:
        cache = SweepCache(cache_dir)
    values = (
        tuple(param_values) if param_values is not None else spec.param_values
    )
    unknown = set(values) - set(float(v) for v in spec.param_values)
    if param_values is not None and unknown:
        raise ExperimentError(
            f"panel {panel} has no parameter values {sorted(unknown)}; "
            f"grid is {spec.param_values}"
        )
    farm_job = None
    if farm is not None:
        from repro.farm.jobs import FarmJob

        farm_job = FarmJob(
            kind="fig5",
            spec={
                "panel": int(panel),
                "n_slots": int(n_slots),
                "load": float(load),
                "flush_every": flush_every,
                "engine": engine,
                "cache_dir": (
                    str(cache.root) if cache is not None else None
                ),
            },
        )
    return run_sweep(
        name=spec.experiment_id,
        param_name=spec.param_name,
        param_values=values,
        config_factory=config_factory,
        trace_factory=trace_factory,
        policy_names=tuple(policies) if policies else spec.policies,
        seeds=seeds,
        by_value=by_value,
        flush_every=flush_every,
        jobs=jobs,
        cache=cache,
        cache_token=(
            panel_cache_token(spec, n_slots, load)
            if cache is not None
            else None
        ),
        progress=progress,
        resilience=resilience,
        journal=journal,
        fault_injector=fault_injector,
        engine=engine,
        trace_store=trace_store if trace_reuse else None,
        trace_key=trace_key if trace_reuse else None,
        farm=farm,
        farm_job=farm_job,
    )
