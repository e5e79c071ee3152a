"""Tracked performance benchmarks for the simulation hot path.

The ROADMAP's north star is a simulator that runs "as fast as the
hardware allows" — which is only meaningful if speed is a *measured,
regression-guarded* quantity. This module pins a panel of workloads that
exercise the hot path from three directions and records raw simulation
throughput (slots/s and arrival packets/s) to ``BENCH_<tag>.json`` files
that live next to the correctness benchmarks:

* **uniform** — memoryless Poisson traffic at moderate overload: the
  generic regime, buffer mostly full, moderate congestion.
* **mmpp** — the paper's Section V-A bursty on/off traffic: long idle
  stretches (exercising the idle-slot fast path) punctuated by bursts.
* **adversarial** — saturating bursts of ~1.5n packets every slot
  against a small buffer, so *every* arrival lands on a full buffer and
  the push-out victim search dominates. This is the Fig. 5 large-``n``
  high-congestion regime where naive O(n)-per-arrival selectors turn
  quadratic.

Each workload comes in a small-``n`` and a large-``n`` flavor, and runs
a pinned set of push-out policies over a pinned seed, so two reports are
comparable run-to-run and machine-to-machine modulo hardware. Per-policy
*objectives* (transmitted packets / value) are recorded alongside the
timings: any drift between two reports' objectives means the two runs
simulated different decisions, i.e. a determinism bug, not a perf delta.

``BENCH_seed.json`` (committed) is the pre-fast-path baseline recorded
on the naive O(n)-scan engine; :func:`compare_reports` implements the
CI regression gate against it. See ``repro bench --help`` for the CLI.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

try:  # pure-stdlib installs can still load the module and its gates
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None  # type: ignore[assignment]

from repro.analysis.competitive import PolicySystem, run_system
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError
from repro.policies import make_policy
from repro.traffic.columnar import (
    ColumnarTrace,
    columnar_poisson_workload,
    columnar_processing_workload,
    columnar_saturating_workload,
    columnar_value_uniform_workload,
)
from repro.traffic.trace import Trace

#: Report schema version, bumped on incompatible layout changes.
SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Pinned workload panels
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchPanel:
    """One pinned benchmark workload: a config, a trace recipe, policies.

    Panels are frozen on purpose: the value of a tracked benchmark is
    that two reports measured *the same computation*. Scale runs up or
    down with ``slots_scale`` (recorded in the report) rather than by
    editing panel definitions.
    """

    name: str
    model: str  # "processing" | "value"
    workload: str  # "uniform" | "mmpp" | "adversarial" | "spike" | "flap"
    n_ports: int
    buffer_size: int
    n_slots: int
    seed: int
    policies: Tuple[str, ...]
    load: float = 2.0
    #: Per-port reserved slots; 0 keeps the paper's purely shared model.
    reserved_per_port: int = 0

    def config(self) -> SwitchConfig:
        model = None
        if self.reserved_per_port:
            from repro.core.config import BufferModel

            model = BufferModel.split(
                (self.reserved_per_port,) * self.n_ports,
                self.buffer_size - self.reserved_per_port * self.n_ports,
            )
        if self.model == "processing":
            config = SwitchConfig.contiguous(
                self.n_ports, self.buffer_size
            )
        else:
            config = SwitchConfig.value_contiguous(
                self.n_ports, self.buffer_size
            )
        if model is None:
            return config
        return SwitchConfig(
            buffer_size=config.buffer_size,
            ports=config.ports,
            speedup=config.speedup,
            discipline=config.discipline,
            buffer_model=model,
        )

    def trace(self, slots_scale: float = 1.0) -> Trace:
        """The panel's trace as packet objects."""
        if self.workload not in ("spike", "flap"):
            return self.columnar_trace(slots_scale).to_trace()
        n_slots = max(1, int(round(self.n_slots * slots_scale)))
        config = self.config()
        if self.workload == "spike":
            from repro.traffic.dynamic import oversubscription_spike_workload

            return oversubscription_spike_workload(
                config, n_slots, load=self.load, seed=self.seed
            )
        from repro.traffic.dynamic import port_flap_workload

        return port_flap_workload(
            config, n_slots, load=self.load, seed=self.seed
        )

    def columnar_trace(self, slots_scale: float = 1.0) -> ColumnarTrace:
        """The panel's trace as flat columns, from its recipe's generator
        (:mod:`repro.traffic.columnar`)."""
        n_slots = max(1, int(round(self.n_slots * slots_scale)))
        config = self.config()
        if self.workload == "uniform":
            return columnar_poisson_workload(
                config, n_slots, load=self.load, seed=self.seed
            )
        if self.workload == "mmpp":
            if self.model == "processing":
                return columnar_processing_workload(
                    config, n_slots, load=self.load, seed=self.seed
                )
            return columnar_value_uniform_workload(
                config, n_slots, 16, load=self.load, seed=self.seed
            )
        if self.workload == "adversarial":
            return columnar_saturating_workload(
                config, n_slots, seed=self.seed
            )
        if self.workload in ("spike", "flap"):
            # The dynamic generators are pure-python slot loops with no
            # vectorizable inner structure; their columns are the exact
            # conversion.
            return ColumnarTrace.from_trace(self.trace(slots_scale))
        raise ConfigError(f"unknown bench workload {self.workload!r}")

    def trace_content_key(self, slots_scale: float = 1.0) -> str:
        """Content key of the panel's trace for the trace store.

        Covers everything the generators consume — recipe, port count,
        slot count, load, seed. Buffer size is deliberately absent: no
        bench generator reads ``B``, which is what lets a B-varied
        pipeline cell row share one stored trace.
        """
        n_slots = max(1, int(round(self.n_slots * slots_scale)))
        return (
            f"bench|{self.workload}|{self.model}|ports={self.n_ports}"
            f"|slots={n_slots}|load={self.load!r}|seed={self.seed}"
        )

    def spec(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "workload": self.workload,
            "n_ports": self.n_ports,
            "buffer_size": self.buffer_size,
            "n_slots": self.n_slots,
            "seed": self.seed,
            "load": self.load,
            "reserved_per_port": self.reserved_per_port,
            "policies": list(self.policies),
        }


_PROC_POLICIES = ("LQD", "LWD", "BPD")
_VALUE_POLICIES = ("LQD-V", "MVD", "MRD")
_DYNAMIC_POLICIES = ("LQD", "Harmonic", "DT")

#: The pinned panel set. Names are stable identifiers used by reports,
#: the CLI, and the CI regression gate.
PANELS: Dict[str, BenchPanel] = {
    panel.name: panel
    for panel in (
        BenchPanel(
            name="uniform-proc-small",
            model="processing",
            workload="uniform",
            n_ports=8,
            buffer_size=64,
            n_slots=2000,
            seed=11,
            policies=_PROC_POLICIES,
            load=1.4,
        ),
        BenchPanel(
            name="uniform-proc-large",
            model="processing",
            workload="uniform",
            n_ports=96,
            buffer_size=384,
            n_slots=300,
            seed=11,
            policies=_PROC_POLICIES,
            load=1.4,
        ),
        BenchPanel(
            name="mmpp-proc-small",
            model="processing",
            workload="mmpp",
            n_ports=8,
            buffer_size=64,
            n_slots=2000,
            seed=12,
            policies=_PROC_POLICIES,
            load=2.0,
        ),
        BenchPanel(
            name="mmpp-proc-large",
            model="processing",
            workload="mmpp",
            n_ports=96,
            buffer_size=384,
            n_slots=300,
            seed=12,
            policies=_PROC_POLICIES,
            load=2.0,
        ),
        BenchPanel(
            name="adversarial-proc-small",
            model="processing",
            workload="adversarial",
            n_ports=8,
            buffer_size=32,
            n_slots=1500,
            seed=13,
            policies=_PROC_POLICIES,
        ),
        BenchPanel(
            name="adversarial-proc-large",
            model="processing",
            workload="adversarial",
            n_ports=96,
            buffer_size=192,
            n_slots=250,
            seed=13,
            policies=_PROC_POLICIES,
        ),
        BenchPanel(
            name="adversarial-value-small",
            model="value",
            workload="adversarial",
            n_ports=8,
            buffer_size=32,
            n_slots=1500,
            seed=14,
            policies=_VALUE_POLICIES,
        ),
        BenchPanel(
            name="adversarial-value-large",
            model="value",
            workload="adversarial",
            n_ports=96,
            buffer_size=192,
            n_slots=250,
            seed=14,
            policies=_VALUE_POLICIES,
        ),
        BenchPanel(
            name="dynamic-flap-small",
            model="processing",
            workload="flap",
            n_ports=8,
            buffer_size=64,
            n_slots=1500,
            seed=15,
            policies=_DYNAMIC_POLICIES,
            load=0.9,
        ),
        BenchPanel(
            name="dynamic-split-small",
            model="processing",
            workload="spike",
            n_ports=8,
            buffer_size=64,
            n_slots=1500,
            seed=16,
            policies=_DYNAMIC_POLICIES,
            load=0.9,
            reserved_per_port=2,
        ),
    )
}


def select_panels(selector: Sequence[str]) -> List[BenchPanel]:
    """Resolve CLI panel selectors: names, ``small``, ``large``, ``all``."""
    if not selector:
        selector = ["all"]
    chosen: Dict[str, BenchPanel] = {}
    for item in selector:
        if item == "all":
            chosen.update(PANELS)
        elif item in ("small", "large"):
            chosen.update(
                (name, panel)
                for name, panel in PANELS.items()
                if name.endswith(f"-{item}")
            )
        elif item in PANELS:
            chosen[item] = PANELS[item]
        else:
            known = ", ".join(list(PANELS) + ["small", "large", "all"])
            raise ConfigError(f"unknown bench panel {item!r}; known: {known}")
    return list(chosen.values())


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


@dataclass
class PolicyTiming:
    """Throughput of one policy over one panel's trace."""

    policy: str
    elapsed_s: float
    n_slots: int
    n_packets: int
    objective: float

    @property
    def slots_per_s(self) -> float:
        return self.n_slots / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def packets_per_s(self) -> float:
        return self.n_packets / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "elapsed_s": round(self.elapsed_s, 6),
            "slots_per_s": round(self.slots_per_s, 2),
            "packets_per_s": round(self.packets_per_s, 2),
            "objective": self.objective,
        }


@dataclass
class PanelResult:
    """All policy timings of one panel plus aggregates."""

    panel: BenchPanel
    timings: List[PolicyTiming] = field(default_factory=list)
    total_packets: int = 0

    @property
    def elapsed_s(self) -> float:
        return sum(t.elapsed_s for t in self.timings)

    @property
    def slots_per_s(self) -> float:
        """Aggregate throughput: simulated slots over wall-clock, summed
        across policy runs (the regression-gate headline number)."""
        elapsed = self.elapsed_s
        total_slots = sum(t.n_slots for t in self.timings)
        return total_slots / elapsed if elapsed > 0 else 0.0

    @property
    def packets_per_s(self) -> float:
        elapsed = self.elapsed_s
        total = sum(t.n_packets for t in self.timings)
        return total / elapsed if elapsed > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "spec": self.panel.spec(),
            "total_packets": self.total_packets,
            "elapsed_s": round(self.elapsed_s, 6),
            "slots_per_s": round(self.slots_per_s, 2),
            "packets_per_s": round(self.packets_per_s, 2),
            "per_policy": [t.as_dict() for t in self.timings],
        }


def _environment() -> Dict[str, object]:
    import repro

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": __import__("os").cpu_count(),
        "numpy": "absent" if np is None else np.__version__,
        "repro_version": getattr(repro, "__version__", "unknown"),
        "argv": sys.argv[1:],
    }


def run_panel_bench(
    panel: BenchPanel,
    *,
    mode: str = "fast",
    slots_scale: float = 1.0,
) -> PanelResult:
    """Time every pinned policy of one panel over its pinned trace.

    Trace generation is excluded from the timed region; the timer wraps
    exactly the slot loop (:func:`repro.analysis.competitive.run_system`)
    — the quantity the fast-path work optimizes. The ``vectorized``
    mode replays the panel's columnar trace, the engine's production
    input; the reference modes replay the object trace. Both carry the
    same packets.
    """
    if mode == "vectorized":
        trace = panel.columnar_trace(slots_scale)
    else:
        trace = panel.trace(slots_scale)
    config = panel.config()
    by_value = config.discipline is QueueDiscipline.PRIORITY
    result = PanelResult(panel=panel, total_packets=trace.total_packets)
    for policy_name in panel.policies:
        policy = make_policy(policy_name)
        system = _make_system(config, policy, mode)
        started = time.perf_counter()
        metrics = run_system(system, trace)
        elapsed = time.perf_counter() - started
        result.timings.append(
            PolicyTiming(
                policy=policy_name,
                elapsed_s=elapsed,
                n_slots=trace.n_slots,
                n_packets=trace.total_packets,
                objective=metrics.objective(by_value),
            )
        )
    return result


def _make_system(config: SwitchConfig, policy, mode: str) -> PolicySystem:
    """Build the simulated system in one of the benchmarkable modes.

    ``fast``/``naive`` pick the reference engine's selector mode
    (``naive`` is the O(n)-scan oracle); ``vectorized`` picks the
    columnar batch-slot engine. On engines that predate the fast path
    (the seed baseline) the keywords do not exist and the only mode is
    the naive one.
    """
    if mode == "vectorized":
        return PolicySystem(config, policy, engine="vectorized")
    if mode not in ("fast", "naive"):
        raise ConfigError(
            f"bench mode must be fast|naive|vectorized, got {mode!r}"
        )
    try:
        return PolicySystem(config, policy, fast_path=(mode == "fast"))
    except TypeError:
        return PolicySystem(config, policy)


def run_bench(
    panels: Sequence[BenchPanel],
    *,
    tag: str = "local",
    mode: str = "fast",
    slots_scale: float = 1.0,
    repeats: int = 1,
    progress=None,
) -> Dict[str, object]:
    """Run panels and assemble the ``BENCH_<tag>.json`` report dict.

    ``repeats`` runs each panel that many times and reports its
    *best* aggregate throughput. Single runs on shared or
    frequency-scaled machines vary by 2x and more; speedup gates
    compare best-effort capability, not scheduler luck, so CI smoke
    jobs should pass ``repeats >= 3``.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "tag": tag,
        "mode": mode,
        "slots_scale": slots_scale,
        "repeats": repeats,
        "created": datetime.now(timezone.utc).isoformat(),
        "environment": _environment(),
        "panels": {},
    }
    for panel in panels:
        result = run_panel_bench(panel, mode=mode, slots_scale=slots_scale)
        for _ in range(repeats - 1):
            again = run_panel_bench(
                panel, mode=mode, slots_scale=slots_scale
            )
            if again.slots_per_s > result.slots_per_s:
                result = again
        report["panels"][panel.name] = result.as_dict()
        if progress is not None:
            progress(
                f"{panel.name}: {result.slots_per_s:.1f} slots/s, "
                f"{result.packets_per_s:.1f} packets/s "
                f"({result.elapsed_s:.2f}s)"
            )
    return report


# ----------------------------------------------------------------------
# End-to-end pipeline bench (trace gen + policy runs + OPT per cell)
# ----------------------------------------------------------------------

#: Pipeline panels gated by CI (the two large-n sweep-shaped panels).
PIPELINE_PANELS: Tuple[str, ...] = (
    "mmpp-proc-large",
    "adversarial-proc-large",
    "adversarial-value-large",
)

#: Cell rows of one pipeline panel: buffer sizes as fractions of the
#: panel's pinned ``B`` — a miniature Fig. 5 B-sweep whose cells share
#: one trace content (no bench generator reads ``B``).
_PIPELINE_BUFFER_STEPS: Tuple[float, ...] = (0.5, 1.0, 1.5)


def _pipeline_buffers(panel: BenchPanel) -> List[int]:
    buffers = []
    for step in _PIPELINE_BUFFER_STEPS:
        b = max(panel.n_ports, int(round(panel.buffer_size * step)))
        if b not in buffers:
            buffers.append(b)
    return buffers


def run_pipeline_panel_bench(
    panel: BenchPanel,
    *,
    accelerated: bool = True,
    slots_scale: float = 1.0,
) -> Dict[str, object]:
    """Time one panel as an end-to-end miniature sweep.

    A *cell* is one ``(buffer size, policy)`` pair — exactly the shape
    of a :func:`repro.analysis.sweep.run_sweep` cell: acquire the
    trace, run the policy, run the OPT surrogate, record both
    objectives. Trace generation is *included* in the timed region
    (unlike :func:`run_panel_bench`, which times the slot loop alone),
    and every cell pays its own OPT run, as the real sweep does.

    ``accelerated=False`` is the tracked baseline: traces regenerated
    and materialized as packet objects per cell (what ``run_sweep``
    did before the trace store existed), the vectorized ALG engine (the
    pre-pipeline state of the repo), and the reference ``bisect`` OPT
    surrogate. ``accelerated=True`` swaps in the columnar trace
    pipeline: cross-cell reuse through a
    :class:`~repro.analysis.tracestore.TraceStore`, zero-copy columnar
    ingestion, and the vectorized OPT surrogate. Per-cell objectives
    (ALG and OPT) are recorded so any decision drift between the two
    modes shows up as a diff, not a silent wrong speedup.
    """
    from dataclasses import replace

    from repro.analysis.tracestore import TraceStore
    from repro.opt.surrogate import make_surrogate

    by_value = panel.model != "processing"
    buffers = _pipeline_buffers(panel)
    store = TraceStore() if accelerated else None
    opt_engine = "vectorized" if accelerated else "reference"
    n_slots = max(1, int(round(panel.n_slots * slots_scale)))

    cells: List[Dict[str, object]] = []
    started = time.perf_counter()
    for buffer_size in buffers:
        cell_panel = replace(panel, buffer_size=buffer_size)
        config = cell_panel.config()
        for policy_name in panel.policies:
            if store is not None:
                trace = store.get_or_build(
                    panel.trace_content_key(slots_scale),
                    lambda: cell_panel.columnar_trace(slots_scale),
                )
            else:
                trace = cell_panel.trace(slots_scale)
            system = PolicySystem(
                config, make_policy(policy_name), engine="vectorized"
            )
            metrics = run_system(system, trace)
            opt = make_surrogate(config, by_value, engine=opt_engine)
            opt_metrics = run_system(opt, trace)
            cells.append(
                {
                    "buffer_size": buffer_size,
                    "policy": policy_name,
                    "objectives": {
                        policy_name: metrics.objective(by_value),
                        "OPT": opt_metrics.objective(by_value),
                    },
                }
            )
    elapsed = time.perf_counter() - started

    n_cells = len(cells)
    return {
        "spec": panel.spec(),
        "buffers": buffers,
        "n_slots": n_slots,
        "cells": cells,
        "elapsed_s": round(elapsed, 6),
        "cells_per_s": round(
            n_cells / elapsed if elapsed > 0 else 0.0, 4
        ),
        "slots_per_s": round(
            n_cells * n_slots / elapsed if elapsed > 0 else 0.0, 2
        ),
    }


def run_pipeline_bench(
    panels: Sequence[BenchPanel],
    *,
    tag: str = "pipeline",
    accelerated: bool = True,
    slots_scale: float = 1.0,
    repeats: int = 1,
    progress=None,
) -> Dict[str, object]:
    """Assemble an end-to-end pipeline report (``kind: "pipeline"``).

    The headline rate is ``cells_per_s`` — end-to-end sweep cells per
    second — which :func:`compare_reports` / :func:`compare_speedup`
    pick up automatically for pipeline reports. ``repeats`` keeps each
    panel's best run, like :func:`run_bench`.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "kind": "pipeline",
        "tag": tag,
        "mode": "accelerated" if accelerated else "baseline",
        "slots_scale": slots_scale,
        "repeats": repeats,
        "created": datetime.now(timezone.utc).isoformat(),
        "environment": _environment(),
        "panels": {},
    }
    for panel in panels:
        result = run_pipeline_panel_bench(
            panel, accelerated=accelerated, slots_scale=slots_scale
        )
        for _ in range(repeats - 1):
            again = run_pipeline_panel_bench(
                panel, accelerated=accelerated, slots_scale=slots_scale
            )
            if again["cells_per_s"] > result["cells_per_s"]:
                result = again
        report["panels"][panel.name] = result
        if progress is not None:
            progress(
                f"{panel.name}: {result['cells_per_s']:.2f} cells/s "
                f"({result['elapsed_s']:.2f}s for "
                f"{len(result['cells'])} cells)"
            )
    return report


def write_report(report: Mapping[str, object], out_dir: Path | str) -> Path:
    """Write the report as ``<out_dir>/BENCH_<tag>.json``; returns path.

    Published atomically (temp file + rename): CI gates load these
    reports, and a half-written baseline must never be observable.
    """
    from repro.resilience import atomic_write_json

    out_dir = Path(out_dir)
    path = out_dir / f"BENCH_{report['tag']}.json"
    return atomic_write_json(path, report, indent=2)


def load_report(path: Path | str) -> Dict[str, object]:
    with Path(path).open("r", encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA_VERSION:
        raise ConfigError(
            f"bench report {path} has schema {report.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    return report


# ----------------------------------------------------------------------
# Observer overhead
# ----------------------------------------------------------------------


def run_obs_bench(
    panels: Sequence[BenchPanel],
    *,
    tag: str = "obs",
    slots_scale: float = 1.0,
    progress=None,
) -> Dict[str, object]:
    """Measure JSONL-recording overhead per panel (reported, not gated).

    For each panel the *first* pinned policy is run twice over the same
    trace: once with the observer slot empty (the fenced configuration)
    and once streaming the full event trace to a temporary JSONL file
    through :class:`~repro.obs.trace_io.JsonlTraceWriter`. The report
    records both rates plus the relative overhead and the trace size —
    the honest price list for turning recording on. The disabled-path
    *gate* lives in ``benchmarks/test_fastpath_perf.py``; this report
    only documents the recording cost.
    """
    import os
    import tempfile

    from repro.obs.trace_io import JsonlTraceWriter

    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "kind": "observer-overhead",
        "tag": tag,
        "mode": "fast",
        "slots_scale": slots_scale,
        "created": datetime.now(timezone.utc).isoformat(),
        "environment": _environment(),
        "panels": {},
    }
    for panel in panels:
        trace = panel.trace(slots_scale)
        config = panel.config()
        by_value = config.discipline is QueueDiscipline.PRIORITY
        policy_name = panel.policies[0]

        def timed_run(observer) -> Tuple[float, float]:
            system = PolicySystem(
                config, make_policy(policy_name), observer=observer
            )
            started = time.perf_counter()
            metrics = run_system(system, trace)
            return (
                time.perf_counter() - started,
                metrics.objective(by_value),
            )

        disabled_s, disabled_obj = timed_run(None)
        handle, path = tempfile.mkstemp(suffix=".jsonl", prefix="obsbench-")
        os.close(handle)
        try:
            writer = JsonlTraceWriter(
                path, header={"panel": panel.name, "policy": policy_name}
            )
            recording_s, recording_obj = timed_run(writer)
            writer.write_end()
            events = writer.events_written
            trace_bytes = os.path.getsize(path)
        finally:
            os.unlink(path)
        if recording_obj != disabled_obj:
            raise ConfigError(
                f"observer changed the simulation on {panel.name}: "
                f"objective {recording_obj} != {disabled_obj}"
            )
        n_slots = trace.n_slots
        disabled_rate = n_slots / disabled_s if disabled_s > 0 else 0.0
        recording_rate = n_slots / recording_s if recording_s > 0 else 0.0
        overhead = (
            (disabled_rate / recording_rate - 1.0)
            if recording_rate > 0
            else 0.0
        )
        report["panels"][panel.name] = {
            "spec": panel.spec(),
            "policy": policy_name,
            "n_slots": n_slots,
            "disabled_slots_per_s": round(disabled_rate, 2),
            "recording_slots_per_s": round(recording_rate, 2),
            "recording_overhead_pct": round(100 * overhead, 1),
            "events": events,
            "trace_bytes": trace_bytes,
            "objective": disabled_obj,
        }
        if progress is not None:
            progress(
                f"{panel.name}: disabled {disabled_rate:.1f} slots/s, "
                f"recording {recording_rate:.1f} slots/s "
                f"(+{100 * overhead:.1f}%, {trace_bytes} bytes)"
            )
    return report


def format_obs_report(report: Mapping[str, object]) -> str:
    """Human-readable table of an observer-overhead report."""
    lines = [
        f"# observer overhead tag={report['tag']} "
        f"scale={report['slots_scale']}",
        f"{'panel':26s} {'off slots/s':>12s} {'rec slots/s':>12s} "
        f"{'overhead':>9s} {'bytes':>10s}",
    ]
    for name, panel in report["panels"].items():
        lines.append(
            f"{name:26s} {panel['disabled_slots_per_s']:12.1f} "
            f"{panel['recording_slots_per_s']:12.1f} "
            f"{panel['recording_overhead_pct']:8.1f}% "
            f"{panel['trace_bytes']:10d}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------


def _panel_rate(panel: Mapping[str, object]) -> float:
    """A panel's headline rate: ``cells_per_s`` for pipeline reports
    (end-to-end sweep cells), ``slots_per_s`` for engine reports."""
    return float(panel.get("cells_per_s", panel.get("slots_per_s", 0.0)))


@dataclass(frozen=True)
class Regression:
    """One panel whose throughput fell below the allowed fraction."""

    panel: str
    current: float
    baseline: float
    allowed: float

    def __str__(self) -> str:
        return (
            f"{self.panel}: {self.current:.1f} slots/s < "
            f"{self.allowed:.1f} allowed "
            f"(baseline {self.baseline:.1f}, "
            f"{self.current / self.baseline:.2f}x)"
        )


def compare_reports(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    *,
    max_regression: float = 0.25,
) -> List[Regression]:
    """Panels in ``current`` slower than ``(1 - max_regression) x`` baseline.

    Only panels present in both reports are compared, on the aggregate
    ``slots_per_s``; normalizes away ``slots_scale`` differences (slots/s
    is already a rate, so no normalization is actually needed — scaling a
    run changes duration, not throughput).
    """
    if not 0 <= max_regression < 1:
        raise ConfigError(
            f"max_regression must be in [0, 1), got {max_regression}"
        )
    regressions: List[Regression] = []
    base_panels: Mapping[str, Mapping] = baseline.get("panels", {})
    for name, panel in current.get("panels", {}).items():
        base = base_panels.get(name)
        if base is None:
            continue
        base_rate = _panel_rate(base)
        rate = _panel_rate(panel)
        allowed = (1.0 - max_regression) * base_rate
        if rate < allowed:
            regressions.append(
                Regression(
                    panel=name,
                    current=rate,
                    baseline=base_rate,
                    allowed=allowed,
                )
            )
    return regressions


@dataclass(frozen=True)
class SpeedupShortfall:
    """One panel whose speedup over the baseline missed the floor."""

    panel: str
    current: float
    baseline: float
    required: float

    @property
    def achieved(self) -> float:
        return self.current / self.baseline if self.baseline > 0 else 0.0

    def __str__(self) -> str:
        return (
            f"{self.panel}: {self.achieved:.2f}x < {self.required:.2f}x "
            f"required ({self.current:.1f} vs baseline "
            f"{self.baseline:.1f} slots/s)"
        )


def compare_speedup(
    current: Mapping[str, object],
    baseline: Mapping[str, object],
    *,
    min_speedup: float,
    panels: Optional[Sequence[str]] = None,
    tolerance: float = 0.25,
) -> List[SpeedupShortfall]:
    """Panels whose aggregate throughput gain misses ``min_speedup``.

    The vectorized-engine acceptance gate: ``current`` (a vectorized
    report) must be at least ``min_speedup * (1 - tolerance)`` times the
    ``baseline`` (the committed fast-path report) on every selected
    panel. The tolerance term is the same 25%-fence style as
    :func:`compare_reports` — committed baselines were recorded on
    different hardware, so an exact multiplier would gate on machine
    identity rather than on the engine.

    With ``panels=None`` every panel present in both reports is gated.
    A selected panel missing from either report is itself a failure
    (reported with zero rates) — silently skipping it would pass the
    gate without measuring anything.
    """
    if min_speedup <= 0:
        raise ConfigError(f"min_speedup must be > 0, got {min_speedup}")
    if not 0 <= tolerance < 1:
        raise ConfigError(f"tolerance must be in [0, 1), got {tolerance}")
    cur_panels: Mapping[str, Mapping] = current.get("panels", {})
    base_panels: Mapping[str, Mapping] = baseline.get("panels", {})
    if panels is None:
        names: Sequence[str] = [
            name for name in cur_panels if name in base_panels
        ]
    else:
        names = panels
    required = min_speedup * (1.0 - tolerance)
    shortfalls: List[SpeedupShortfall] = []
    for name in names:
        cur = cur_panels.get(name)
        base = base_panels.get(name)
        if cur is None or base is None:
            shortfalls.append(
                SpeedupShortfall(
                    panel=name,
                    current=0.0 if cur is None else _panel_rate(cur),
                    baseline=0.0 if base is None else _panel_rate(base),
                    required=required,
                )
            )
            continue
        rate = _panel_rate(cur)
        base_rate = _panel_rate(base)
        if rate < required * base_rate:
            shortfalls.append(
                SpeedupShortfall(
                    panel=name,
                    current=rate,
                    baseline=base_rate,
                    required=required,
                )
            )
    return shortfalls


def format_pipeline_report(report: Mapping[str, object]) -> str:
    """Human-readable table of a pipeline report (CLI output)."""
    lines = [
        f"# pipeline bench tag={report['tag']} mode={report['mode']} "
        f"scale={report['slots_scale']}",
        f"{'panel':26s} {'cells/s':>10s} {'cells':>6s} {'time':>8s}",
    ]
    for name, panel in report["panels"].items():
        lines.append(
            f"{name:26s} {panel['cells_per_s']:10.2f} "
            f"{len(panel['cells']):6d} {panel['elapsed_s']:7.2f}s"
        )
    return "\n".join(lines)


def format_report(report: Mapping[str, object]) -> str:
    """Human-readable table of one report (CLI output)."""
    lines = [
        f"# bench tag={report['tag']} mode={report['mode']} "
        f"scale={report['slots_scale']}",
        f"{'panel':26s} {'slots/s':>12s} {'packets/s':>14s} {'time':>8s}",
    ]
    for name, panel in report["panels"].items():
        lines.append(
            f"{name:26s} {panel['slots_per_s']:12.1f} "
            f"{panel['packets_per_s']:14.1f} {panel['elapsed_s']:7.2f}s"
        )
    return "\n".join(lines)
