"""Workloads, timed passes, output checks and metrics of the benchmark.

A *pass* is one execution of a workload through the product's public
entry points: ``repro.experiments.fig5.run_panel`` for the Fig. 5
workloads, the theorem registry's replays for ``theorems``. A run
repeats passes on identical inputs and reports medians; see README.md.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.competitive import measure_competitive_ratio
from repro.core.errors import SweepExecutionError
from repro.experiments import fig5
from repro.experiments.registry import THEOREM_EXPERIMENTS
from repro.obs.counters import CounterRegistry
from repro.policies import make_policy

from hostspeed import Stopwatch, reference_seconds
from ledger import Ledger, installed

DEFAULT_SEED = 0

#: The fastest decision-identical ``run_panel`` options. Each is passed
#: only while ``run_panel`` still accepts it, so a change that makes
#: them the defaults and drops the parameters is measured, not broken.
FAST_OPTIONS: Dict[str, Any] = {
    "engine": "vectorized",
    "trace_backend": "columnar",
    "trace_reuse": True,
}

#: Counts that must repeat exactly between two traced passes.
EXACT_COUNTS = (
    "engine.slots",
    "engine.ff_slots",
    "opt.runs",
    "tracestore.builds",
    "tracestore.hits",
    "traffic.traces",
    "traffic.packets",
    "sweep.cells",
    "farm.leases",
)


@dataclass(frozen=True)
class Workload:
    """One named workload: Fig. 5 panels, or the theorem replays.

    Why each exists is in ``BENCHMARK.json`` and README.md.
    """

    name: str
    panels: Tuple[int, ...] = ()
    n_slots: int = 0
    seeds_per_pass: int = 1
    farm_workers: int = 0

    def seeds(self, seed: int) -> Tuple[int, ...]:
        """The sweep seeds one pass uses, derived from the run seed."""
        first = seed * self.seeds_per_pass
        return tuple(range(first, first + self.seeds_per_pass))


#: Pass sizes keep one pass near 8-11 reference seconds: enough seeds
#: that a pass's cost moves little with the run seed, few enough that
#: a run still fits its time on a slow host. ``fig5-farm`` runs at the
#: ``fig5-proc`` scale so its output must equal the local panel 1.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig5-proc", panels=(1, 2, 3), n_slots=500, seeds_per_pass=4),
        Workload(
            "fig5-value",
            panels=(4, 5, 6, 7, 8, 9),
            n_slots=48,
            seeds_per_pass=5,
        ),
        Workload("theorems"),
        Workload(
            "fig5-farm",
            panels=(1,),
            n_slots=500,
            seeds_per_pass=4,
            farm_workers=2,
        ),
    )
}


class ChildPeaks:
    """Peak RSS of this process's children while they run, kB per pid.

    ``RUSAGE_CHILDREN`` keeps only the largest reaped child, so the
    farm's workers are read one by one from ``/proc`` before they are
    reaped: ``VmHWM`` is a process's own high-water mark.
    """

    def __init__(self) -> None:
        self.kb: Dict[str, int] = {}

    def sample(self) -> None:
        for listing in Path("/proc/self/task").glob("*/children"):
            try:
                pids = listing.read_text().split()
            except OSError:
                continue
            for pid in pids:
                try:
                    status = Path(f"/proc/{pid}/status").read_text()
                except OSError:  # it ended in between
                    continue
                for line in status.splitlines():
                    if line.startswith("VmHWM:"):
                        kb = int(line.split()[1])
                        self.kb[pid] = max(self.kb.get(pid, 0), kb)

    def total(self) -> int:
        return sum(self.kb.values())


@dataclass
class PassResult:
    """What one pass did, measured and checked.

    ``wall_s``/``cpu_s`` are host seconds as measured; the ``ref_``
    twins rescale this process's CPU-busy share to the reference host
    speed (see hostspeed.py) and are what the end-to-end metrics use.
    """

    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: CSV sha256 per Fig. 5 panel, or outcome per theorem replay.
    digests: Dict[str, Any] = field(default_factory=dict)
    #: Full-precision outcomes, compared between traced and untraced.
    outcomes: Dict[str, Any] = field(default_factory=dict)
    #: Why checks failed, one line each.
    errors: List[str] = field(default_factory=list)
    ledger: Optional[Ledger] = None
    #: Peak RSS of the farm's workers, read while they run.
    worker_peaks: ChildPeaks = field(default_factory=ChildPeaks)


def fast_options(run_panel: Callable = fig5.run_panel) -> Dict[str, Any]:
    params = inspect.signature(run_panel).parameters
    return {k: v for k, v in FAST_OPTIONS.items() if k in params}


def _children_cpu() -> float:
    """CPU seconds of this process's reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def _add_time(out: PassResult, clock: Stopwatch, children: float) -> None:
    out.wall_s += clock.host_s
    out.cpu_s += clock.cpu_self_s + children
    out.ref_wall_s += clock.reference_wall()
    out.ref_cpu_s += (clock.cpu_self_s + children) * clock.speed


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def check_panel(
    workload: Workload,
    seed: int,
    panel: int,
    points: Sequence[Any],
    digest: str,
    expected: Dict[str, Any],
    errors: List[str],
) -> int:
    """Failed points of one panel result.

    Every point needs a finite ratio and positive objectives. On the
    default seed the CSV digest must also equal the pinned one, at the
    pinned scale; a mismatch fails every point of the panel.
    """
    bad = sum(
        1
        for p in points
        if not (
            math.isfinite(p.ratio)
            and p.alg_objective > 0
            and p.opt_objective > 0
        )
    )
    if seed != DEFAULT_SEED:
        return bad
    pin = expected.get("fig5", {}).get(str(panel))
    want = {
        "n_slots": workload.n_slots,
        "seeds": list(workload.seeds(seed)),
        "sha256": digest,
    }
    if pin != want:
        errors.append(f"fig5-{panel} output {want} != pinned {pin}")
        return len(points)
    return bad


def check_theorem(
    tid: str,
    outcome: Tuple[float, float, float],
    expected: Dict[str, Any],
    errors: List[str],
) -> bool:
    pin = expected.get("theorems", {}).get(tid)
    if list(outcome) != pin:
        errors.append(f"{tid} outcome {list(outcome)} != pinned {pin}")
        return False
    return True


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


def fig5_pass(
    workload: Workload,
    seed: int,
    out_dir: Path,
    expected: Dict[str, Any],
    ledger: Optional[Ledger] = None,
) -> PassResult:
    """Run every panel of a Fig. 5 workload once and check its CSVs."""
    options = dict(fast_options(), n_slots=workload.n_slots, jobs=1)
    farmed = bool(workload.farm_workers)
    if farmed:
        from repro.farm import FarmOptions

        options["farm"] = FarmOptions(workers=workload.farm_workers)
    seeds = workload.seeds(seed)
    out = PassResult(ledger=ledger)
    for panel in workload.panels:
        spec = fig5.PANELS[panel]
        n_points = len(spec.param_values) * len(spec.policies) * len(seeds)
        out.attempted += n_points
        result = None
        # The farm's cells run in its workers, which keep both CPUs
        # busy, so the kernel is timed in CPU time beside them: its
        # wall time would measure their load (README.md). The workers'
        # peak RSS is read while they still run.
        clock = Stopwatch(
            calibrate=ledger is None,
            clock=time.thread_time if farmed else time.perf_counter,
        )
        if farmed:

            def on_result(*_progress: Any) -> None:
                clock.mark()
                out.worker_peaks.sample()

            options["progress"] = on_result
        else:
            options["progress"] = clock.mark
        children = _children_cpu()
        try:
            if ledger is None:
                result = fig5.run_panel(panel, seeds=seeds, **options)
            else:
                with installed(ledger), ledger.span("panel"):
                    result = fig5.run_panel(panel, seeds=seeds, **options)
        except SweepExecutionError as exc:
            result = exc.result
        except Exception:  # a failing pass is reported, not fatal
            traceback.print_exc()
        clock.mark()
        _add_time(out, clock, _children_cpu() - children)
        if result is None:
            out.failed += n_points
            continue
        csv_path = out_dir / f"{workload.name}-fig5-{panel}.csv"
        result.to_csv(csv_path)
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        out.digests[f"fig5-{panel}"] = digest
        out.outcomes[f"fig5-{panel}"] = list(result.points)
        out.failed += n_points - len(result.points)
        out.failed += check_panel(
            workload, seed, panel, result.points, digest, expected,
            out.errors,
        )
        if ledger is not None:
            _record_sweep(ledger, result.stats, clock)
    return out


def _record_sweep(ledger: Ledger, stats: Any, clock: Stopwatch) -> None:
    ledger.add("sweep.cells", stats.cells_total)
    ledger.add("sweep.retries", stats.resilience.retries)
    farm = stats.farm
    if farm is None:
        return
    ledger.add("farm.leases", farm.leases_issued)
    ledger.add("farm.reissued", farm.leases_reissued)
    ledger.add("farm.fallback_cells", farm.fallback_cells)
    *progress, end = clock.marks
    if progress:
        ledger.seconds["farm.first_result"] += progress[0] - clock.start
        ledger.seconds["farm.teardown"] += end - progress[-1]


def theorem_pass(
    seed: int, expected: Dict[str, Any], ledger: Optional[Ledger] = None
) -> PassResult:
    """Replay every registered theorem once, in a seed-shuffled order.

    Untraced, each replay is the registry's own ``run()``. Traced, it is
    the same replay through ``measure_competitive_ratio`` with a
    :class:`CounterRegistry`, which splits ALG from scripted-OPT time.
    """
    order = sorted(THEOREM_EXPERIMENTS)
    random.Random(seed).shuffle(order)
    out = PassResult(ledger=ledger)
    clock = Stopwatch(calibrate=ledger is None)
    children = _children_cpu()
    for tid in order:
        experiment = THEOREM_EXPERIMENTS[tid]
        out.attempted += 1
        try:
            if ledger is None:
                _scenario, result = experiment.run()
            else:
                result = _traced_replay(experiment, ledger)
        except Exception:  # a failing replay is reported, not fatal
            traceback.print_exc()
            result = None
        clock.mark()
        if ledger is not None:
            start = clock.marks[-2] if len(clock.marks) > 1 else clock.start
            ledger.seconds[f"reference.{tid}"] += clock.marks[-1] - start
        if result is None:
            out.failed += 1
            continue
        outcome = (result.ratio, result.alg_objective, result.opt_objective)
        out.digests[tid] = list(outcome)
        out.outcomes[tid] = outcome
        if not check_theorem(tid, outcome, expected, out.errors):
            out.failed += 1
    _add_time(out, clock, _children_cpu() - children)
    return out


def _traced_replay(experiment: Any, ledger: Ledger) -> Any:
    scenario = experiment.build()
    registry = CounterRegistry()
    result = measure_competitive_ratio(
        make_policy(scenario.target_policy),
        scenario.trace,
        scenario.config,
        by_value=scenario.by_value,
        opt="scripted",
        registry=registry,
    )
    ledger.seconds["reference.alg"] += registry.seconds("policy_run")
    ledger.seconds["opt.scripted"] += registry.seconds("opt_run")
    return result


def one_pass(
    workload: Workload,
    seed: int,
    out_dir: Path,
    expected: Dict[str, Any],
    ledger: Optional[Ledger] = None,
) -> PassResult:
    if workload.panels:
        return fig5_pass(workload, seed, out_dir, expected, ledger)
    return theorem_pass(seed, expected, ledger)


def timed_passes(
    run: Callable[[], PassResult], seconds: float, at_least: int = 1
) -> List[PassResult]:
    """Repeat ``run`` for about ``seconds``: start another pass while at
    least half of a typical pass still fits."""
    passes: List[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run())
        typical = statistics.median(p.wall_s for p in passes)
        elapsed = time.perf_counter() - start
        if len(passes) >= at_least and elapsed + typical / 2 > seconds:
            return passes


# ----------------------------------------------------------------------
# Set-up time and memory
# ----------------------------------------------------------------------

#: What "ready" means: the package and every entry point the workloads
#: use are imported and the lazy column-backend probe has run.
SETUP_PROBE = (
    "import repro, repro.experiments.registry, repro.farm\n"
    "from repro.core.columns import backend\n"
    "backend()\n"
    "print('ready', flush=True)\n"
)


def setup_seconds(src: Path, samples: int) -> List[float]:
    """Seconds from interpreter launch to ready, once per fresh process,
    at reference host speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)

    def probe() -> None:
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            assert proc.stdout is not None
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("set-up probe did not get ready")
            proc.stdout.read()
            if proc.wait(timeout=60) != 0:
                raise RuntimeError("set-up probe failed")

    return [reference_seconds(probe) for _ in range(samples)]


def peak_rss_mb(passes: Sequence[PassResult]) -> float:
    """Peak RSS of this process plus its children, MiB.

    Children are the sum of a pass's sampled workers, the largest over
    passes, or the largest reaped child where nothing was sampled.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sampled = max(p.worker_peaks.total() for p in passes)
    return (own + max(sampled, reaped)) / 1024.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(
    passes: Sequence[PassResult], setup: Sequence[float], rss_mb: float
) -> Dict[str, Tuple[float, int]]:
    """Each end-to-end metric as (median, sample count)."""

    def med(values: Sequence[float]) -> Tuple[float, int]:
        return statistics.median(values), len(values)

    return {
        "wall_s": med([p.ref_wall_s for p in passes]),
        "points_per_s": med([p.attempted / p.ref_wall_s for p in passes]),
        "cpu_s": med([p.ref_cpu_s for p in passes]),
        "peak_rss_mb": (rss_mb, 1),
        "setup_s": med(setup),
    }


def layer_metrics(
    roster: Sequence[str], ledger: Ledger, traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    s, c = ledger.seconds, ledger.counts
    engine_s = sum(s[f"engine.{name}"] for name in roster)
    traffic_s, opt_s = s["traffic"], s["opt"]
    lookups = c["tracestore.builds"] + c["tracestore.hits"]

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {
        "traffic.gen_s": traffic_s,
        "traffic.traces": c["traffic.traces"],
        "traffic.packets": c["traffic.packets"],
        "tracestore.builds": c["tracestore.builds"],
        "tracestore.hits": c["tracestore.hits"],
        "tracestore.hit_ratio": per(c["tracestore.hits"], lookups),
        "engine.s": engine_s,
        "engine.slots": c["engine.slots"],
        "engine.ff_slots": c["engine.ff_slots"],
        "engine.slot_us.congested": 1e6
        * per(s["slot.congested"], c["slot.congested"]),
        "engine.slot_us.free": 1e6 * per(s["slot.free"], c["slot.free"]),
        "engine.arrivals_per_s": per(c["engine.arrivals"], engine_s),
        "opt.s": opt_s,
        "opt.runs": c["opt.runs"],
        "opt.s_per_run": per(opt_s, c["opt.runs"]),
        "opt.scripted_s": s["opt.scripted"],
        "sweep.overhead_s": (
            s["panel"] - traffic_s - engine_s - opt_s if s["panel"] else 0.0
        ),
        "sweep.cells": c["sweep.cells"],
        "sweep.retries": c["sweep.retries"],
        "reference.alg_s": s["reference.alg"],
        "farm.first_result_s": s["farm.first_result"],
        "farm.teardown_s": s["farm.teardown"],
        "farm.leases": c["farm.leases"],
        "farm.reissued": c["farm.reissued"],
        "farm.fallback_cells": c["farm.fallback_cells"],
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name in roster:
        out[f"engine.{name}.s"] = s[f"engine.{name}"]
    for tid in THEOREM_EXPERIMENTS:
        out[f"reference.{tid}.s"] = s[f"reference.{tid}"]
    return out


def roster() -> List[str]:
    """Every policy of every Fig. 5 panel, in first-seen order."""
    seen: Dict[str, None] = {}
    for spec in fig5.PANELS.values():
        for name in spec.policies:
            seen.setdefault(name, None)
    return list(seen)


def exact_count_mismatches(a: Ledger, b: Ledger) -> List[str]:
    return [
        f"{name}: {a.counts[name]} != {b.counts[name]}"
        for name in EXACT_COUNTS
        if a.counts[name] != b.counts[name]
    ]


def write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
