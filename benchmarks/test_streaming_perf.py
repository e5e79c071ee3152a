"""Benchmarks: streaming-pipeline throughput (the paper-scale enabler).

Measures simulated slots/second of the lock-step streaming runner
(policy + OPT surrogate fed from a generator) across switch sizes. These
are the numbers behind EXPERIMENTS.md's claim that the paper's full
2*10^6-slot horizon is practical.
"""

import os
import time

import pytest

from repro.analysis.sensitivity import OperatingPoint, run_sensitivity
from repro.analysis.streaming import stream_competitive
from repro.core.config import SwitchConfig
from repro.experiments.fig5 import run_panel
from repro.policies import make_policy
from repro.traffic.columnar import processing_slots

from conftest import BENCH_SLOTS, run_once


@pytest.mark.parametrize("k", [4, 12, 24])
def test_streaming_throughput(benchmark, k):
    """Slots/second of a lock-step LWD-vs-surrogate streaming run."""
    config = SwitchConfig.contiguous(k, 8 * k)
    n_slots = max(BENCH_SLOTS, 1000)

    def run():
        return stream_competitive(
            make_policy("LWD"),
            config,
            processing_slots(config, n_slots, load=3.0, seed=0),
            flush_every=500,
        )

    result = benchmark(run)
    benchmark.extra_info["slots"] = n_slots
    benchmark.extra_info["ratio"] = round(result.ratio, 4)
    assert result.slots == n_slots
    assert result.ratio >= 1.0


def test_sensitivity_tornado(benchmark):
    """The calibration tornado: which knob moves the LWD-LQD gap most."""
    report = run_once(
        benchmark,
        lambda: run_sensitivity(
            base=OperatingPoint(n_slots=max(BENCH_SLOTS, 800))
        ),
    )
    print("\n=== sensitivity of the LWD-LQD gap ===")
    print(report.format_table())
    print("tornado:", [
        f"{knob}:{swing:.3f}" for knob, swing in report.tornado()
    ])
    benchmark.extra_info["tornado"] = {
        knob: round(swing, 4) for knob, swing in report.tornado()
    }
    # Burstiness and heterogeneity dominate; buffer size is secondary.
    swings = dict(report.tornado())
    assert max(swings["duty_cycle"], swings["k"]) > swings["buffer_size"]


def test_sweep_serial_vs_parallel(benchmark):
    """Serial vs parallel Fig. 5 sweep: identical rows, cells/s speedup.

    Times one panel slice serially, then fans the same cells out over
    worker processes (timed under the benchmark fixture). The engine's
    contract makes the comparison meaningful: both runs must produce
    identical ``SweepPoint`` rows, so the only difference *is* the
    wall-clock. On a multi-core runner the parallel run must win; on a
    single core the determinism assertions still run and the speedup
    check is skipped (process fan-out cannot beat one busy core).
    """
    jobs = min(4, os.cpu_count() or 1)
    kwargs = dict(
        n_slots=max(BENCH_SLOTS, 800),
        seeds=(0, 1),
        param_values=(2, 6, 12),
        policies=("LWD", "LQD", "BPD", "NEST"),
    )

    t_serial = time.perf_counter()
    serial = run_panel(1, **kwargs)
    t_serial = time.perf_counter() - t_serial

    parallel = run_once(benchmark, lambda: run_panel(1, **kwargs, jobs=jobs))

    assert parallel.points == serial.points  # the determinism contract
    speedup = t_serial / parallel.stats.elapsed_seconds
    print(
        f"\n=== sweep engine: serial {t_serial:.2f}s "
        f"({serial.stats.cells_per_second:.2f} cells/s) vs jobs={jobs} "
        f"{parallel.stats.elapsed_seconds:.2f}s "
        f"({parallel.stats.cells_per_second:.2f} cells/s), "
        f"speedup {speedup:.2f}x ==="
    )
    benchmark.extra_info["serial_seconds"] = round(t_serial, 3)
    benchmark.extra_info["parallel_seconds"] = round(
        parallel.stats.elapsed_seconds, 3
    )
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["speedup"] = round(speedup, 2)
    if jobs > 1 and (os.cpu_count() or 1) > 1:
        assert speedup > 1.1, (
            f"parallel sweep no faster than serial ({speedup:.2f}x)"
        )


def test_sweep_cache_resume(benchmark):
    """A warm cache turns a full panel re-run into pure assembly."""
    import tempfile

    from repro.analysis.cache import SweepCache

    kwargs = dict(
        n_slots=max(BENCH_SLOTS, 800),
        seeds=(0,),
        param_values=(2, 12),
        policies=("LWD", "LQD", "NEST"),
    )
    with tempfile.TemporaryDirectory() as root:
        cache = SweepCache(root)
        cold = run_panel(1, **kwargs, cache=cache)
        warm = run_once(
            benchmark, lambda: run_panel(1, **kwargs, cache=cache)
        )
    assert warm.points == cold.points
    assert warm.stats.cells_executed == 0
    assert warm.stats.cache_hit_rate == 1.0
    # Assembly from cache must crush simulation time.
    assert warm.stats.elapsed_seconds < cold.stats.elapsed_seconds / 5
    benchmark.extra_info["cold_seconds"] = round(
        cold.stats.elapsed_seconds, 3
    )
    benchmark.extra_info["warm_seconds"] = round(
        warm.stats.elapsed_seconds, 3
    )
