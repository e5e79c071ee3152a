"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from ledger import Ledger, installed  # noqa: E402
from repro.analysis.competitive import measure_competitive_ratio  # noqa: E402
from repro.experiments import fig5  # noqa: E402
from repro.policies import make_policy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
TINY = replace(
    harness.WORKLOADS["fig5-proc"], panels=(1,), n_slots=20, seeds_per_pass=1
)


def _panel_inputs(panel, columnar):
    config_factory, trace_factory, _key = fig5._panel_factories(
        fig5.PANELS[panel], 120, 3.0, columnar=columnar
    )
    config = config_factory(fig5.PANELS[panel].param_values[2])
    return config, trace_factory(config, 0.0, 7)


def _objectives(policy, config, trace, engine):
    result = measure_competitive_ratio(
        make_policy(policy), trace, config, flush_every=50, engine=engine
    )
    return result.alg_objective, result.opt_objective


def test_wrapper_delegates_without_changing_objectives():
    for panel, policy in ((1, "LQD"), (1, "Harmonic"), (7, "MRD")):
        for engine, columnar in (("vectorized", True), ("reference", False)):
            config, trace = _panel_inputs(panel, columnar)
            plain = _objectives(policy, config, trace, engine)
            ledger = Ledger()
            with installed(ledger):
                traced = _objectives(policy, config, trace, engine)
            assert traced == plain
            assert ledger.counts["opt.runs"] == 1
            assert ledger.seconds[f"engine.{policy}"] > 0
            slots = ledger.counts["engine.slots"]
            assert slots + ledger.counts["engine.ff_slots"] == 120
            assert ledger.counts["engine.arrivals"] == trace.total_packets


def test_hooks_are_removed_after_the_block():
    from repro.analysis import competitive, tracestore

    before = (
        competitive.PolicySystem,
        competitive.run_system,
        tracestore.TraceStore.get_or_build,
        fig5.columnar_processing_workload,
    )
    with installed(Ledger()):
        assert competitive.run_system is not before[1]
    after = (
        competitive.PolicySystem,
        competitive.run_system,
        tracestore.TraceStore.get_or_build,
        fig5.columnar_processing_workload,
    )
    assert after == before


def _pinned(digest):
    return {"fig5": {"1": {"n_slots": 20, "seeds": [0], "sha256": digest}}}


def test_wrong_expected_digest_counts_every_point_failed(tmp_path):
    good = harness.fig5_pass(TINY, 0, tmp_path, {})
    digest = good.digests["fig5-1"]
    assert good.failed == good.attempted == 63

    right = harness.fig5_pass(TINY, 0, tmp_path, _pinned(digest))
    assert (right.failed, right.errors) == (0, [])

    wrong = harness.fig5_pass(TINY, 0, tmp_path, _pinned("0" * 64))
    assert wrong.failed == wrong.attempted
    assert "fig5-1" in wrong.errors[0]


def test_other_seeds_check_ratios_not_digests(tmp_path):
    out = harness.fig5_pass(TINY, 3, tmp_path, _pinned("0" * 64))
    assert out.failed == 0
    assert len(out.digests["fig5-1"]) == 64


def test_theorem_pins_are_checked():
    out = harness.theorem_pass(0, EXPECTED)
    assert (out.attempted, out.failed) == (8, 0)
    broken = json.loads(json.dumps(EXPECTED))
    broken["theorems"]["thm6"][0] += 1e-9
    out = harness.theorem_pass(0, broken)
    assert out.failed == 1 and "thm6" in out.errors[0]


def test_traced_theorem_replay_matches_registry_run():
    ledger = Ledger()
    traced = harness.theorem_pass(1, EXPECTED, ledger)
    assert traced.failed == 0
    assert ledger.seconds["reference.alg"] > 0
    assert ledger.seconds["opt.scripted"] > 0


def test_every_metric_name_is_valid_and_declared():
    declared_e2e = [m["name"] for m in SPEC["end_to_end"]]
    declared_layer = [m["name"] for m in SPEC["per_layer"]]
    passes = [harness.PassResult(ref_wall_s=1.0, ref_cpu_s=1.0, attempted=4)]
    e2e = harness.end_to_end(passes, [0.3], 50.0)
    layer = harness.layer_metrics(harness.roster(), Ledger(), 1.0, 0.9)
    layer["fail_rate"] = 0.0  # run.py adds it over all passes of a run
    assert sorted(e2e) == sorted(declared_e2e)
    assert sorted(layer) == sorted(declared_layer)
    for name in declared_e2e + declared_layer:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert len(set(declared_e2e + declared_layer)) == len(
        declared_e2e + declared_layer
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_fast_options_follow_the_run_panel_signature():
    def flipped(panel, *, n_slots=2000, seeds=(0,), trace_reuse=False):
        raise NotImplementedError

    assert harness.fast_options(flipped) == {"trace_reuse": True}
    assert harness.fast_options() == harness.FAST_OPTIONS


def test_exact_count_mismatch_is_reported():
    a, b = Ledger(), Ledger()
    a.add("engine.slots", 10)
    b.add("engine.slots", 10)
    assert harness.exact_count_mismatches(a, b) == []
    b.add("opt.runs")
    assert harness.exact_count_mismatches(a, b) == ["opt.runs: 0 != 1"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorems",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_stopwatch_rescales_own_cpu_and_keeps_waiting(monkeypatch):
    import hostspeed

    # A host running at half the reference speed.
    monkeypatch.setattr(
        hostspeed,
        "kernel_seconds",
        lambda clock: 2 * hostspeed.REFERENCE_KERNEL_S,
    )
    clock = hostspeed.Stopwatch()
    time.sleep(0.05)  # waiting: no CPU of ours
    deadline = time.process_time() + 0.05
    while time.process_time() < deadline:
        pass
    clock.mark()
    assert abs(clock.speed - 0.5) < 1e-12
    expected = clock.host_s - clock.busy_s / 2
    assert clock.busy_s >= 0.05
    assert abs(clock.reference_wall() - expected) < 1e-9
    idle = hostspeed.Stopwatch(calibrate=False)
    idle.mark()
    assert idle.speed == 1.0 and idle.reference_wall() == idle.host_s


def test_child_peaks_sum_live_children():
    peaks = harness.ChildPeaks()
    waiter = "import sys; print('up', flush=True); sys.stdin.read()"
    children = [
        subprocess.Popen([sys.executable, "-c", waiter],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        for _ in range(2)
    ]
    try:
        for child in children:
            assert child.stdout.readline() == b"up\n"
        peaks.sample()
    finally:
        for child in children:
            child.communicate(b"", timeout=30)
    assert sorted(peaks.kb) == sorted(str(c.pid) for c in children)
    assert peaks.total() > 2 * 1024  # two interpreters, over 1 MiB each
    one = harness.PassResult(worker_peaks=peaks)
    assert harness.peak_rss_mb([one]) * 1024 > peaks.total()
