"""End-to-end integration tests across the full stack.

These replay realistic MMPP workloads through every registered policy,
compare against the OPT surrogate, and check cross-cutting facts the unit
tests cannot see: ratio orderings the paper reports, flushout behaviour
over long runs, and agreement between independent components (trace
serialization -> replay, registry -> policies -> engine -> analysis).
"""

import pytest

from repro.analysis.competitive import measure_competitive_ratio
from repro.core.config import SwitchConfig
from repro.policies import available_policies, make_policy
from repro.traffic.columnar import (
    columnar_processing_workload,
    columnar_value_port_workload,
    columnar_value_uniform_workload,
)
from repro.traffic.trace import Trace


def paper_policies(model):
    """The paper's own line-up, excluding this repo's extension policies."""
    return [
        entry
        for entry in available_policies(model)
        if not entry.summary.startswith("[extension]")
    ]


@pytest.fixture(scope="module")
def proc_setup():
    config = SwitchConfig.contiguous(8, 64)
    trace = columnar_processing_workload(
        config, 1200, load=3.0, seed=7,
        mean_on_slots=20, mean_off_slots=1980,
    ).to_trace()
    return config, trace


@pytest.fixture(scope="module")
def value_setup():
    config = SwitchConfig.value_contiguous(8, 64)
    trace = columnar_value_port_workload(
        config, 1200, load=3.0, seed=7,
        mean_on_slots=20, mean_off_slots=1980,
    ).to_trace()
    return config, trace


class TestProcessingModelEndToEnd:
    def test_every_policy_completes_and_is_plausible(self, proc_setup):
        config, trace = proc_setup
        for entry in paper_policies("processing"):
            result = measure_competitive_ratio(
                make_policy(entry.name), trace, config,
                by_value=False, flush_every=400,
            )
            assert 0.99 <= result.ratio < 50, entry.name
            assert result.alg_metrics.transmitted_packets > 0, entry.name

    def test_paper_ordering_lwd_best(self, proc_setup):
        """Fig. 5 panels 1-3: LWD dominates; BPD is the worst preemptive
        policy; push-out policies beat their non-push-out counterparts."""
        config, trace = proc_setup
        ratios = {
            entry.name: measure_competitive_ratio(
                make_policy(entry.name), trace, config,
                by_value=False, flush_every=400,
            ).ratio
            for entry in paper_policies("processing")
        }
        assert ratios["LWD"] <= min(ratios.values()) + 1e-9
        assert ratios["BPD"] == max(ratios.values())
        assert ratios["BPD1"] < ratios["BPD"]
        assert ratios["LQD"] <= ratios["NEST"]

    def test_flushouts_do_not_change_ordering(self, proc_setup):
        config, trace = proc_setup
        pairs = {}
        for name in ("LWD", "BPD"):
            with_flush = measure_competitive_ratio(
                make_policy(name), trace, config,
                by_value=False, flush_every=300,
            ).ratio
            without = measure_competitive_ratio(
                make_policy(name), trace, config, by_value=False,
            ).ratio
            pairs[name] = (with_flush, without)
        assert pairs["LWD"][0] < pairs["BPD"][0]
        assert pairs["LWD"][1] < pairs["BPD"][1]


class TestValueModelEndToEnd:
    def test_every_policy_completes(self, value_setup):
        config, trace = value_setup
        for entry in paper_policies("value"):
            result = measure_competitive_ratio(
                make_policy(entry.name), trace, config,
                by_value=True, flush_every=400,
            )
            assert 0.99 <= result.ratio < 100, entry.name

    def test_paper_ordering_port_values(self, value_setup):
        """Fig. 5 panels 7-9: MRD best, noticeably ahead of LQD; MVD worst
        among push-out policies; greedy non-push-out far behind."""
        config, trace = value_setup
        ratios = {
            entry.name: measure_competitive_ratio(
                make_policy(entry.name), trace, config,
                by_value=True, flush_every=400,
            ).ratio
            for entry in paper_policies("value")
        }
        assert ratios["MRD"] <= ratios["LQD-V"]
        assert ratios["MRD"] < ratios["MVD"]
        assert ratios["MVD1"] <= ratios["MVD"]
        assert ratios["Greedy"] == max(ratios.values())

    def test_uniform_values_mrd_close_to_lqd(self):
        """Fig. 5 panel 4: with uniform values the MRD-LQD gap narrows."""
        config = SwitchConfig.uniform(
            8, 64, work=1,
            discipline=SwitchConfig.value_contiguous(2, 4).discipline,
        )
        trace = columnar_value_uniform_workload(
            config, 1200, max_value=8, load=3.0, seed=3,
        ).to_trace()
        mrd = measure_competitive_ratio(
            make_policy("MRD"), trace, config, by_value=True,
            flush_every=400,
        ).ratio
        lqd = measure_competitive_ratio(
            make_policy("LQD-V"), trace, config, by_value=True,
            flush_every=400,
        ).ratio
        assert mrd <= lqd
        assert lqd - mrd < 0.35


class TestTraceRoundtripReplay:
    def test_serialized_trace_reproduces_results(self, tmp_path, proc_setup):
        config, trace = proc_setup
        short = Trace(trace.slots[:200])
        path = tmp_path / "trace.jsonl"
        short.dump_jsonl(path)
        reloaded = Trace.load_jsonl(path)
        direct = measure_competitive_ratio(
            make_policy("LWD"), short, config, by_value=False
        )
        replayed = measure_competitive_ratio(
            make_policy("LWD"), reloaded, config, by_value=False
        )
        assert direct.alg_objective == replayed.alg_objective
        assert direct.opt_objective == replayed.opt_objective


class TestSpeedupBehaviour:
    def test_speedup_reduces_ratio_under_fixed_traffic(self):
        """Fig. 5 panel 3: with the offered load held fixed, higher
        per-queue speedup closes the gap to the surrogate."""
        base = SwitchConfig.contiguous(8, 64, speedup=1)
        trace = columnar_processing_workload(
            base, 1500, load=3.0, seed=11,
            mean_on_slots=20, mean_off_slots=1980,
        ).to_trace()
        ratios = []
        for speedup in (1, 4):
            config = SwitchConfig.contiguous(8, 64, speedup=speedup)
            ratios.append(
                measure_competitive_ratio(
                    make_policy("LWD"), trace, config,
                    by_value=False, flush_every=400,
                ).ratio
            )
        assert ratios[1] < ratios[0]

    def test_large_buffer_reduces_congestion(self):
        base = SwitchConfig.contiguous(8, 32)
        trace = columnar_processing_workload(
            base, 1500, load=3.0, seed=13,
            mean_on_slots=20, mean_off_slots=1980,
        ).to_trace()
        ratios = []
        for buffer_size in (32, 512):
            config = SwitchConfig.contiguous(8, buffer_size)
            ratios.append(
                measure_competitive_ratio(
                    make_policy("LWD"), trace, config,
                    by_value=False, flush_every=500,
                ).ratio
            )
        assert ratios[1] < ratios[0] + 0.05
