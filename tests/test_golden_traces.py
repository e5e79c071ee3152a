"""Golden-trace regression tests: frozen ratios + seed-derivation audit.

One small panel per traffic regime (processing, value-uniform,
value-port) is pinned to the exact competitive ratios it produced when
the parallel sweep engine landed. Workload generation, the simulation
engine, and the OPT surrogate are all deterministic given (config, value,
seed), so any silent drift — an RNG consuming differently, a policy
tie-break change, a surrogate edit — shows up here as a precise diff
instead of a vague downstream shape change.

The second half audits the seed contract of :func:`repro.analysis.sweep.
run_sweep`: the user-supplied seed reaches the trace factory unmodified,
the trace is generated exactly once per (value, seed) cell, and every
policy in a cell is measured on that one trace. This is the invariant
that makes per-policy ratios comparable and that the parallel engine is
required to preserve.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep import run_sweep
from repro.core.config import SwitchConfig
from repro.experiments.fig5 import run_panel
from repro.traffic.columnar import columnar_processing_workload

#: Tolerance for frozen ratios. The runs are bit-deterministic on one
#: platform; the relative slack only absorbs cross-platform libm noise
#: in the MMPP exponential draws, and is far tighter than any real drift.
GOLDEN = pytest.approx


class TestGoldenPanels:
    """Frozen (panel, value, policy) -> ratio from 200-slot, seed-0 runs."""

    def assert_ratios(self, result, expected):
        got = {
            (point.param_value, point.policy): point.ratio
            for point in result.points
        }
        assert got.keys() == expected.keys()
        for cell, ratio in expected.items():
            assert got[cell] == GOLDEN(ratio, rel=1e-9), cell

    def test_processing_regime(self):
        result = run_panel(
            1,
            n_slots=200,
            seeds=(0,),
            param_values=(4, 12),
            policies=("LWD", "LQD", "NEST"),
        )
        self.assert_ratios(
            result,
            {
                (4.0, "LWD"): 1.3590361445783132,
                (4.0, "LQD"): 1.3590361445783132,
                (4.0, "NEST"): 1.3590361445783132,
                (12.0, "LWD"): 1.6235294117647059,
                (12.0, "LQD"): 1.7206982543640899,
                (12.0, "NEST"): 1.8904109589041096,
            },
        )

    def test_value_uniform_regime(self):
        result = run_panel(
            4,
            n_slots=200,
            seeds=(0,),
            param_values=(8,),
            policies=("Greedy", "MVD", "LQD-V"),
        )
        self.assert_ratios(
            result,
            {
                (8.0, "Greedy"): 3.2383351007423116,
                (8.0, "MVD"): 1.1112627365356622,
                (8.0, "LQD-V"): 1.233464606684843,
            },
        )

    def test_value_port_regime(self):
        result = run_panel(
            7,
            n_slots=200,
            seeds=(0,),
            param_values=(4, 12),
            policies=("MRD", "LQD-V", "NEST"),
        )
        self.assert_ratios(
            result,
            {
                (4.0, "MRD"): 1.5220966084275436,
                (4.0, "LQD-V"): 1.5012671059300557,
                (4.0, "NEST"): 1.5135411343893714,
                (12.0, "MRD"): 2.792737430167598,
                (12.0, "LQD-V"): 2.912830672415802,
                (12.0, "NEST"): 3.401143012654783,
            },
        )


def _fingerprint(trace):
    return tuple(
        tuple((p.port, p.work, p.value) for p in burst) for burst in trace
    )


class TestSeedDerivation:
    """The seed contract behind every ratio comparison."""

    @staticmethod
    def _sweep(trace_factory, seeds=(0, 7)):
        return run_sweep(
            name="audit",
            param_name="k",
            param_values=(2, 3),
            config_factory=lambda v: SwitchConfig.contiguous(int(v), 12),
            trace_factory=trace_factory,
            policy_names=("LWD", "LQD", "NEST"),
            seeds=seeds,
            by_value=False,
        )

    def _make_workload(self, config, seed):
        return columnar_processing_workload(
            config, 60, load=3.0, seed=seed,
            mean_on_slots=5, mean_off_slots=45, n_sources=20,
        ).to_trace()

    def test_trace_built_once_per_cell_with_verbatim_seed(self):
        calls = []

        def counting_factory(config, value, seed):
            calls.append((value, seed))
            return self._make_workload(config, seed)

        self._sweep(counting_factory)
        # One trace per (value, seed) cell — never one per policy — and
        # the user's seeds arrive unmodified, in the canonical order.
        assert calls == [(2, 0), (2, 7), (3, 0), (3, 7)]

    def test_all_policies_in_a_cell_see_the_same_trace(self):
        seen = {}

        def recording_factory(config, value, seed):
            trace = self._make_workload(config, seed)
            key = (value, seed)
            assert key not in seen, "cell trace generated twice"
            seen[key] = _fingerprint(trace)
            return trace

        result = self._sweep(recording_factory)
        # Three policies per cell, each measured against the single
        # recorded trace: equal opt_objective within a cell is only
        # possible when arrivals are identical.
        for value, seed in seen:
            opts = {
                point.opt_objective
                for point in result.points
                if point.param_value == value and point.seed == seed
            }
            assert len(opts) == 1

    def test_trace_depends_only_on_config_value_seed(self):
        config = SwitchConfig.contiguous(3, 12)
        first = self._make_workload(config, seed=5)
        second = self._make_workload(config, seed=5)
        other_seed = self._make_workload(config, seed=6)
        assert _fingerprint(first) == _fingerprint(second)
        assert _fingerprint(first) != _fingerprint(other_seed)
