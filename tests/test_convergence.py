"""Tests for the horizon-convergence analysis."""

import pytest

from repro.analysis.convergence import (
    ConvergencePoint,
    convergence_profile,
)
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.policies import make_policy
from repro.traffic.columnar import columnar_processing_workload


@pytest.fixture(scope="module")
def setup():
    config = SwitchConfig.contiguous(6, 48)
    trace = columnar_processing_workload(
        config, 1500, load=3.0, seed=2,
        mean_on_slots=20, mean_off_slots=380,
    ).to_trace()
    return config, trace


class TestProfile:
    def test_checkpoints_default_to_ten(self, setup):
        config, trace = setup
        profile = convergence_profile(
            make_policy("LWD"), trace, config, flush_every=300
        )
        assert len(profile.points) == 10
        assert profile.points[-1].slots == 1500

    def test_custom_checkpoints(self, setup):
        config, trace = setup
        profile = convergence_profile(
            make_policy("LWD"), trace, config, checkpoints=(100, 700, 1500)
        )
        assert [p.slots for p in profile.points] == [100, 700, 1500]

    def test_objectives_monotone_in_horizon(self, setup):
        config, trace = setup
        profile = convergence_profile(make_policy("LWD"), trace, config)
        algs = [p.alg_objective for p in profile.points]
        opts = [p.opt_objective for p in profile.points]
        assert algs == sorted(algs)
        assert opts == sorted(opts)

    def test_final_matches_direct_measurement(self, setup):
        from repro.analysis.competitive import measure_competitive_ratio

        config, trace = setup
        profile = convergence_profile(
            make_policy("LWD"), trace, config, flush_every=300
        )
        direct = measure_competitive_ratio(
            make_policy("LWD"), trace, config,
            by_value=False, flush_every=300,
        )
        assert profile.final_ratio == pytest.approx(direct.ratio)

    def test_settles_within_horizon(self, setup):
        """The EXPERIMENTS.md claim: the cumulative ratio settles to
        within a few percent well before the end of a laptop-scale run."""
        config, trace = setup
        profile = convergence_profile(
            make_policy("LWD"), trace, config, flush_every=300
        )
        settled = profile.settled_after(tolerance=0.05)
        assert settled is not None
        assert settled <= 1200

    def test_bad_checkpoints_rejected(self, setup):
        config, trace = setup
        with pytest.raises(ConfigError):
            convergence_profile(
                make_policy("LWD"), trace, config, checkpoints=(0,)
            )
        with pytest.raises(ConfigError):
            convergence_profile(
                make_policy("LWD"), trace, config, checkpoints=(99_999,)
            )

    def test_format_table(self, setup):
        config, trace = setup
        profile = convergence_profile(
            make_policy("LWD"), trace, config, checkpoints=(500, 1500)
        )
        table = profile.format_table()
        assert "500" in table and "ratio" in table


class TestPrefixSupremum:
    def test_at_least_final(self, setup):
        config, trace = setup
        profile = convergence_profile(
            make_policy("LWD"), trace, config, flush_every=300
        )
        assert profile.prefix_supremum >= profile.final_ratio

    def test_empty_profile(self):
        from repro.analysis.convergence import ConvergenceProfile

        assert ConvergenceProfile("x", []).prefix_supremum == 1.0

    def test_infinite_checkpoints_skipped(self):
        from repro.analysis.convergence import (
            ConvergencePoint,
            ConvergenceProfile,
        )

        profile = ConvergenceProfile(
            "x",
            [ConvergencePoint(1, 0.0, 5.0), ConvergencePoint(2, 4.0, 6.0)],
        )
        assert profile.prefix_supremum == pytest.approx(1.5)


class TestScriptedOptProfiles:
    def test_mrd_prefix_supremum_near_four_thirds(self):
        """The THEOREMS.md claim: on MRD's own nemesis (Theorem 11) the
        prefix-ratio supremum — a lower bound on any charging constant —
        stays near 4/3, supporting the O(1) conjecture."""
        from repro.traffic.adversarial import thm11_mrd

        scenario = thm11_mrd(buffer_size=240, rounds=2)
        profile = convergence_profile(
            make_policy("MRD"), scenario.trace, scenario.config,
            checkpoints=range(20, scenario.trace.n_slots + 1, 20),
            opt="scripted",
        )
        assert 1.25 <= profile.prefix_supremum <= 1.45

    def test_unknown_opt_rejected(self, setup):
        config, trace = setup
        with pytest.raises(ConfigError):
            convergence_profile(
                make_policy("LWD"), trace, config, opt="magic"
            )


class TestPointMath:
    def test_ratio_edge_cases(self):
        assert ConvergencePoint(1, 0.0, 0.0).ratio == 1.0
        assert ConvergencePoint(1, 0.0, 3.0).ratio == float("inf")
        assert ConvergencePoint(1, 2.0, 3.0).ratio == 1.5
