"""Tests for the Theorem 7 mapping certificate checker."""

import pytest

from repro.analysis.mapping import MappingChecker, certify_lwd
from repro.core.config import QueueDiscipline, SwitchConfig
from repro.core.errors import ConfigError
from repro.opt.scripted import ScriptedPolicy
from repro.policies import make_policy
from repro.traffic.adversarial import thm1_nhst, thm4_lqd, thm5_bpd, thm6_lwd
from repro.traffic.columnar import columnar_processing_workload
from repro.traffic.trace import Trace, burst


class TestValidation:
    def test_requires_fifo(self):
        with pytest.raises(ConfigError):
            MappingChecker(SwitchConfig.value_contiguous(3, 6))

    def test_requires_unit_speedup(self):
        with pytest.raises(ConfigError):
            MappingChecker(SwitchConfig.contiguous(3, 6, speedup=2))

    def test_rejects_push_out_reference(self):
        config = SwitchConfig.contiguous(3, 6)
        with pytest.raises(ConfigError):
            MappingChecker(config).run(Trace([[]]), make_policy("LQD"))


class TestAgainstScriptedOpt:
    """Against the proofs' own OPT strategies the *full* Lemma 8
    mechanism verifies — every latency invariant, at every step."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: thm6_lwd(buffer_size=48, rounds=1),
            lambda: thm6_lwd(buffer_size=96, rounds=2),
            lambda: thm4_lqd(k=9, buffer_size=108, rounds=1),
            lambda: thm5_bpd(k=5, buffer_size=30, n_slots=150),
            lambda: thm1_nhst(k=5, buffer_size=60, rounds=1),
        ],
    )
    def test_lemma_clean_on_adversarial_traces(self, build):
        scenario = build()
        report = certify_lwd(
            scenario.trace, scenario.config, ScriptedPolicy()
        )
        assert report.lemma_clean, report.violations[:3]
        assert report.charge_ratio <= 2.0


class TestAgainstArbitraryReferences:
    """Against arbitrary non-push-out references the 2x *accounting*
    always holds; the intermediate latency invariants may not (see the
    module docstring — LWD can push out partially-processed singletons)."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("ref_name", ["NEST", "NHST", "NHDT"])
    def test_accounting_certified(self, seed, ref_name):
        config = SwitchConfig.contiguous(5, 20)
        trace = columnar_processing_workload(
            config, 150, load=4.0, seed=seed,
            mean_on_slots=8, mean_off_slots=72, n_sources=25,
        ).to_trace()
        report = certify_lwd(trace, config, make_policy(ref_name))
        assert report.certified, [
            str(v) for v in report.violations if v.severity == "accounting"
        ]
        assert report.charge_ratio <= 2.0

    def test_lemma_inversions_do_occur(self):
        """Document the finding: some random run produces a lemma-layer
        latency inversion (the checker is not vacuously green)."""
        config = SwitchConfig.contiguous(5, 20)
        warned = False
        for seed in range(12):
            trace = columnar_processing_workload(
                config, 150, load=4.0, seed=seed,
                mean_on_slots=8, mean_off_slots=72, n_sources=25,
            ).to_trace()
            for ref_name in ("NEST", "NHST", "NHDT"):
                report = certify_lwd(trace, config, make_policy(ref_name))
                if not report.lemma_clean:
                    warned = True
                    assert all(
                        v.severity == "lemma" for v in report.violations
                    )
        assert warned


class TestReportMechanics:
    def test_empty_trace(self):
        config = SwitchConfig.contiguous(2, 4)
        report = certify_lwd(Trace([[]]), config, ScriptedPolicy(strict=False))
        assert report.certified
        assert report.ref_transmitted == 0
        assert report.charge_ratio == 0.0

    def test_simple_identical_schedules(self):
        # Both LWD and the scripted OPT accept the same two packets.
        config = SwitchConfig.contiguous(2, 4)
        trace = Trace()
        trace.append_slot(
            burst(0, port=0, count=2, work=1, opt_accept_first=2)
        )
        report = certify_lwd(trace, config, ScriptedPolicy())
        assert report.lemma_clean
        assert report.ref_transmitted == report.lwd_transmitted == 2
        assert report.charge_ratio == 1.0

    def test_summary_strings(self):
        config = SwitchConfig.contiguous(2, 4)
        trace = Trace()
        trace.append_slot(
            burst(0, port=0, count=1, work=1, opt_accept_first=1)
        )
        report = certify_lwd(trace, config, ScriptedPolicy())
        assert "CERTIFIED" in report.summary()
