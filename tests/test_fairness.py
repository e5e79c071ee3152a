"""Tests for the fairness metrics."""

import pytest

from repro.analysis.fairness import (
    FairnessReport,
    jain_index,
    service_profile,
    work_normalized_shares,
)
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.core.metrics import SwitchMetrics
from repro.core.packet import Packet


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_index([5.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_defined_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_scale_invariant(self):
        a = jain_index([1.0, 2.0, 3.0])
        b = jain_index([10.0, 20.0, 30.0])
        assert a == pytest.approx(b)

    def test_monotone_in_skew(self):
        assert jain_index([1, 1, 1, 1]) > jain_index([2, 1, 1, 0])
        assert jain_index([2, 1, 1, 0]) > jain_index([4, 0, 0, 0])

    def test_validation(self):
        with pytest.raises(ConfigError):
            jain_index([])
        with pytest.raises(ConfigError):
            jain_index([1.0, -1.0])


class TestWorkShares:
    def _metrics(self, config, transmitted):
        metrics = SwitchMetrics(n_ports=config.n_ports)
        for port, count in enumerate(transmitted):
            metrics.record_transmissions(
                [Packet(port=port, work=config.work_of(port))] * count
            )
        return metrics

    def test_shares_weighted_by_work(self):
        config = SwitchConfig.from_works((1, 3), 8)
        metrics = self._metrics(config, [3, 1])
        shares = work_normalized_shares(config, metrics)
        # 3 packets x work 1 = 3; 1 packet x work 3 = 3 -> equal shares.
        assert shares == pytest.approx([0.5, 0.5])

    def test_idle_run(self):
        config = SwitchConfig.from_works((1, 2), 4)
        metrics = SwitchMetrics(n_ports=2)
        assert work_normalized_shares(config, metrics) == [0.0, 0.0]

    def test_service_profile_summary(self):
        config = SwitchConfig.from_works((1, 2), 4)
        metrics = self._metrics(config, [4, 2])
        report = service_profile(config, metrics)
        assert isinstance(report, FairnessReport)
        assert report.work_jain == pytest.approx(1.0)
        assert report.packet_jain < 1.0
        assert "Jain" in report.summary()


class TestEndToEndFairness:
    def test_lwd_work_fairer_than_single_queue_pq(self):
        """The architecture claim in fairness-index form: under overload
        LWD's per-class work shares are far more even than SQ-PQ's."""
        from repro.analysis.competitive import PolicySystem, run_system
        from repro.policies import make_policy
        from repro.singlequeue import SingleQueueSystem
        from repro.traffic.columnar import columnar_processing_workload

        config = SwitchConfig.contiguous(6, 48)
        trace = columnar_processing_workload(
            config, 1200, load=3.0, seed=5
        ).to_trace()

        lwd = PolicySystem(config, make_policy("LWD"))
        run_system(lwd, trace)
        pq = SingleQueueSystem(config, discipline="pq")
        run_system(pq, trace)

        lwd_fair = service_profile(config, lwd.metrics)
        pq_fair = service_profile(config, pq.metrics)
        assert lwd_fair.work_jain > pq_fair.work_jain
        assert lwd_fair.min_work_share > 0.0
