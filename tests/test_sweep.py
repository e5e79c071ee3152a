"""Tests for the parameter-sweep harness."""

import csv

import pytest

from repro.analysis.sweep import run_sweep
from repro.core.config import SwitchConfig
from repro.core.errors import ConfigError
from repro.traffic.columnar import columnar_processing_workload


def tiny_sweep(seeds=(0,), policies=("LWD", "LQD")):
    return run_sweep(
        name="tiny",
        param_name="k",
        param_values=(2, 3),
        config_factory=lambda v: SwitchConfig.contiguous(int(v), 12),
        trace_factory=lambda config, v, seed: columnar_processing_workload(
            config, 100, load=3.0, seed=seed,
            mean_on_slots=5, mean_off_slots=45, n_sources=20,
        ).to_trace(),
        policy_names=policies,
        seeds=seeds,
        by_value=False,
    )


class TestRunSweep:
    def test_point_count(self):
        result = tiny_sweep(seeds=(0, 1))
        # 2 params x 2 policies x 2 seeds
        assert len(result.points) == 8

    def test_policies_and_values_listed(self):
        result = tiny_sweep()
        assert result.policies() == ["LWD", "LQD"]
        assert result.param_values() == [2.0, 3.0]

    def test_series_aggregates_seeds(self):
        result = tiny_sweep(seeds=(0, 1, 2))
        series = result.series("LWD")
        assert len(series) == 2
        value, summary = series[0]
        assert value == 2.0
        assert summary.n == 3

    def test_ratios_at_least_one(self):
        result = tiny_sweep()
        assert all(p.ratio >= 0.99 for p in result.points)

    def test_empty_params_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(
                "x", "k", (), lambda v: None, lambda c, v, s: None, ("LWD",)
            )

    def test_empty_policies_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep(
                "x", "k", (1,), lambda v: None, lambda c, v, s: None, ()
            )


class TestOutputs:
    def test_csv_roundtrip(self, tmp_path):
        result = tiny_sweep()
        path = tmp_path / "out" / "sweep.csv"
        result.to_csv(path)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "k", "policy", "seed", "ratio", "alg_objective", "opt_objective",
        ]
        assert len(rows) == 1 + len(result.points)

    def test_format_table_layout(self):
        result = tiny_sweep()
        table = result.format_table()
        lines = table.splitlines()
        assert "LWD" in lines[0] and "LQD" in lines[0]
        assert len(lines) == 3  # header + two parameter values
