"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestModuleEntry:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "fig5-1" in result.stdout


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5-1" in out and "thm11" in out

    def test_lists_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "LWD" in out and "MRD" in out and "processing" in out


class TestRun:
    def test_run_theorem(self, capsys):
        assert main(["run", "thm10"]) == 0
        out = capsys.readouterr().out
        assert "predicted ratio" in out
        assert "measured ratio" in out

    def test_run_panel_with_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "panel.csv"
        assert (
            main(["run", "fig5-1", "--slots", "60", "--seeds", "0",
                  "--out", str(out_csv)])
            == 0
        )
        assert out_csv.exists()
        out = capsys.readouterr().out
        assert "LWD" in out

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig5-77"]) == 1
        assert "error" in capsys.readouterr().err


class TestCertify:
    def test_certifies_processing_theorem(self, capsys):
        assert main(["certify", "thm6", "--buffer", "48"]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED" in out

    def test_rejects_value_model_theorem(self, capsys):
        assert main(["certify", "thm11", "--buffer", "48"]) == 2
        assert "C = 1" in capsys.readouterr().err

    def test_unknown_theorem(self, capsys):
        assert main(["certify", "thm99"]) == 2


class TestProbe:
    def test_probe_reports_worst_ratio(self, capsys):
        assert main(["probe", "MRD", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "worst ratio" in out

    def test_probe_with_climb(self, capsys):
        assert main(
            ["probe", "Greedy", "--trials", "10", "--climb",
             "--restarts", "1", "--steps", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "hill-climb" in out


class TestScenario:
    def test_scenario_custom_sizes(self, capsys):
        assert main(["scenario", "thm5", "--k", "6", "--buffer", "60"]) == 0
        out = capsys.readouterr().out
        assert "BPD" in out

    def test_scenario_buffer_only_theorems(self, capsys):
        assert main(["scenario", "thm6", "--buffer", "48"]) == 0
        assert "LWD" in capsys.readouterr().out

    def test_unknown_theorem(self, capsys):
        assert main(["scenario", "thm2"]) == 2
        assert "unknown theorem" in capsys.readouterr().err

    def test_infeasible_size_reports_error(self, capsys):
        # Theorem 5 requires B >= k(k+1)/2.
        assert main(["scenario", "thm5", "--k", "10", "--buffer", "12"]) == 1
        assert "error" in capsys.readouterr().err


class TestTrace:
    def test_verify_missing_file_is_one_error_line(self, capsys, tmp_path):
        missing = tmp_path / "missing.jsonl"
        assert main(["trace", "--verify", str(missing)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestUnwritableOrMissingPaths:
    def _assert_one_error_line(self, capsys):
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err

    def test_bench_missing_baseline_is_one_error_line(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(
            ["bench", "--baseline", str(missing), "--panels",
             "uniform-proc-small", "--out-dir", str(tmp_path)]
        ) == 2
        self._assert_one_error_line(capsys)
        assert list(tmp_path.iterdir()) == []  # failed before measuring

    def test_report_unwritable_out_is_one_error_line(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = blocker / "report.md"
        assert main(
            ["report", "--out", str(out), "--slots", "20", "--panels"]
        ) == 2
        self._assert_one_error_line(capsys)
        assert not out.exists()
