from __future__ import annotations

import json

import pytest

from forge.cli import main
from forge.metrics import make_reference_penalty_log, write_penalty_log

CONFIG = """
transfer_strategy: best
instances: 2
stages: 2
attempts_per_stage: 2
backend: scripted
base_seed: 31
"""

# (config key, YAML value) pairs the run verb must refuse with exit code 2.
BAD_VALUES = [
    *(("max_workers", v) for v in ("lots", "2.9", "true", "0")),
    ("graduation_enabled", "'false'"),
    ("memory_capacity", "2.9"),
    ("eval_episodes_per_instance", "true"),
    ("graduation_threshold", "'-15'"),
]
# The max_workers cases keep the bare-value ids they were first listed under.
BAD_VALUE_IDS = [v if k == "max_workers" else f"{k}={v}" for k, v in BAD_VALUES]


def write_config(tmp_path, text=CONFIG, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRunVerb:
    def test_run_succeeds_and_writes_session(self, tmp_path, capsys):
        config = write_config(tmp_path)
        run_dir = tmp_path / "session"
        assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "mean return" in out
        assert (run_dir / "final_report.json").exists()
        assert (run_dir / "config_source.yaml").exists()

    def test_existing_run_dir_is_config_error(self, tmp_path):
        config = write_config(tmp_path)
        run_dir = tmp_path / "session"
        run_dir.mkdir()
        (run_dir / "junk").write_text("x")
        assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(
            ["run", "--config", str(tmp_path / "none.yaml"), "--run-dir", str(tmp_path / "s")]
        )
        assert code == 2

    def test_invalid_config_value_is_config_error(self, tmp_path):
        config = write_config(tmp_path, "instances: 0\n")
        code = main(["run", "--config", str(config), "--run-dir", str(tmp_path / "s")])
        assert code == 2

    @pytest.mark.parametrize("key, value", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_bad_max_workers_is_config_error(self, tmp_path, key, value):
        config = write_config(tmp_path, CONFIG + f"{key}: {value}\n")
        run_dir = tmp_path / "s"
        assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2
        assert not run_dir.exists()

    def test_directory_as_config_is_config_error(self, tmp_path):
        run_dir = tmp_path / "s"
        assert main(["run", "--config", str(tmp_path), "--run-dir", str(run_dir)]) == 2
        assert not run_dir.exists()

    def test_non_utf8_config_is_config_error(self, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_bytes(CONFIG.encode("utf-8") + b"model: \xff\xfe\n")
        run_dir = tmp_path / "s"
        assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2
        assert not run_dir.exists()

    def test_null_max_workers_runs(self, tmp_path):
        config = write_config(tmp_path, CONFIG + "max_workers: null\n")
        assert main(["run", "--config", str(config), "--run-dir", str(tmp_path / "s")]) == 0


class TestAnalyzeTrigger:
    def test_reference_log_report(self, tmp_path, capsys):
        log_path = tmp_path / "penalties.log"
        write_penalty_log(make_reference_penalty_log(), log_path)
        assert main(["analyze-trigger", "--log", str(log_path), "--tau", "-1.1"]) == 0
        out = capsys.readouterr().out
        assert "precision: 1.000" in out
        assert "recall: 0.740" in out
        assert "7346 of 9926" in out

    def test_missing_log_is_config_error(self, tmp_path):
        assert main(["analyze-trigger", "--log", str(tmp_path / "no.log"), "--tau", "-1.1"]) == 2


class TestSweepVerb:
    def test_sweep_emits_table(self, tmp_path, capsys):
        config = write_config(tmp_path, CONFIG.replace("stages: 2", "stages: 1"))
        code = main(
            [
                "sweep",
                "--config",
                str(config),
                "--tau",
                "-1.1",
                "-20.0",
                "--out",
                str(tmp_path / "sweep"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "-1.1" in out and "-20.0" in out
        assert (tmp_path / "sweep" / "tau_-1.1" / "final_report.json").exists()


    def test_non_negative_tau_is_config_error(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config), "--tau", "-1.1", "0.5", "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestAggregateVerb:
    def test_aggregate_two_sessions(self, tmp_path, capsys):
        config = write_config(tmp_path)
        for name in ("a", "b"):
            assert (
                main(["run", "--config", str(config), "--run-dir", str(tmp_path / name)]) == 0
            )
        out_file = tmp_path / "aggregate.json"
        code = main(
            [
                "aggregate",
                "--sessions",
                str(tmp_path / "a"),
                str(tmp_path / "b"),
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["groups"]["best/rules"]["sessions"] == 2


class TestBaselinesVerb:
    def test_baselines_prints_targets(self, capsys):
        assert main(["baselines", "--episodes", "5", "--base-seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "sleep" in out and "random" in out and "heuristic" in out
        assert "-218.65" in out
        assert "[ -273.31, -163.99]  ok" in out  # sleep, inside target +/-25%
        assert "[  -73.54,  -44.12] OUT" in out  # heuristic, outside it over 5 episodes

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_non_positive_episodes_is_config_error(self, episodes, capsys):
        assert main(["baselines", "--episodes", episodes]) == 2
        assert "config error" in capsys.readouterr().err
