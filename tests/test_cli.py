from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import pytest

from conftest import write_penalty_lines
from forge import experiments
from forge.cli import build_parser, main
from forge.metrics import make_reference_penalty_log
from forge.protocol import Condition

CONFIG = """
transfer_strategy: best
instances: 2
stages: 2
attempts_per_stage: 2
backend: scripted
base_seed: 31
"""

# (config key, YAML value) pairs the run verb must refuse with exit code 2.
# The worker count is derived from the backend, so ``max_workers`` is an
# unknown key, also as the ``max_workers: null`` of older run directories.
# Both thresholds must be finite.
BAD_VALUES = [
    ("graduation_enabled", "'false'"),
    ("memory_capacity", "2.9"),
    ("eval_episodes_per_instance", "true"),
    ("graduation_threshold", "'-15'"),
    ("max_workers", "3"),
    ("max_workers", "null"),
    ("failure_trigger", ".nan"),
    ("failure_trigger", ".inf"),
    ("failure_trigger", "-.inf"),
    ("graduation_threshold", ".nan"),
    ("graduation_threshold", ".inf"),
    ("graduation_threshold", "-.inf"),
]


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

    def test_file_as_run_dir_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        run_dir = tmp_path / "session"
        run_dir.write_text("x")
        assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert run_dir.read_text() == "x"

    def test_run_dir_under_a_file_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        parent = tmp_path / "afile"
        parent.write_text("x")
        for run_dir in (parent / "sub", parent / "sub" / "deeper"):
            assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2
            assert "not a directory" in capsys.readouterr().err
        assert parent.read_text() == "x"

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(
            ["run", "--config", str(tmp_path / "none.yaml"), "--run-dir", str(tmp_path / "s")]
        )
        assert code == 2

    def test_invalid_config_value_is_config_error(self, tmp_path):
        config = write_config(tmp_path, "instances: 0\n")
        code = main(["run", "--config", str(config), "--run-dir", str(tmp_path / "s")])
        assert code == 2

    @pytest.mark.parametrize("key, value", BAD_VALUES, ids=[f"{k}={v}" for k, v in BAD_VALUES])
    def test_bad_max_workers_is_config_error(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, CONFIG + f"{key}: {value}\n")
        run_dir = tmp_path / "s"
        assert main(["run", "--config", str(config), "--run-dir", str(run_dir)]) == 2
        assert key in capsys.readouterr().err
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


class TestStudyVerb:
    def test_study_prints_its_table(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "instances: 2\nstages: 1\nattempts_per_stage: 1\nbackend: scripted\n"
        )
        assert main(["study", "--config", str(config), "--seeds", "2", "--first-seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["seed", "broadcast", "isolated", "zero-shot", "ordered"]
        assert [line.split()[0] for line in lines[1:3]] == ["3", "4"]
        assert lines[3].startswith("ordering holds in ")
        assert re.fullmatch(r"broadcast against isolated: \d+ won, \d+ tied, \d+ lost", lines[4])
        assert len(lines) == 5

    def test_table_counts_strict_wins_exact_ties_and_losses(self):
        # (seed, broadcast, isolated, zero-shot): a win, a tie and a loss
        means = [(1, -19.0, -25.0, -50.0), (2, -20.0, -20.0, -50.0), (3, -30.0, -21.0, -50.0)]
        result = experiments.DirectionalStudyResult(
            comparisons=[experiments.SeedComparison(*row) for row in means]
        )
        lines = experiments.render_study_table(result).splitlines()
        # A tie counts as ordered, and only as tied against isolated.
        assert [line.split()[-1] for line in lines[1:4]] == ["yes", "yes", "NO"]
        assert lines[-1] == "broadcast against isolated: 1 won, 1 tied, 1 lost"

    def test_run_sizes_come_from_the_config(self, tmp_path, monkeypatch):
        configs = []
        run_protocol = experiments.run_protocol

        def recording_run(config, *args, **kwargs):
            configs.append(config)
            return run_protocol(config, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_protocol", recording_run)
        config = write_config(
            tmp_path,
            "instances: 3\nstages: 1\nattempts_per_stage: 1\ntransfer_strategy: individual\n",
        )
        assert main(["study", "--config", str(config), "--seeds", "1", "--first-seed", "5"]) == 0
        assert [(c.instances, c.stages, c.attempts_per_stage) for c in configs] == [(3, 1, 1)] * 2
        # The study sets each run's base seed and transfer strategy itself.
        assert [(c.base_seed, c.condition) for c in configs] == [
            (5, Condition.FORGE),
            (5, Condition.REFLEXION),
        ]

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_non_positive_seeds_is_config_error(self, tmp_path, capsys, seeds):
        config = write_config(tmp_path)
        assert main(["study", "--config", str(config), "--seeds", seeds]) == 2
        assert "--seeds" in capsys.readouterr().err


class TestAnalyzeTrigger:
    def test_reference_log_report(self, tmp_path, capsys):
        log_path = tmp_path / "penalties.log"
        write_penalty_lines(make_reference_penalty_log(), log_path)
        assert main(["analyze-trigger", "--log", str(log_path), "--tau", "-1.1"]) == 0
        out = capsys.readouterr().out
        assert "precision: 1.000" in out
        assert "recall: 0.740" in out
        assert "7346 of 9926" in out

    def test_reference_census_without_log(self, capsys):
        assert main(["analyze-trigger", "--tau", "-1.1"]) == 0
        out = capsys.readouterr().out
        assert "precision: 1.000" in out
        assert "recall: 0.740" in out
        assert "7346 of 9926" in out

    def test_one_block_per_tau_in_order(self, capsys):
        assert main(["analyze-trigger", "--tau", "-2.0", "-0.5", "-1.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 * 5
        assert lines[0::5] == ["threshold tau=-2.0", "threshold tau=-0.5", "threshold tau=-1.1"]
        assert lines[1::5] == [
            "true triggers captured: 4359 of 9926",
            "true triggers captured: 9926 of 9926",
            "true triggers captured: 7346 of 9926",
        ]
        assert lines[2] == "false positives: 0" and lines[7] == "false positives: 3520"

    def test_missing_log_is_config_error(self, tmp_path):
        assert main(["analyze-trigger", "--log", str(tmp_path / "no.log"), "--tau", "-1.1"]) == 2

    @pytest.mark.parametrize(
        "taus",
        [
            pytest.param(["--tau", "-1.1", "0.5"], id="0.5"),
            pytest.param(["--tau", "-1.1", "0"], id="0"),
            pytest.param(["--tau", "-1.1", "nan"], id="nan"),
            # "--tau=" lets argparse read "-inf" as a value, not as an option.
            pytest.param(["--tau=-inf"], id="-inf"),
        ],
    )
    def test_non_negative_tau_is_config_error(self, capsys, taus):
        assert main(["analyze-trigger", *taus]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--tau" in err

    @pytest.mark.parametrize(
        "bad_line",
        [
            "reward=0.5 restore=0",
            "reward=0 restore=1",
            "reward=-1.0 restore=7",
            "garbage",
            "reward=-1.0 restore=1 reward=-5.0",
            "reward=-1.0 restore=1 colour=red",
        ],
    )
    def test_bad_log_line_is_config_error_naming_its_line(self, tmp_path, capsys, bad_line):
        log_path = tmp_path / "penalties.log"
        log_path.write_text(f"# census\nreward=-1.0 restore=1\n{bad_line}\n", encoding="utf-8")
        assert main(["analyze-trigger", "--log", str(log_path), "--tau", "-1.1"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 3" in err

    @pytest.mark.parametrize("text", ["", "# census\n\n"])
    def test_log_without_penalty_lines_is_config_error_naming_it(self, tmp_path, capsys, text):
        log_path = tmp_path / "penalties.log"
        log_path.write_text(text, encoding="utf-8")
        assert main(["analyze-trigger", "--log", str(log_path), "--tau", "-1.1"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(log_path) in err


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

    def test_nan_tau_is_config_error_before_any_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config), "--tau", "-1.1", "nan", "--out", str(out)])
        assert code == 2
        assert "failure_trigger" in capsys.readouterr().err
        assert not out.exists()

    def test_used_out_directory_is_config_error_before_any_run(self, tmp_path, capsys):
        config = write_config(tmp_path, CONFIG.replace("stages: 2", "stages: 1"))
        out = tmp_path / "sweep"
        (out / "tau_-2.0").mkdir(parents=True)
        (out / "tau_-2.0" / "stage_summary_03.json").write_text("{}")
        code = main(["sweep", "--config", str(config), "--tau", "-1.1", "-2.0", "--out", str(out)])
        assert code == 2
        assert "not empty" in capsys.readouterr().err
        assert not (out / "tau_-1.1").exists()

    def test_out_under_a_file_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "afile"
        out.write_text("x")
        code = main(["sweep", "--config", str(config), "--tau", "-1.1", "--out", str(out)])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err
        assert out.read_text() == "x"

    def test_repeated_tau_is_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(config), "--tau", "-1.1", "-1.10", "--out", str(out)])
        assert code == 2
        assert "distinct" in capsys.readouterr().err
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


    @pytest.mark.parametrize("text", ["[]", '{"eval_returns": null}'])
    def test_wrongly_shaped_report_is_a_skipped_session(self, tmp_path, capsys, text):
        config = write_config(tmp_path)
        good = tmp_path / "good"
        assert main(["run", "--config", str(config), "--run-dir", str(good)]) == 0
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "final_report.json").write_text(text)
        capsys.readouterr()
        assert main(["aggregate", "--sessions", str(good), str(bad)]) == 0
        out = capsys.readouterr().out
        skipped = out.split("skipped sessions:\n", 1)[1].splitlines()
        assert len(skipped) == 1 and str(bad) in skipped[0]
        assert "best/rules" in out


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


def test_readme_command_block_lists_every_verb():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    verbs = set(re.findall(r"^forge ([\w-]+)", block, flags=re.MULTILINE))
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert verbs == set(subparsers.choices)
