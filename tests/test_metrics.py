from __future__ import annotations

import json
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_penalty_lines
from forge.metrics import (
    PenaltyLogEntry,
    aggregate,
    load_session_summary,
    make_reference_penalty_log,
    read_penalty_log,
    render_aggregate_table,
    render_sweep_table,
    summarize_report,
    sweep_tau,
    tail_risk,
    trigger_analysis,
)
from forge.protocol import ConfigError, ProtocolConfig, run_protocol


class TestTailRisk:
    def test_counting(self):
        returns = [-50.0, -120.0, -160.0]
        assert tail_risk(returns, -100.0) == pytest.approx(2 / 3)
        assert tail_risk(returns, -150.0) == pytest.approx(1 / 3)

    def test_strict_inequality(self):
        assert tail_risk([-99.9], -100.0) == 0.0
        assert tail_risk([-100.0], -100.0) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tail_risk([], -100.0)

    @given(
        st.lists(st.floats(min_value=-500, max_value=0), min_size=1, max_size=50),
        st.floats(min_value=-400, max_value=-1),
        st.floats(min_value=-400, max_value=-1),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, returns, a, b):
        low, high = min(a, b), max(a, b)
        assert tail_risk(returns, low) <= tail_risk(returns, high)


class TestTriggerAnalysis:
    def test_reference_log_counts(self):
        log = make_reference_penalty_log()
        restores = [e for e in log if e.is_restore]
        failures = [e for e in log if not e.is_restore]
        assert len(restores) == 3520
        assert all(e.reward == -1.0 for e in restores)
        assert len(failures) == 9926
        assert sum(1 for e in failures if e.reward < -1.1) == 7346

    def test_reference_log_at_default_threshold(self):
        analysis = trigger_analysis(make_reference_penalty_log(), -1.1)
        assert analysis.precision == 1.0
        assert analysis.false_positives == 0
        assert analysis.true_triggers_captured == 7346
        assert math.isclose(analysis.recall, 0.740, abs_tol=0.001)

    def test_loose_threshold_catches_restores(self):
        # Oracle: direct count of entries below the threshold.
        log = make_reference_penalty_log()
        analysis = trigger_analysis(log, -0.5)
        expected_fp = sum(1 for e in log if e.is_restore and e.reward < -0.5)
        assert expected_fp == 3520
        assert analysis.false_positives == 3520
        assert analysis.precision < 1.0

    def test_threshold_below_all_penalties(self):
        analysis = trigger_analysis(make_reference_penalty_log(), -20.0)
        assert analysis.true_triggers_captured == 0
        assert analysis.recall == 0.0
        assert analysis.precision == 1.0

    def test_nonnegative_rewards_rejected(self):
        with pytest.raises(ValueError):
            trigger_analysis([PenaltyLogEntry(0.0, False)], -1.1)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from([-1.1, -1.2, -2.5, -11.0, -14.0])),
            min_size=1,
            max_size=80,
        ),
        st.sampled_from([-1.05, -1.1, -1.3, -2.0, -5.0, -12.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_precision_perfect_when_restores_cost_one(self, raw, tau):
        log = [
            PenaltyLogEntry(-1.0, True) if is_restore else PenaltyLogEntry(reward, False)
            for is_restore, reward in raw
        ]
        assert trigger_analysis(log, tau).precision == 1.0

    def test_log_file_round_trip(self, tmp_path):
        log = [PenaltyLogEntry(-1.0, True), PenaltyLogEntry(-2.4, False)]
        path = tmp_path / "penalties.log"
        write_penalty_lines(log, path)
        assert read_penalty_log(path) == log

    def test_bad_log_line_rejected(self, tmp_path):
        path = tmp_path / "penalties.log"
        path.write_text("reward=oops restore=1\n")
        with pytest.raises(ValueError):
            read_penalty_log(path)


def run_session(tmp_path, name="session", **overrides):
    kwargs = dict(
        instances=3,
        stages=2,
        attempts_per_stage=2,
        backend="scripted",
        base_seed=42,
    )
    kwargs.update(overrides)
    config = ProtocolConfig(**kwargs)
    run_dir = tmp_path / name
    run_protocol(config, run_dir=run_dir)
    return run_dir


class TestSummaries:
    def test_summary_fields(self, tmp_path):
        run_dir = run_session(tmp_path)
        summary = load_session_summary(run_dir)
        assert summary.instances == 3
        assert summary.condition == "best"
        pooled = [r for rs in summary.eval_returns.values() for r in rs]
        assert len(pooled) == 6
        assert summary.mean_return == pytest.approx(sum(pooled) / len(pooled))

    def test_sample_sd_convention(self):
        report = {
            "config": {
                "transfer_strategy": "best",
                "representation": "rules",
                "instances": 1,
            },
            "eval_returns": {"1": [-10.0, -20.0]},
            "checkpoint_history": {"1": [-10.0, -20.0]},
            "graduation_stage": {"1": None},
            "graduation_distribution": {"S1": 0, "never": 1},
            "tokens": {
                "adaptation": {"prompt": 0, "completion": 0},
                "evaluation": {"prompt": 0, "completion": 0},
            },
            "aborted_attempts": 0,
            "artifacts_created": 0,
        }
        summary = summarize_report(report)
        assert summary.mean_return == -15.0
        assert summary.sd_return == pytest.approx(7.0710678, abs=1e-6)


class TestAggregate:
    def test_single_session_statistics(self, tmp_path):
        run_dir = run_session(tmp_path)
        report = aggregate([run_dir])
        ((key, group),) = report.groups.items()
        assert key == ("best", "rules")
        summary = load_session_summary(run_dir)
        assert group["mean_return"] == pytest.approx(summary.mean_return)
        assert group["episodes"] == 6

    def test_two_identical_sessions_pool_to_same_mean(self, tmp_path):
        a = run_session(tmp_path, "a")
        b = run_session(tmp_path, "b")
        pooled = aggregate([a, b])
        single = aggregate([a])
        key = ("best", "rules")
        assert pooled.groups[key]["mean_return"] == pytest.approx(
            single.groups[key]["mean_return"]
        )
        assert pooled.groups[key]["sessions"] == 2
        assert pooled.groups[key]["episodes"] == 12

    def test_aggregate_totals_equal_sum_of_sessions(self, tmp_path):
        mock_a = run_session(tmp_path, "ma", backend="mock", base_seed=5)
        mock_b = run_session(tmp_path, "mb", backend="mock", base_seed=6)
        pooled = aggregate([mock_a, mock_b]).groups[("best", "rules")]
        parts = [load_session_summary(d) for d in (mock_a, mock_b)]
        expected_prompt = sum(
            s.tokens[phase]["prompt"] for s in parts for phase in s.tokens
        )
        expected_episodes = sum(
            len(rs) for s in parts for rs in s.eval_returns.values()
        )
        assert pooled["tokens_prompt"] == expected_prompt
        assert pooled["episodes"] == expected_episodes
        assert expected_prompt > 0

    def test_malformed_session_skipped_with_warning(self, tmp_path, caplog):
        good = run_session(tmp_path)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "final_report.json").write_text("{not json")
        with caplog.at_level(logging.WARNING):
            report = aggregate([good, bad])
        assert len(report.groups) == 1
        assert len(report.skipped) == 1
        assert "bad" in report.skipped[0]

    def test_graduation_distribution_table(self, tmp_path):
        run_dir = run_session(tmp_path, graduation_threshold=-10_000.0)
        report = aggregate([run_dir])
        dist = report.groups[("best", "rules")]["graduation_distribution"]
        assert dist["S1"] == 3
        assert dist["never"] == 0

    def test_render_includes_distribution_row(self, tmp_path):
        run_dir = run_session(tmp_path)
        text = render_aggregate_table(aggregate([run_dir]))
        assert "graduation stage distribution" in text
        assert "best/rules" in text

    def test_render_keeps_stages_beyond_six(self, tmp_path):
        distribution = {f"S{s}": 0 for s in range(1, 9)}
        distribution.update({"S2": 1, "S7": 2, "S8": 3, "never": 4})
        report = {
            "config": {"transfer_strategy": "best", "representation": "rules", "instances": 10},
            "eval_returns": {str(i): [-10.0] for i in range(1, 11)},
            "checkpoint_history": {str(i): [-10.0] * 8 for i in range(1, 11)},
            "graduation_stage": {},
            "graduation_distribution": distribution,
            "tokens": {
                "adaptation": {"prompt": 0, "completion": 0},
                "evaluation": {"prompt": 0, "completion": 0},
            },
            "aborted_attempts": 0,
            "artifacts_created": 0,
        }
        session = tmp_path / "eight_stages"
        session.mkdir()
        (session / "final_report.json").write_text(json.dumps(report))
        lines = render_aggregate_table(aggregate([session])).splitlines()
        header = lines[lines.index("graduation stage distribution") + 1].split()
        assert header[1:] == [f"S{s}" for s in range(1, 9)] + ["never"]
        row = lines[lines.index("graduation stage distribution") + 2].split()
        assert row[1:] == ["0", "1", "0", "0", "0", "0", "2", "3", "4"]


class TestSweep:
    def test_two_thresholds_two_summaries_deterministic(self, tmp_path):
        config = ProtocolConfig(
            instances=2, stages=1, attempts_per_stage=1, backend="scripted", base_seed=9
        )
        first = sweep_tau(config, [-1.1, -3.0], out_dir=tmp_path / "a")
        second = sweep_tau(config, [-1.1, -3.0], out_dir=tmp_path / "b")
        assert [e.tau for e in first] == [-1.1, -3.0]
        assert all(e.summary is not None for e in first)
        assert [e.summary.mean_return for e in first] == [
            e.summary.mean_return for e in second
        ]

    def test_threshold_below_all_penalties_never_learns(self, tmp_path):
        config = ProtocolConfig(
            instances=2, stages=2, attempts_per_stage=2, backend="scripted", base_seed=9
        )
        (entry,) = sweep_tau(config, [-20.0], out_dir=tmp_path)
        assert entry.summary is not None
        assert entry.summary.aborted_attempts == 0
        assert entry.summary.artifacts_created == 0

    def test_one_failure_does_not_abort_the_sweep(self, tmp_path, monkeypatch):
        import forge.metrics as metrics_module
        from forge.protocol import RunError

        real_run = metrics_module.run_protocol

        def flaky(config, run_dir=None, connector=None, config_source=None):
            if config.failure_trigger == -2.0:
                raise RunError("boom")
            return real_run(config, run_dir=run_dir, connector=connector)

        monkeypatch.setattr(metrics_module, "run_protocol", flaky)
        config = ProtocolConfig(
            instances=1, stages=1, attempts_per_stage=1, backend="scripted", base_seed=9
        )
        entries = sweep_tau(config, [-1.1, -2.0, -3.0])
        assert entries[1].summary is None and entries[1].error
        assert entries[0].summary is not None and entries[2].summary is not None

    def test_positive_threshold_rejected(self):
        with pytest.raises(ValueError):
            sweep_tau(ProtocolConfig(), [1.0])

    def test_close_thresholds_get_their_own_directories(self, tmp_path):
        config = ProtocolConfig(
            instances=1, stages=1, attempts_per_stage=1, backend="scripted", base_seed=9
        )
        taus = [-1.05, -1.1, -0.95, -2.0]
        entries = sweep_tau(config, taus, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["tau_-1.05", "tau_-1.1", "tau_-0.95", "tau_-2.0"]
        )
        rows = render_sweep_table(entries).splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["-1.05", "-1.1", "-0.95", "-2.0"]
        for tau in taus:
            report = json.loads((tmp_path / f"tau_{tau!r}" / "final_report.json").read_text())
            assert report["config"]["failure_trigger"] == tau

    def test_repeated_threshold_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            sweep_tau(ProtocolConfig(), [-1.1, -2.0, -1.1], out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_render_table(self, tmp_path):
        config = ProtocolConfig(
            instances=1, stages=1, attempts_per_stage=1, backend="scripted", base_seed=9
        )
        text = render_sweep_table(sweep_tau(config, [-1.1]))
        assert "tau" in text and "-1.1" in text


def test_final_report_json_is_self_describing(tmp_path):
    run_dir = run_session(tmp_path)
    report = json.loads((run_dir / "final_report.json").read_text())
    for key in (
        "config",
        "eval_returns",
        "graduation_distribution",
        "tokens",
        "stage_reports",
        "aborted_attempts",
        "artifacts_created",
    ):
        assert key in report
