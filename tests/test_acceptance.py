"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -v`` or ``-s``)."""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
import time

import pytest

from conftest import MonitorBackend, ScriptedRewardEnv, write_penalty_lines
from forge import cage_lite
from forge.cage_lite import random_policy, run_policy_episode
from forge.cli import main
from forge.experiments import run_directional_study
from forge.memory import Representation
from forge.metrics import make_reference_penalty_log, sweep_tau
from forge.protocol import (
    CheckpointResult,
    Condition,
    ProtocolConfig,
    graduate_set,
    run_protocol,
)
from forge.reflexion import AttemptStatus, run_attempt


def announce(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {detail}")


def test_criterion_01_protocol_invariant_suite(memory, protocol_calls):
    """Invariants over 50 randomized mock-backend configs in under 60 s."""
    rng = random.Random(20_240_817)
    grid = list(
        itertools.product(
            list(Representation), list(Condition), [True, False]
        )
    )
    configs = []
    for i in range(50):
        representation, condition, graduation_enabled = (
            grid[i] if i < len(grid) else (
                rng.choice(list(Representation)),
                rng.choice(list(Condition)),
                rng.choice([True, False]),
            )
        )
        configs.append(
            ProtocolConfig(
                instances=rng.randint(1, 10),
                stages=rng.randint(1, 6),
                attempts_per_stage=rng.randint(1, 3),
                representation=representation,
                condition=condition,
                graduation_enabled=graduation_enabled,
                graduation_threshold=rng.choice([-15.0, -60.0, -10_000.0]),
                backend="mock",
                base_seed=rng.randrange(2**31),
                eval_episodes_per_instance=1,
            )
        )

    started = time.monotonic()
    for config in configs:
        protocol_calls.clear()
        result = run_protocol(config)
        report = result.report

        attempts_by_key: dict[tuple[int, int], int] = {}
        for call in protocol_calls:
            if call.kind == "reflexion_loop":
                key = (call.stage, call.instance)
                attempts_by_key[key] = attempts_by_key.get(key, 0) + call.attempts
            elif call.kind == "checkpoint":
                # Checkpoint purity: a frozen probe never touches memory.
                assert call.hash_before == call.hash_after
        assert all(
            count <= config.attempts_per_stage for count in attempts_by_key.values()
        )

        for stage in range(1, config.stages):
            ckpt_ends = [
                c.end
                for c in protocol_calls
                if c.kind == "checkpoint" and c.stage == stage
            ]
            next_starts = [
                c.start
                for c in protocol_calls
                if c.kind == "reflexion_loop" and c.stage == stage + 1
            ]
            if ckpt_ends and next_starts:
                assert max(ckpt_ends) < min(next_starts)

        for stage_report in report.stage_reports:
            if config.condition is Condition.REFLEXION:
                assert stage_report.champion is None
            if stage_report.champion is not None:
                active = {
                    i: h
                    for i, h in stage_report.memory_hashes.items()
                    if i not in stage_report.graduated_after
                }
                assert len(set(active.values())) == 1

        for state in result.population:
            if config.condition is Condition.REFLEXION:
                for artifact in state.memory.dynamic:
                    assert artifact.origin.instance == state.instance
            graduated_at = report.graduation_stage[state.instance]
            if graduated_at is not None:
                frozen = report.stage_reports[graduated_at - 1].memory_hashes[
                    state.instance
                ]
                for later in report.stage_reports[graduated_at - 1 :]:
                    assert later.memory_hashes[state.instance] == frozen
                assert report.memory_hash_final[state.instance] == frozen
        if not config.graduation_enabled:
            assert all(s is None for s in report.graduation_stage.values())

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"invariant suite took {elapsed:.1f}s"
    announce(1, f"50 randomized mock configs, all invariants held, {elapsed:.1f}s")


def test_criterion_02_graduation_boundary():
    """R = -14.99 graduates at theta = -15; R = -15.00 does not (strict >)."""
    results = [
        CheckpointResult(instance=1, stage=1, episode_return=-14.99),
        CheckpointResult(instance=2, stage=1, episode_return=-15.00),
    ]
    graduates = graduate_set(results, -15.0, set())
    assert graduates == {1}
    announce(2, "-14.99 graduates, -15.00 does not, at theta=-15")


def test_criterion_03_trigger_semantics(memory):
    """-1.0 and -1.1 never abort at tau=-1.1; -1.2 always aborts."""
    tau = -1.1
    never_abort = [0.0, -1.0, -1.1, -1.0, -1.1] * 6
    outcome = run_attempt(
        memory, 0, tau, MonitorBackend(), env=ScriptedRewardEnv(never_abort)
    )
    assert outcome.status is AttemptStatus.COMPLETED

    for position in range(5):
        rewards = [-1.0] * position + [-1.2] + [0.0] * 5
        outcome = run_attempt(
            memory, 0, tau, MonitorBackend(), env=ScriptedRewardEnv(rewards)
        )
        assert outcome.status is AttemptStatus.ABORTED
        assert outcome.snapshot.failing_step == position + 1  # 1-based, as trajectories
        assert outcome.snapshot.failing_reward == -1.2
    announce(3, "strict < semantics exact at tau=-1.1 for -1.0/-1.1/-1.2")


def test_criterion_04_trigger_analysis_reproduction(tmp_path, capsys):
    """Synthetic penalty census analysed at tau=-1.1: precision 1.000,
    recall 0.740 +/- 0.001, through the command-line interface."""
    log_path = tmp_path / "penalties.log"
    write_penalty_lines(make_reference_penalty_log(), log_path)
    assert main(["analyze-trigger", "--log", str(log_path), "--tau", "-1.1"]) == 0
    out = capsys.readouterr().out
    assert "precision: 1.000" in out
    recall = float(next(line for line in out.splitlines() if "recall" in line).split()[-1])
    assert math.isclose(recall, 0.740, abs_tol=0.001)
    announce(4, f"analyze-trigger: precision 1.000, recall {recall:.3f}")


def test_criterion_05_simulator_calibration():
    """100 seeded episodes per baseline: strict ordering and +/-25% windows."""
    started = time.monotonic()
    means = {
        name: statistics.fmean(cage_lite.baseline_returns(name, 100, base_seed=2024))
        for name in ("sleep", "random", "heuristic")
    }
    elapsed = time.monotonic() - started
    targets = {"sleep": -218.65, "random": -154.06, "heuristic": -58.83}
    for name, target in targets.items():
        assert abs(means[name] - target) <= 0.25 * abs(target), (
            f"{name} mean {means[name]:.2f} outside +/-25% of {target}"
        )
    assert means["sleep"] < means["random"] < means["heuristic"]
    assert elapsed < 300.0
    announce(
        5,
        "baselines sleep {sleep:.2f} < random {random:.2f} < heuristic {heuristic:.2f}, "
        "all within 25% of targets".format(**means),
    )


def test_criterion_06_reward_domain():
    """10,000 random-policy steps emit only the documented penalty groups."""
    steps = 0
    episode = 0
    while steps < 10_000:
        records = run_policy_episode(random_policy, 31_000 + episode)
        episode += 1
        for record in records:
            steps += 1
            value = round(record.reward, 6)
            assert (
                value == 0.0
                or value == -1.0
                or -1.2 <= value <= -1.1
                or -3.2 <= value <= -2.0
                or -14.0 <= value <= -11.0
            ), f"reward {value} outside the documented groups"
            assert not (-10.9 < value < -3.3), f"reward {value} in the forbidden gap"
    announce(6, f"{steps} random-policy steps, all rewards in the penalty groups")


def test_criterion_07_directional_learning():
    """Scripted backend, N=10, S=6, k_A=3, 20 base seeds: pooled means order
    broadcast >= isolated >= zero-shot in >= 80% of seeds, positive gap."""
    started = time.monotonic()
    result = run_directional_study(
        list(range(1, 21)), ProtocolConfig(backend="scripted")
    )
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"directional study took {elapsed:.1f}s"
    assert result.ordering_fraction >= 0.8, (
        f"ordering held in only {result.ordering_fraction:.0%} of seeds"
    )
    assert result.forge_reflexion_gap > 0.0
    zero_shot_mean = statistics.fmean(c.zero_shot_mean for c in result.comparisons)
    announce(
        7,
        f"ordering in {result.ordering_fraction:.0%} of 20 seeds, "
        f"pooled means {result.pooled_forge_mean:.2f} >= "
        f"{result.pooled_reflexion_mean:.2f} >= {zero_shot_mean:.2f}, "
        f"gap {result.forge_reflexion_gap:+.2f}, {elapsed:.0f}s",
    )


DETERMINISM_CONFIG = """
transfer_strategy: best
instances: 3
stages: 2
attempts_per_stage: 2
backend: mock
base_seed: 4242
representation: mixed
"""


def test_criterion_08_run_determinism(tmp_path):
    """Two identical mock-backend runs produce byte-identical final reports
    and memory snapshot files."""
    config = tmp_path / "config.yaml"
    config.write_text(DETERMINISM_CONFIG)
    for name in ("a", "b"):
        assert main(["run", "--config", str(config), "--run-dir", str(tmp_path / name)]) == 0
    report_a = (tmp_path / "a" / "final_report.json").read_bytes()
    report_b = (tmp_path / "b" / "final_report.json").read_bytes()
    assert report_a == report_b

    snapshots_a = sorted(
        p.relative_to(tmp_path / "a")
        for p in (tmp_path / "a" / "workspaces").rglob("*.yaml")
    )
    snapshots_b = sorted(
        p.relative_to(tmp_path / "b")
        for p in (tmp_path / "b" / "workspaces").rglob("*.yaml")
    )
    assert snapshots_a == snapshots_b and snapshots_a
    for rel in snapshots_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    announce(
        8,
        f"byte-identical final report and {len(snapshots_a)} snapshot files across reruns",
    )


def test_criterion_09_token_reconciliation(tmp_path):
    """Mock-run report token totals equal the connector log sums per phase."""
    run_dir = tmp_path / "session"
    result = run_protocol(
        ProtocolConfig(
            instances=3, stages=2, attempts_per_stage=2, backend="mock", base_seed=99
        ),
        run_dir=run_dir,
    )
    report = json.loads((run_dir / "final_report.json").read_text())
    sums = {
        "adaptation": {"prompt": 0, "completion": 0},
        "evaluation": {"prompt": 0, "completion": 0},
    }
    for line in (run_dir / "token_usage.log").read_text().splitlines():
        fields = dict(part.split("=", 1) for part in line.split())
        sums[fields["phase"]]["prompt"] += int(fields["prompt_tokens"])
        sums[fields["phase"]]["completion"] += int(fields["completion_tokens"])
    assert report["tokens"] == sums
    assert sums["adaptation"]["prompt"] > 0 and sums["evaluation"]["prompt"] > 0
    per_instance = {
        instance: result.ledger.totals(instance=instance)
        for instance in (1, 2, 3)
    }
    for instance, usage in per_instance.items():
        assert report["tokens_by_instance"][str(instance)] == {
            "prompt": usage.prompt_tokens,
            "completion": usage.completion_tokens,
        }
    announce(9, "report token totals equal connector-log sums for both phases")


def test_criterion_10_sweep_machinery(tmp_path):
    """Sweep over the four documented thresholds emits four comparable
    summaries with graduation rates; tau=-20 never aborts or learns."""
    config = ProtocolConfig(
        instances=4,
        stages=2,
        attempts_per_stage=2,
        backend="scripted",
        base_seed=55,
    )
    entries = sweep_tau(config, [-1.1, -2.0, -3.0, -11.0], out_dir=tmp_path / "sweep")
    assert [e.tau for e in entries] == [-1.1, -2.0, -3.0, -11.0]
    assert all(e.summary is not None for e in entries)
    rates = [e.summary.graduated / e.summary.instances for e in entries]
    assert all(0.0 <= r <= 1.0 for r in rates)

    (quiet,) = sweep_tau(config, [-20.0], out_dir=tmp_path / "quiet")
    assert quiet.summary is not None
    assert quiet.summary.aborted_attempts == 0
    assert quiet.summary.artifacts_created == 0
    announce(
        10,
        "four-threshold sweep completed (graduation rates "
        + ", ".join(f"{r:.0%}" for r in rates)
        + "); tau=-20 produced zero aborts and zero artifacts",
    )
