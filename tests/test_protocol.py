from __future__ import annotations

import errno
import hashlib
import json
import logging
import re
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from conftest import MonitorBackend, ScriptedRewardEnv
from forge import agents, memory as memory_module, protocol, reflexion
from forge.agents import LLMBackend, ScriptedBackend, default_memory, mock_responder
from forge.llm_connector import (
    ChatMessage,
    ChatRequest,
    ConnectorError,
    HttpConnector,
    MockConnector,
    TokenLedger,
    approx_tokens,
)
from forge.metrics import sweep_tau
from forge.memory import InstanceMemory, Representation, Role
from forge.protocol import (
    CHECKPOINT_FAILED,
    CheckpointResult,
    Condition,
    ConfigError,
    ProtocolConfig,
    RunError,
    broadcast,
    checkpoint,
    config_from_dict,
    config_to_dict,
    evaluate_zero_shot,
    graduate_set,
    InstanceState,
    load_config,
    run_protocol,
    select_champion,
)


# (config key, YAML value) pairs that must raise ConfigError: ints reject
# bools, floats and strings; bools and enums accept only their own values.
BAD_VALUES = [
    ("instances", "2.9"),
    ("instances", "2.0"),
    ("stages", "true"),
    ("base_seed", "'7'"),
    ("graduation_enabled", "'false'"),
    ("graduation_enabled", "1"),
    ("failure_trigger", "'-1.1'"),
    ("failure_trigger", "false"),
    ("model", "7"),
    ("representation", "RULES"),
    ("transfer_strategy", "forge"),
    ("instances", "null"),
    ("1", "2"),  # YAML reads the key as an int
    # Thresholds must be finite; NaN compares false and must not slip through.
    ("failure_trigger", ".nan"),
    ("failure_trigger", ".inf"),
    ("failure_trigger", "-.inf"),
    ("graduation_threshold", ".nan"),
    ("graduation_threshold", ".inf"),
    ("graduation_threshold", "-.inf"),
]


def assert_stage_barrier(calls, stages: int) -> None:
    """Every stage-s checkpoint ended before any stage-(s+1) ``reflexion_loop`` began."""
    for stage in range(1, stages):
        ckpt_ends = [c.end for c in calls if c.kind == "checkpoint" and c.stage == stage]
        next_starts = [
            c.start for c in calls if c.kind == "reflexion_loop" and c.stage == stage + 1
        ]
        if ckpt_ends and next_starts:
            assert max(ckpt_ends) < min(next_starts)


def assert_checkpoints_pure(calls) -> None:
    """A frozen checkpoint never changes the memory it probes."""
    checkpoints = [c for c in calls if c.kind == "checkpoint"]
    assert checkpoints
    for call in checkpoints:
        assert call.hash_before == call.hash_after


def ckpt(instance: int, value: float, stage: int = 1) -> CheckpointResult:
    return CheckpointResult(instance=instance, stage=stage, episode_return=value)


class TestConfig:
    def test_defaults_match_protocol_parameters(self):
        config = ProtocolConfig()
        assert config.instances == 10
        assert config.stages == 6
        assert config.attempts_per_stage == 3
        assert config.failure_trigger == -1.1
        assert config.graduation_threshold == -15.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"instances": 0},
            {"stages": 0},
            {"attempts_per_stage": 0},
            {"failure_trigger": 0.5},
            {"eval_episodes_per_instance": 0},
            {"backend": "quantum"},
            {"memory_capacity": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ProtocolConfig(**kwargs)

    def test_transfer_strategy_mapping(self):
        assert config_from_dict({"transfer_strategy": "best"}).condition is Condition.FORGE
        assert (
            config_from_dict({"transfer_strategy": "individual"}).condition
            is Condition.REFLEXION
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"stagess": 3})
        # The worker count is derived from the backend, never configured.
        with pytest.raises(ConfigError, match="unknown config keys: max_workers"):
            config_from_dict({"max_workers": 3})

    def test_round_trip(self):
        config = ProtocolConfig(
            instances=4,
            stages=2,
            condition=Condition.REFLEXION,
            representation=Representation.MIXED,
            backend="mock",
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "transfer_strategy: individual\ninstances: 3\nstages: 2\n"
            "representation: examples\nfailure_trigger: -2.0\n"
        )
        config = load_config(path)
        assert config.condition is Condition.REFLEXION
        assert config.instances == 3
        assert config.representation is Representation.EXAMPLES
        assert config.failure_trigger == -2.0

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    @pytest.mark.parametrize("key, value", BAD_VALUES, ids=[f"{k}={v}" for k, v in BAD_VALUES])
    def test_bad_max_workers_rejected(self, tmp_path, key, value):
        path = tmp_path / "config.yaml"
        path.write_text(f"{key}: {value}\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_readme_config_table_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert sorted(keys) == sorted(config_to_dict(ProtocolConfig()))

    def test_float_fields_widen_ints(self):
        config = config_from_dict({"graduation_threshold": -15, "failure_trigger": -2})
        assert config_to_dict(config)["graduation_threshold"] == -15.0
        assert type(config.failure_trigger) is float

    def test_load_config_bad_representation(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("representation: poems\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestGraduation:
    def test_boundary_is_strict(self):
        threshold = -15.0
        results = [ckpt(1, -14.99), ckpt(2, -15.0), ckpt(3, -15.01)]
        assert graduate_set(results, threshold, set()) == {1}

    def test_already_graduated_excluded(self):
        results = [ckpt(1, -1.0), ckpt(2, -1.0)]
        assert graduate_set(results, -15.0, {1}) == {2}

    def test_failed_checkpoint_never_graduates(self):
        results = [ckpt(1, CHECKPOINT_FAILED)]
        assert graduate_set(results, -15.0, set()) == set()


class TestChampion:
    def test_argmax(self):
        results = [ckpt(1, -20.0), ckpt(2, -10.0), ckpt(3, -30.0)]
        assert select_champion(results, set()) == 2

    def test_tie_breaks_to_lowest_instance(self):
        results = [ckpt(1, -10.0), ckpt(2, -10.0)]
        assert select_champion(results, set()) == 1

    def test_graduated_best_scorer_is_skipped(self):
        results = [ckpt(1, -5.0), ckpt(2, -10.0), ckpt(3, -12.0)]
        assert select_champion(results, {1}) == 2

    def test_failed_checkpoints_never_champion(self):
        results = [ckpt(1, CHECKPOINT_FAILED), ckpt(2, -50.0)]
        assert select_champion(results, set()) == 2

    def test_no_active_instances(self):
        results = [ckpt(1, -5.0)]
        assert select_champion(results, {1}) is None
        assert select_champion([], set()) is None


class TestBroadcast:
    def _population(self):
        population = [InstanceState(i, default_memory()) for i in (1, 2, 3)]
        from test_memory import rule

        population[0].memory.append(rule(6))
        population[1].memory.append(rule(9))
        population[1].memory.append(rule(10))
        population[2].memory.append(rule(12))
        return population

    def test_active_memories_equal_champion_after_broadcast(self):
        population = self._population()
        broadcast(population, champion=2)
        hashes = {p.instance: p.memory.content_hash() for p in population}
        assert hashes[1] == hashes[2] == hashes[3]

    def test_graduated_instances_untouched(self):
        population = self._population()
        population[2].graduated_at = 1
        frozen = population[2].memory.content_hash()
        broadcast(population, champion=1)
        assert population[2].memory.content_hash() == frozen
        assert population[1].memory.content_hash() == population[0].memory.content_hash()

    def test_broadcast_copies_are_isolated(self):
        population = self._population()
        broadcast(population, champion=2)
        from test_memory import rule

        population[0].memory.append(rule(0))
        assert len(population[1].memory.dynamic[Role.PLANNER]) == 2


class FlakyBackend:
    def __init__(self, failures: int):
        self.remaining = failures

    def decide(self, observation, memory, ctx=None):
        if self.remaining > 0:
            self.remaining -= 1
            raise ConnectorError("transient")
        return MonitorBackend().decide(observation, memory, ctx)


class TestCheckpoint:
    def test_zero_reward_episode_scores_zero(self, memory):
        env = ScriptedRewardEnv([0.0] * 30)
        assert checkpoint(memory, 1, MonitorBackend(), env=env) == 0.0

    def test_constant_restore_cost_sums(self, memory):
        env = ScriptedRewardEnv([-1.0] * 30)
        assert checkpoint(memory, 1, MonitorBackend(), env=env) == -30.0

    def test_memory_hash_unchanged(self, memory):
        before = memory.content_hash()
        checkpoint(memory, 3, MonitorBackend(), env=ScriptedRewardEnv([-14.0] * 30))
        assert memory.content_hash() == before

    def test_retry_once_then_sentinel(self, memory):
        env = ScriptedRewardEnv([0.0] * 5)
        assert checkpoint(memory, 1, FlakyBackend(failures=1), env=env) == 0.0
        assert checkpoint(memory, 1, FlakyBackend(failures=2), env=env) == CHECKPOINT_FAILED


def small_config(**overrides) -> ProtocolConfig:
    kwargs = dict(
        instances=3,
        stages=2,
        attempts_per_stage=2,
        backend="mock",
        base_seed=77,
        eval_episodes_per_instance=2,
    )
    kwargs.update(overrides)
    return ProtocolConfig(**kwargs)


class TestRunProtocol:
    def test_single_instance_forge_equals_reflexion(self):
        forge = run_protocol(small_config(instances=1, condition=Condition.FORGE))
        reflexion = run_protocol(small_config(instances=1, condition=Condition.REFLEXION))
        assert forge.report.eval_returns == reflexion.report.eval_returns
        assert forge.report.checkpoint_history == reflexion.report.checkpoint_history
        assert forge.report.memory_hash_final == reflexion.report.memory_hash_final

    def test_reflexion_condition_never_selects_a_champion(self):
        result = run_protocol(small_config(condition=Condition.REFLEXION))
        assert all(s.champion is None for s in result.report.stage_reports)
        for state in result.population:
            for artifact in state.memory.artifacts():
                assert artifact.origin.instance == state.instance

    def test_everyone_graduates_early_stops_attempts(self, protocol_calls):
        result = run_protocol(
            small_config(stages=3, graduation_threshold=-10_000.0)
        )
        report = result.report
        assert all(s == 1 for s in report.graduation_stage.values())
        later_attempts = [
            c for c in protocol_calls if c.kind == "reflexion_loop" and c.stage > 1
        ]
        assert later_attempts == []
        for returns in report.eval_returns.values():
            assert len(returns) == 2

    def test_graduation_disabled_keeps_everyone_active(self, protocol_calls):
        result = run_protocol(
            small_config(graduation_threshold=-10_000.0, graduation_enabled=False)
        )
        assert all(s is None for s in result.report.graduation_stage.values())
        attempts_last_stage = sum(
            c.attempts
            for c in protocol_calls
            if c.kind == "reflexion_loop" and c.stage == result.report.config["stages"]
        )
        assert attempts_last_stage == 3 * 2  # all instances, all attempts

    def test_post_broadcast_dynamic_memories_equal(self):
        result = run_protocol(small_config(condition=Condition.FORGE))
        for stage_report in result.report.stage_reports:
            if stage_report.champion is None:
                continue
            active_hashes = {
                instance: h
                for instance, h in stage_report.memory_hashes.items()
                if instance not in stage_report.graduated_after
            }
            assert len(set(active_hashes.values())) == 1

    def test_stage_barrier_ordering(self, protocol_calls):
        run_protocol(small_config(stages=3))
        assert_stage_barrier(protocol_calls, stages=3)

    def test_attempt_budget_respected(self, protocol_calls):
        config = small_config()
        run_protocol(config)
        by_key: dict[tuple[int, int], int] = {}
        for call in protocol_calls:
            if call.kind == "reflexion_loop":
                key = (call.stage, call.instance)
                by_key[key] = by_key.get(key, 0) + call.attempts
        assert by_key
        assert all(count <= config.attempts_per_stage for count in by_key.values())

    def test_checkpoint_purity(self, protocol_calls):
        run_protocol(small_config())
        assert_checkpoints_pure(protocol_calls)

    def test_determinism_of_reports_and_snapshots(self, tmp_path):
        config = small_config()
        first = run_protocol(config, run_dir=tmp_path / "a")
        second = run_protocol(config, run_dir=tmp_path / "b")
        assert first.report.to_json() == second.report.to_json()
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.yaml"))
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.yaml"))
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_outputs_pinned_across_versions(self, tmp_path):
        """SHA-256 of the report and of every memory and failure snapshot.

        The report's bytes changed last when the config lost its
        ``max_workers`` key. The manifest changed last when a failure
        snapshot's ``failing_step`` became the 1-based step of its trajectory
        line, which moved that field and the ``aborted at step=`` line of
        every ``snapshot.yaml`` by one. A change that alters any of these
        bytes must say why and update them.
        """
        run_protocol(small_config(representation=Representation.MIXED), run_dir=tmp_path)
        report = tmp_path / "final_report.json"
        snapshots = sorted(tmp_path.glob("workspaces/*/*/memory/*.yaml")) + sorted(
            tmp_path.glob("workspaces/*/*/*/snapshot.yaml")
        )
        manifest = "".join(
            f"{path.relative_to(tmp_path).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
            for path in [report, *snapshots]
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "66b3deee281961169e75aa4eef8262d2c997ce4f9e902f009ca132b1f73b3225"
        )
        assert len(snapshots) == 3 * 2 * 6 + 12  # memory files per stage, failure snapshots
        assert hashlib.sha256(manifest.encode("utf-8")).hexdigest() == (
            "07b988fda8dc1255729e4f42d7165c6456238ba6292c99dae9e010115ec373cb"
        )

    @pytest.mark.parametrize(
        "representation, report_sha, manifest_sha",
        [
            (
                Representation.RULES,
                "5acc108e2aed87033a4933a2336cced93e3e77e291583d8518ea205dff7290b9",
                "eeec142e5514e12a6e237086eb540b57ba6b6037a51c60cc7160475c83cc02f4",
            ),
            (
                Representation.EXAMPLES,
                "19f4c9000cc8869202c9188333e58dd214ea058a42d8ec84bf1bccebe7ca453e",
                "b7419cc9d66befbcb1edf8f10ac2622ec0d5a34077b19885511e0ad756687f78",
            ),
            (
                Representation.MIXED,
                "5a6c516573004653c089a9721d0c2752c2c7539693454b7d6a4ef36125af9a8c",
                "969d8c2d15aec5cad81dab86b5a369d95c389f2471db809bd85715b3e3006019",
            ),
        ],
    )
    def test_scripted_outputs_pinned_across_versions(
        self, tmp_path, representation, report_sha, manifest_sha
    ):
        """SHA-256 of every file of a scripted run directory.

        A scripted run makes no completions, so ``token_usage.log`` is empty
        and the whole directory, trajectories included, is deterministic. The
        report digests were re-pinned when the config lost its
        ``max_workers`` key. The manifest digests were re-pinned when a
        failure snapshot's ``failing_step`` became the 1-based step of its
        trajectory line, which changed only the ``snapshot.yaml`` files. A
        change that alters any of these bytes must say why and update them.
        """
        config = small_config(backend="scripted", representation=representation)
        run_protocol(config, run_dir=tmp_path)
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        manifest = "".join(
            f"{path.relative_to(tmp_path).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
            for path in files
        )
        assert len(files) == 56
        assert hashlib.sha256((tmp_path / "final_report.json").read_bytes()).hexdigest() == report_sha
        assert hashlib.sha256(manifest.encode("utf-8")).hexdigest() == manifest_sha

    @pytest.mark.parametrize("name", ["final_report.json", "stage_summary_01.json"])
    def test_interrupted_report_write_leaves_no_truncated_file(self, tmp_path, monkeypatch, name):
        write_text = Path.write_text

        def fail_halfway(path, data, *args, **kwargs):
            if name in path.name:
                write_text(path, data[: len(data) // 2], *args, **kwargs)
                raise OSError("disk full")
            return write_text(path, data, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", fail_halfway)
        run_dir = tmp_path / "session"
        with pytest.raises((OSError, RunError)):
            run_protocol(small_config(backend="scripted"), run_dir=run_dir)
        assert [p.name for p in run_dir.iterdir() if name in p.name] == []

    def test_run_directory_layout(self, tmp_path):
        run_dir = tmp_path / "session"
        run_protocol(small_config(), run_dir=run_dir)
        assert (run_dir / "config.yaml").exists()
        assert (run_dir / "final_report.json").exists()
        assert (run_dir / "token_usage.log").exists()
        assert (run_dir / "stage_summary_01.json").exists()
        assert (run_dir / "stage_summary_02.json").exists()
        memory_files = list(run_dir.glob("workspaces/instance_01/stage_02/memory/*.yaml"))
        assert len(memory_files) == 6
        report = json.loads((run_dir / "final_report.json").read_text())
        assert set(report["tokens"]) == {"adaptation", "evaluation"}

    def test_failed_run_leaves_marker(self, tmp_path):
        class ExplodingConnector:
            def complete(self, request, meta=None):
                raise RuntimeError("wire cut")

        run_dir = tmp_path / "broken"
        with pytest.raises(RunError):
            run_protocol(small_config(), run_dir=run_dir, connector=ExplodingConnector())
        assert (run_dir / "run_failed.txt").exists()

    def test_malformed_reply_mid_training_errors_one_attempt(self, tmp_path, caplog):
        calls = 0

        def transport(url, headers, payload):
            nonlocal calls
            calls += 1
            return (200, {}) if calls == 3 else _mock_transport(url, headers, payload)

        connector = HttpConnector("http://provider.invalid", transport=transport)
        with caplog.at_level(logging.WARNING, logger="forge.reflexion"):
            run_protocol(small_config(instances=1, stages=1), run_dir=tmp_path, connector=connector)
        assert (tmp_path / "final_report.json").exists()
        assert [r.message for r in caplog.records if "errored" in r.message] == [
            "instance 1 stage 1 attempt 1 errored: backend failed during attempt: "
            "malformed provider reply: KeyError('choices')"
        ]

    def test_token_reconciliation(self):
        result = run_protocol(small_config())
        report = result.report
        for phase in ("adaptation", "evaluation"):
            totals = result.ledger.totals(phase=phase)
            assert report.tokens[phase]["prompt"] == totals.prompt_tokens
            assert report.tokens[phase]["completion"] == totals.completion_tokens
        whole = result.ledger.totals()
        assert whole.prompt_tokens == sum(t["prompt"] for t in report.tokens.values())

    def test_scripted_backend_uses_no_tokens(self):
        result = run_protocol(small_config(backend="scripted"))
        assert result.report.tokens == {
            "adaptation": {"prompt": 0, "completion": 0},
            "evaluation": {"prompt": 0, "completion": 0},
        }

    def test_one_progress_line_per_stage(self, caplog):
        config = small_config(
            backend="scripted", stages=4, base_seed=78, graduation_threshold=-20.0
        )
        with caplog.at_level(logging.INFO, logger="forge.protocol"):
            result = run_protocol(config)
        lines = [r.getMessage() for r in caplog.records if r.name == "forge.protocol"]
        expected = []
        graduated: set[int] = set()
        for r in result.report.stage_reports:
            new = sorted(set(r.graduated_after) - graduated)
            expected.append(
                f"stage {r.stage}/{config.stages}: {config.instances - len(graduated)} active, "
                f"champion {'none' if r.champion is None else r.champion}, "
                f"new graduates {new or 'none'}, {r.aborted_attempts} aborted attempts"
            )
            graduated |= set(new)
        assert lines == expected
        # The run covers a champion, no champion and stages with new graduates.
        assert {r.champion is None for r in result.report.stage_reports} == {True, False}
        assert graduated == {1, 2, 3}

    def test_persistent_sections_survive_a_whole_session(self):
        from forge.agents import default_persistent

        result = run_protocol(small_config(backend="scripted"))
        pristine = default_persistent()
        for state in result.population:
            assert state.memory.persistent == pristine


class TestRunDirectoryWrites:
    """Each value written to a run directory is serialized once."""

    def test_memory_snapshots_dumped_once_per_distinct_memory(self, tmp_path, monkeypatch):
        # Dumps made by the memory module and the stage directory of each save,
        # in call order; a save's dumps come before its own marker.
        events: list[str] = []
        saved: dict[str, InstanceMemory] = {}
        dump_yaml = memory_module.dump_yaml
        save_workspace = protocol.save_workspace

        def counting_dump(data):
            events.append("dump")
            return dump_yaml(data)

        def recording_save(memory, directory, *args):
            paths = save_workspace(memory, directory, *args)
            digest = memory.content_hash()
            assert digest not in saved, "a memory was written twice in one run"
            saved[digest] = memory.clone()
            events.append(Path(directory).parent.name)
            return paths

        monkeypatch.setattr(memory_module, "dump_yaml", counting_dump)
        monkeypatch.setattr(protocol, "save_workspace", recording_save)
        config = small_config(stages=3, representation=Representation.MIXED)
        run_dir = tmp_path / "run"
        result = run_protocol(config, run_dir=run_dir)

        dumps_by_stage: dict[str, int] = {}
        pending = 0
        for event in events:
            if event == "dump":
                pending += 1
            else:
                dumps_by_stage[event] = dumps_by_stage.get(event, 0) + pending
                pending = 0
        assert pending == 0
        # Six files per memory hash that no earlier save of the run wrote.
        written: set[str] = set()
        expected: dict[str, int] = {}
        distinct = [len(set(r.memory_hashes.values())) for r in result.report.stage_reports]
        assert min(distinct) < config.instances, "expected a broadcast to share memories"
        for r in result.report.stage_reports:
            new = set(r.memory_hashes.values()) - written
            written |= new
            if new:
                expected[f"stage_{r.stage:02d}"] = 6 * len(new)
        assert dumps_by_stage == expected
        assert set(saved) == written

        # Every snapshot directory, written or linked, holds its memory's files.
        checked = set()
        for r in result.report.stage_reports:
            for instance, digest in r.memory_hashes.items():
                directory = (
                    run_dir / "workspaces" / f"instance_{instance:02d}"
                    / f"stage_{r.stage:02d}" / "memory"
                )
                fresh = memory_module.save_workspace(
                    saved[digest], tmp_path / "fresh" / f"{instance}_{r.stage}"
                )
                assert sorted(p.name for p in directory.iterdir()) == sorted(p.name for p in fresh)
                for path in fresh:
                    assert (directory / path.name).read_bytes() == path.read_bytes()
                checked.add(directory)
        assert set(run_dir.glob("workspaces/instance_*/stage_*/memory")) == checked
        assert len(checked) == config.instances * config.stages

    @staticmethod
    def files(run_dir: Path) -> dict[Path, bytes]:
        """Bytes of every file under ``run_dir`` but the timestamped token log."""
        return {
            p.relative_to(run_dir): p.read_bytes()
            for p in run_dir.rglob("*")
            if p.is_file() and p.name != "token_usage.log"
        }

    def test_second_run_into_a_directory_writes_no_shared_file(self, tmp_path):
        run_dir = tmp_path / "run"
        first = small_config(stages=3)
        run_protocol(first, run_dir=run_dir)
        before = self.files(run_dir)
        inodes = {rel: (run_dir / rel).stat().st_ino for rel in before}

        second = replace(first, instances=2, base_seed=first.base_seed + 1)
        run_protocol(second, run_dir=run_dir)
        run_protocol(second, run_dir=tmp_path / "fresh")
        after = self.files(run_dir)
        fresh = self.files(tmp_path / "fresh")

        only_first = before.keys() - fresh.keys()
        # The case this guards: a path the second run rewrites with new bytes
        # shared its inode with a path that only the first run wrote.
        assert any(
            before[rel] != fresh[rel] and inodes[rel] == inodes[other]
            for rel in before.keys() & fresh.keys()
            for other in only_first
        )
        assert after.keys() == before.keys() | fresh.keys()
        for rel, data in fresh.items():
            assert after[rel] == data, rel
        for rel in only_first:
            assert after[rel] == before[rel], rel

    def test_snapshots_are_copied_where_links_fail(self, tmp_path, monkeypatch):
        config = small_config(backend="scripted", stages=3)
        run_protocol(config, run_dir=tmp_path / "linked")
        memory_files = list((tmp_path / "linked").glob("workspaces/*/*/memory/*.yaml"))
        assert max(p.stat().st_nlink for p in memory_files) > 1

        def no_link(src, dst, *args, **kwargs):
            raise OSError(errno.EPERM, "hard links not supported", str(dst))

        monkeypatch.setattr(protocol.os, "link", no_link)
        copied = tmp_path / "copied"
        run_protocol(config, run_dir=copied)
        assert self.files(copied) == self.files(tmp_path / "linked")
        assert all(p.stat().st_nlink == 1 for p in copied.rglob("*") if p.is_file())

    def test_failure_text_serialized_once_per_aborted_attempt(self, tmp_path, monkeypatch):
        calls = []
        serialize_snapshot = agents.serialize_snapshot

        def counting(snapshot):
            calls.append(snapshot.origin)
            return serialize_snapshot(snapshot)

        monkeypatch.setattr(agents, "serialize_snapshot", counting)
        monkeypatch.setattr(reflexion, "serialize_snapshot", counting)
        requests: list[ChatRequest] = []

        def recording_responder(request: ChatRequest) -> str:
            requests.append(request)
            return mock_responder(request)

        run_protocol(
            small_config(representation=Representation.MIXED),
            run_dir=tmp_path,
            connector=MockConnector(responder=recording_responder),
        )
        snapshots = [
            yaml.safe_load(path.read_text(encoding="utf-8"))
            for path in sorted(tmp_path.glob("workspaces/*/*/*/snapshot.yaml"))
        ]
        assert snapshots, "expected aborted attempts on the mock backend"
        assert len(calls) == len(snapshots)
        texts = sorted(s["snapshot_text"] for s in snapshots)
        for role in ("Reflector", "Exemplifier"):
            received = sorted(
                r.messages[1].content
                for r in requests
                if r.messages[0].content.startswith(f"You are the {role}")
            )
            assert received == texts


class TestZeroShot:
    def test_same_eval_seeds_as_trained_run(self):
        config = small_config(backend="scripted")
        zero = evaluate_zero_shot(config)
        assert set(zero) == {1, 2, 3}
        assert all(len(v) == config.eval_episodes_per_instance for v in zero.values())
        assert evaluate_zero_shot(config) == zero

    def test_training_beats_zero_shot_on_scripted_backend(self):
        config = small_config(
            backend="scripted", instances=4, stages=3, attempts_per_stage=3, base_seed=5
        )
        trained = [r for rs in run_protocol(config).report.eval_returns.values() for r in rs]
        zero = [r for rs in evaluate_zero_shot(config).values() for r in rs]
        assert sum(trained) / len(trained) > sum(zero) / len(zero)


def _record_decide_peaks(monkeypatch, backend_cls, threads: set | None = None) -> dict[str, int]:
    """Peak number of ``decide`` calls in flight, by the phase of the call.

    Training and final evaluation never overlap in time, so each phase's peak
    counts only calls of that phase. ``threads``, if given, collects the
    threads the calls ran on.
    """
    peaks = {"adaptation": 0, "evaluation": 0}
    in_flight = 0
    lock = threading.Lock()
    original = backend_cls.decide

    def decide(self, observation, memory, ctx=None):
        nonlocal in_flight
        with lock:
            in_flight += 1
            peaks[ctx.phase] = max(peaks[ctx.phase], in_flight)
            if threads is not None:
                threads.add(threading.current_thread())
        try:
            # Give up the interpreter lock inside the call, so that any other
            # worker thread gets to start a call of its own meanwhile.
            time.sleep(0.0001)
            return original(self, observation, memory, ctx)
        finally:
            with lock:
                in_flight -= 1

    monkeypatch.setattr(backend_cls, "decide", decide)
    return peaks


def _mock_transport(url, headers, payload):
    request = ChatRequest(
        model=payload["model"],
        messages=tuple(ChatMessage(m["role"], m["content"]) for m in payload["messages"]),
        temperature=payload["temperature"],
        max_output_tokens=payload["max_tokens"],
    )
    content = mock_responder(request)
    prompt = sum(approx_tokens(m.content) for m in request.messages)
    return 200, {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": prompt, "completion_tokens": approx_tokens(content)},
    }


def _delayed_mock_transport(url, headers, payload):
    time.sleep(0.001)
    return _mock_transport(url, headers, payload)


def _usage(ledger, **where) -> dict[str, int]:
    totals = ledger.totals(**where)
    return {"prompt": totals.prompt_tokens, "completion": totals.completion_tokens}


class TestInjectedConnectorTokens:
    """A connector passed to ``run_protocol`` is counted in the run's own ledger."""

    def test_report_log_and_connector_ledger_agree(self, tmp_path):
        connector_ledger = TokenLedger()
        connector = HttpConnector(
            "http://provider.invalid", transport=_mock_transport, ledger=connector_ledger
        )
        run_dir = tmp_path / "session"
        report = run_protocol(small_config(), run_dir=run_dir, connector=connector).report
        logged = TokenLedger.read(run_dir / "token_usage.log")
        assert connector_ledger.totals().prompt_tokens > 0
        for phase in ("adaptation", "evaluation"):
            assert report.tokens[phase] == _usage(logged, phase=phase)
            assert report.tokens[phase] == _usage(connector_ledger, phase=phase)
        for instance, usage in report.tokens_by_instance.items():
            assert usage == _usage(connector_ledger, instance=instance)

    def test_sweep_runs_sharing_a_connector_count_apart(self, tmp_path):
        connector_ledger = TokenLedger()
        connector = HttpConnector(
            "http://provider.invalid", transport=_mock_transport, ledger=connector_ledger
        )
        entries = sweep_tau(small_config(), [-1.1, -3.0], out_dir=tmp_path, connector=connector)
        per_run = []
        for entry in entries:
            tau_dir = tmp_path / f"tau_{entry.tau:+.1f}".replace("+", "")
            logged = _usage(TokenLedger.read(tau_dir / "token_usage.log"))
            reported = entry.summary.tokens
            assert logged["prompt"] == sum(t["prompt"] for t in reported.values())
            per_run.append(logged["prompt"])
        assert all(per_run)
        assert sum(per_run) == connector_ledger.totals().prompt_tokens


class TestStageWorkers:
    """Offline backends train and evaluate on the calling thread; only network waits get more."""

    @pytest.mark.parametrize("backend, backend_cls", [
        ("scripted", ScriptedBackend),
        ("mock", LLMBackend),
    ])
    def test_offline_backend_uses_one_worker(self, monkeypatch, backend, backend_cls):
        threads = set()
        peaks = _record_decide_peaks(monkeypatch, backend_cls, threads)
        run_protocol(small_config(backend=backend, instances=4, stages=1))
        assert peaks == {"adaptation": 1, "evaluation": 1}
        assert threads == {threading.main_thread()}

    @staticmethod
    def _http_run(monkeypatch):
        peaks = _record_decide_peaks(monkeypatch, LLMBackend)
        connector = HttpConnector(base_url="http://provider.invalid", transport=_delayed_mock_transport)
        config = small_config(
            instances=3, stages=1, attempts_per_stage=1, eval_episodes_per_instance=1
        )
        return peaks, run_protocol(config, connector=connector).report

    def test_http_connector_uses_several_workers(self, monkeypatch):
        peaks, _ = self._http_run(monkeypatch)
        assert peaks["adaptation"] > 1

    def test_barrier_and_purity_hold_on_the_http_pool(self, monkeypatch, protocol_calls):
        peaks = _record_decide_peaks(monkeypatch, LLMBackend)
        connector = HttpConnector(base_url="http://provider.invalid", transport=_delayed_mock_transport)
        config = small_config(instances=3, stages=3, attempts_per_stage=1, eval_episodes_per_instance=1)
        run_protocol(config, connector=connector)
        assert peaks["adaptation"] > 1
        assert {c.stage for c in protocol_calls if c.kind == "reflexion_loop"} == {1, 2, 3}
        assert_stage_barrier(protocol_calls, stages=3)
        assert_checkpoints_pure(protocol_calls)

    def test_http_connector_evaluates_on_several_workers(self, monkeypatch):
        peaks, report = self._http_run(monkeypatch)
        assert peaks["evaluation"] > 1
        monkeypatch.undo()
        monkeypatch.setattr(protocol, "_stage_workers", lambda config, backend: 1)
        serial_peaks, serial = self._http_run(monkeypatch)
        assert serial_peaks == {"adaptation": 1, "evaluation": 1}
        assert report.eval_returns == serial.eval_returns
