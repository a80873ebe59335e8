from __future__ import annotations

import errno
import hashlib
import io
import json
import logging
import re
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import (
    ANY_TEXT,
    MonitorBackend,
    ScriptedRewardEnv,
    blank_observation,
    read_attempt_logs,
)
from forge import agents, memory as memory_module, protocol, reflexion
from forge.agents import (
    LLMBackend,
    ScriptedBackend,
    default_memory,
    default_persistent,
    mock_responder,
)
from forge.cage_lite import ActionKind, BlueAction, StepRecord
from forge.llm_connector import (
    ChatMessage,
    ChatRequest,
    ConnectorError,
    HttpConnector,
    MockConnector,
    RequestMeta,
    TokenLedger,
    approx_tokens,
)
from forge.metrics import sweep_tau
from forge.memory import ArtifactKind, InstanceMemory, Origin, Representation
from forge.protocol import (
    CHECKPOINT_FAILED,
    PHASE_EVALUATION,
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

    def test_broadcast_serializes_only_the_champion(self, monkeypatch):
        population = self._population()
        for p in population:
            p.memory.content_hash()  # digests kept from an earlier stage
        from test_memory import rule

        population[1].memory.append(rule(11))
        serialized = []
        to_dict = memory_module.InstanceMemory.to_dict

        def counting(self):
            serialized.append(self)
            return to_dict(self)

        monkeypatch.setattr(memory_module.InstanceMemory, "to_dict", counting)
        broadcast(population, champion=2)
        hashes = [p.memory.content_hash() for p in population]
        assert len(serialized) == 1 and serialized[0] is population[1].memory
        monkeypatch.undo()
        assert hashes == [p.memory.clone().content_hash() for p in population]

    def test_broadcast_copies_are_isolated(self):
        population = self._population()
        broadcast(population, champion=2)
        from test_memory import rule

        population[0].memory.append(rule(0))
        assert len(population[1].memory.dynamic) == 2


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
            for artifact in state.memory.dynamic:
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
        """The whole run directory replays byte for byte, token log included."""
        config = small_config()
        first = run_protocol(config, run_dir=tmp_path / "a")
        second = run_protocol(config, run_dir=tmp_path / "b")
        assert first.report.to_json() == second.report.to_json()
        files_a = TestRunDirectoryWrites.files(tmp_path / "a")
        assert any(rel.name == protocol.FAILURES for rel in files_a)
        assert files_a == TestRunDirectoryWrites.files(tmp_path / "b")

    def test_outputs_pinned_across_versions(self, tmp_path):
        """SHA-256 of the report, every memory snapshot and every failure record.

        Both digests changed last when a memory's learned artifacts became
        one list: each snapshot is a list without ``role`` keys, and the
        report's memory hashes move with it. Trajectories and failure
        records kept their bytes. A change that alters any of
        these bytes must say why and update them.
        """
        run_protocol(small_config(representation=Representation.MIXED), run_dir=tmp_path)
        report = tmp_path / "final_report.json"
        memories = sorted(tmp_path.glob("workspaces/*/*/memory/*.yaml"))
        failures = sorted(tmp_path.glob(f"workspaces/*/{protocol.FAILURES}"))
        manifest = "".join(
            f"{path.relative_to(tmp_path).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
            for path in [report, *memories, *failures]
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "a7d5590a31030388cf3a9b7bb070acf3895971d6068cab2a7a58048150ffabee"
        )
        assert len(memories) == 3 * 2  # one memory file per instance and stage
        assert len(read_attempt_logs(tmp_path)[1]) == 12  # failure records
        assert hashlib.sha256(manifest.encode("utf-8")).hexdigest() == (
            "3a58585a292d5643e78a607ebe6b1cc569591f2ae0321199dbdb65040911ecba"
        )

    @pytest.mark.parametrize(
        "representation, report_sha, manifest_sha",
        [
            (
                Representation.RULES,
                "3808be511ef00891c08f660fa52e90977321802418f0b744a79283c5080b7215",
                "0493142cee965daba9977b02c8d907994907b53fcf0ca807fd01f7f2868d64c0",
            ),
            (
                Representation.EXAMPLES,
                "db14b054bbceae7955f3e75a950133ecaab6fd107529d0070e07e0db2c4f7eef",
                "b26ccd3e42d647af9c7b9c330e783cf6675d545c1cdcaed3328bfd62cae5faa4",
            ),
            (
                Representation.MIXED,
                "40a48b224419a4b5d20d11f904c187158fd5c76b83e7c30ca7b0a8ec060d2c75",
                "8f5f4807cc5bf9a3471f576713c4bd382c19ec9dc2ef3db9d19dd3bbd2e7b2cf",
            ),
        ],
    )
    def test_scripted_outputs_pinned_across_versions(
        self, tmp_path, representation, report_sha, manifest_sha
    ):
        """SHA-256 of every file of a scripted run directory.

        The whole directory, trajectories included, is deterministic. The
        report and manifest digests were re-pinned when a memory's learned
        artifacts became one list without ``role`` keys: only the snapshots
        and the memory hashes in the reports moved. The file count was
        re-pinned when each memory snapshot became one ``artifacts.yaml``.
        A change that alters any of these bytes must say why and update
        them.
        """
        config = small_config(backend="scripted", representation=representation)
        run_protocol(config, run_dir=tmp_path)
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        manifest = "".join(
            f"{path.relative_to(tmp_path).as_posix()} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
            for path in files
        )
        assert len(files) == 5 + 3 * 2 + 3 * 2  # fixed files, memory files, logs
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
        memory_files = list(run_dir.glob("workspaces/instance_01/stage_02/memory/*"))
        assert [p.name for p in memory_files] == ["artifacts.yaml"]
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

    def test_reflector_error_costs_one_attempt_its_artifacts(self, tmp_path, caplog):
        """A provider error while learning from an abort leaves that attempt
        aborted, with its files, and adds nothing to memory; the run goes on."""
        failed = []

        def responder(request):
            if not failed and "You are the Reflector" in request.messages[0].content:
                failed.append(request)
                raise ConnectorError("provider down once")
            return mock_responder(request)

        config = small_config(instances=2, stages=1, attempts_per_stage=2)
        connector = MockConnector(responder)
        with caplog.at_level(logging.WARNING, logger="forge.reflexion"):
            report = run_protocol(config, run_dir=tmp_path, connector=connector).report
        assert failed
        assert [r.message for r in caplog.records if "learned nothing" in r.message] == [
            "instance 1 stage 1 attempt 1 learned nothing: provider down once"
        ]
        trajectories, failures = read_attempt_logs(tmp_path)
        assert (1, 1, 1) in trajectories
        assert {"instance": 1, "stage": 1, "attempt": 1}.items() <= failures[0].items()
        # Each abort of an undisturbed run adds one rule; the failed one adds none.
        reference = run_protocol(config).report
        assert reference.artifacts_created == reference.aborted_attempts
        assert report.aborted_attempts == reference.aborted_attempts
        assert report.artifacts_created == reference.artifacts_created - 1

    def test_out_of_range_tool_host_does_not_fail_the_run(self, tmp_path):
        """A Planner tool line on a host outside the network gets a tool error
        and no sub-agent call; the run completes."""
        analyst_requests = []

        def responder(request):
            system = request.messages[0].content
            if "You are the Analyst" in system:
                analyst_requests.append(request)
            if "You are the Planner" in system and len(request.messages) == 2:
                return "Tool: analyse host=13"
            return mock_responder(request)

        config = small_config(instances=2, stages=1)
        run_protocol(config, run_dir=tmp_path, connector=MockConnector(responder))
        assert (tmp_path / "final_report.json").exists()
        assert analyst_requests == []

    @pytest.mark.parametrize("representation", list(Representation))
    @pytest.mark.parametrize("backend", ["scripted", "mock"])
    def test_a_run_holds_only_the_kinds_its_representation_makes(
        self, tmp_path, backend, representation
    ):
        """``synthesize`` alone picks the learning agents: every stage snapshot
        holds only rules under ``rules``, only examples under ``examples``, and
        a ``mixed`` run holds both. So rendering and the scripted policy use
        every artifact a memory holds, with no filter of their own."""
        config = small_config(backend=backend, representation=representation)
        run_protocol(config, run_dir=tmp_path)
        directories = sorted(tmp_path.glob("workspaces/instance_*/stage_*/memory"))
        assert len(directories) == config.instances * config.stages
        kinds = set()
        for directory in directories:
            loaded = memory_module.load_workspace(
                directory, default_persistent(), config.memory_capacity
            )
            kinds.update(a.kind for a in loaded.dynamic)
        assert kinds == {
            Representation.RULES: {ArtifactKind.RULE},
            Representation.EXAMPLES: {ArtifactKind.EXAMPLE},
            Representation.MIXED: {ArtifactKind.RULE, ArtifactKind.EXAMPLE},
        }[representation]

    def test_one_evaluation_error_is_retried(self, tmp_path):
        """A provider error in the final evaluation costs that episode a second
        run, not the whole training."""
        inner = MockConnector(responder=mock_responder)
        failed: list[RequestMeta] = []

        class FailsOnceInEvaluation:
            def complete(self, request, meta=None):
                if not failed and meta is not None and meta.phase == PHASE_EVALUATION:
                    failed.append(meta)
                    raise ConnectorError("provider down once")
                return inner.complete(request, meta)

        config = small_config()
        report = run_protocol(config, run_dir=tmp_path, connector=FailsOnceInEvaluation()).report
        assert failed
        written = json.loads((tmp_path / "final_report.json").read_text(encoding="utf-8"))
        assert written["eval_returns"] == report.to_dict()["eval_returns"]
        assert report.eval_returns == run_protocol(config).report.eval_returns

    def test_a_second_evaluation_error_fails_the_run(self, tmp_path):
        inner = MockConnector(responder=mock_responder)

        class EvaluationDown:
            def complete(self, request, meta=None):
                if meta is not None and meta.phase == PHASE_EVALUATION:
                    raise ConnectorError("provider down")
                return inner.complete(request, meta)

        with pytest.raises(RunError, match="provider down"):
            run_protocol(small_config(), run_dir=tmp_path, connector=EvaluationDown())
        assert (tmp_path / "run_failed.txt").exists()
        assert not (tmp_path / "final_report.json").exists()

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
        # One file per memory hash that no earlier save of the run wrote.
        written: set[str] = set()
        expected: dict[str, int] = {}
        distinct = [len(set(r.memory_hashes.values())) for r in result.report.stage_reports]
        assert min(distinct) < config.instances, "expected a broadcast to share memories"
        for r in result.report.stage_reports:
            new = set(r.memory_hashes.values()) - written
            written |= new
            if new:
                expected[f"stage_{r.stage:02d}"] = len(new)
        assert dumps_by_stage == expected
        assert set(saved) == written

        # Every snapshot directory, written or linked, holds its memory's file.
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

    def test_every_snapshot_loads_to_its_stage_hash(self, tmp_path):
        """``load_workspace`` of each ``stage_SS/memory`` hashes to that stage's
        ``memory_hashes`` entry, so every memory comes back in its order."""
        config = small_config(representation=Representation.MIXED)
        result = run_protocol(config, run_dir=tmp_path)
        kinds = set()
        for r in result.report.stage_reports:
            assert len(r.memory_hashes) == config.instances
            for instance, digest in r.memory_hashes.items():
                directory = (
                    tmp_path / "workspaces" / f"instance_{instance:02d}"
                    / f"stage_{r.stage:02d}" / "memory"
                )
                loaded = memory_module.load_workspace(
                    directory, default_persistent(), capacity=config.memory_capacity
                )
                assert loaded.content_hash() == digest
                kinds.add(tuple(a.kind for a in loaded.dynamic))
        # Some memory holds a rule after an example: the order is the file's, not a sort by kind.
        assert any(
            ArtifactKind.RULE in sequence[sequence.index(ArtifactKind.EXAMPLE):]
            for sequence in kinds
            if ArtifactKind.EXAMPLE in sequence
        )

    @staticmethod
    def files(run_dir: Path) -> dict[Path, bytes]:
        """Bytes of every file under ``run_dir``, by relative path."""
        return {p.relative_to(run_dir): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}

    def test_a_used_run_directory_is_refused(self, tmp_path):
        """A run directory holds one run: a second run into it writes nothing."""
        run_dir = tmp_path / "run"
        first = small_config(stages=3)
        run_protocol(first, run_dir=run_dir)

        def state() -> dict[Path, tuple[bytes, int] | None]:
            return {
                p: (p.read_bytes(), p.stat().st_ino) if p.is_file() else None
                for p in run_dir.rglob("*")
            }

        before = state()
        for config in (replace(first, instances=2), first):
            with pytest.raises(ConfigError, match="not empty"):
                run_protocol(config, run_dir=run_dir)
        assert state() == before
        assert not (run_dir / "run_failed.txt").exists()

        empty = tmp_path / "empty"
        empty.mkdir()
        run_protocol(first, run_dir=empty)
        assert self.files(empty) == self.files(run_dir)

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

    def test_attempt_files(self, tmp_path):
        """Every attempt that ran leaves its trajectory lines, every abort its
        failure record.

        The connector fails the run's first call, the first decision of
        instance 1's first attempt, so that attempt errors and leaves no line.
        """
        inner = MockConnector(responder=mock_responder)
        calls = 0

        class FirstCallFails:
            def complete(self, request, meta=None):
                nonlocal calls
                calls += 1
                if calls == 1:
                    raise ConnectorError("provider down")
                return inner.complete(request, meta)

        config = small_config()
        run_protocol(config, run_dir=tmp_path, connector=FirstCallFails())
        report = json.loads((tmp_path / "final_report.json").read_text())
        trajectories, failures = read_attempt_logs(tmp_path)
        assert (1, 1, 1) not in trajectories
        active = [
            sum(1 for g in report["graduation_stage"].values() if g is None or g >= stage)
            for stage in range(1, config.stages + 1)
        ]
        assert len(trajectories) == sum(active) * config.attempts_per_stage - 1
        for lines in trajectories.values():
            steps = [f"step={n:02d} " for n in range(1, len(lines) + 1)]
            assert [line[:8] for line in lines] == steps
        for record in failures:
            key = (record["instance"], record["stage"], record["attempt"])
            assert record["failing_step"] == len(trajectories[key])
        keys = [(r["instance"], r["stage"], r["attempt"]) for r in failures]
        assert len(set(keys)) == len(keys)
        for stage in report["stage_reports"]:
            aborted = [r for r in failures if r["stage"] == stage["stage"]]
            assert len(aborted) == stage["aborted_attempts"]
        assert report["aborted_attempts"] > 0

    @pytest.mark.parametrize("backend", ["scripted", "mock"])
    def test_no_attempt_outlives_its_files(self, tmp_path, monkeypatch, backend):
        """Once its files are written an attempt is freed, so no trajectory is
        held through the next episode: the next attempt or the checkpoint."""
        outcomes: list[weakref.ref] = []
        run_attempt = reflexion.run_attempt

        def recording(*args, **kwargs):
            assert all(ref() is None for ref in outcomes)
            outcome = run_attempt(*args, **kwargs)
            outcomes.append(weakref.ref(outcome))
            return outcome

        monkeypatch.setattr(reflexion, "run_attempt", recording)
        run_protocol(small_config(backend=backend), run_dir=tmp_path)
        assert len(outcomes) > 12
        assert read_attempt_logs(tmp_path)[1]

    def test_inodes_follow_from_the_run_shape(self, tmp_path):
        """No directory or file per attempt: every count follows from the run's shape.

        Each instance has two logs and, per stage, a stage directory holding
        a memory directory; each distinct memory of the run has one snapshot
        file, hard linked wherever an equal memory appears again.
        """
        config = small_config()
        result = run_protocol(config, run_dir=tmp_path)
        paths = list(tmp_path.rglob("*"))
        directories = [p for p in paths if p.is_dir()]
        inodes = {p.stat().st_ino for p in paths if p.is_file()}
        distinct = {h for r in result.report.stage_reports for h in r.memory_hashes.values()}
        fixed = 3 + config.stages  # config, report, token log, stage summaries
        # workspaces/, then per instance its directory and two per stage
        assert len(directories) == 1 + config.instances * (1 + 2 * config.stages)
        assert len(inodes) == fixed + 2 * config.instances + len(distinct)
        assert 1 < len(distinct) < config.instances * config.stages

    @settings(max_examples=60, deadline=None)
    @given(ANY_TEXT)
    def test_a_failure_record_is_one_line_that_reads_back(self, text):
        """``failures.jsonl`` escapes every line break a snapshot text may hold
        (U+0085, U+2028, U+2029 among them), so ``str.splitlines`` sees one
        line per record and each record reads back unchanged."""
        record = StepRecord(BlueAction(ActionKind.MONITOR), -3.0, blank_observation(7))
        snapshot = reflexion.FailureSnapshot(
            trajectory=(record,),
            memory_at_failure=default_memory(),
            origin=Origin(stage=2, attempt=3, instance=4),
            failing_host=5,
        )
        vars(snapshot)["text"] = text  # where the cached property keeps its value
        outcome = reflexion.AttemptOutcome(-3.0, snapshot.trajectory, snapshot)
        trajectories, failures = io.StringIO(), io.StringIO()
        for _ in range(2):
            protocol._write_attempt(trajectories, failures, 2, 3, outcome)
        expected = {
            "instance": 4,
            "stage": 2,
            "attempt": 3,
            "failing_step": 7,
            "failing_reward": -3.0,
            "failing_host": 5,
            "snapshot_text": text,
        }
        lines = failures.getvalue().splitlines()
        assert [json.loads(line) for line in lines] == [expected, expected]
        assert len(trajectories.getvalue().splitlines()) == 2

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
        snapshots = read_attempt_logs(tmp_path)[1]
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
    def _http_run(monkeypatch, run_dir=None, threads=None):
        peaks = _record_decide_peaks(monkeypatch, LLMBackend, threads)
        connector = HttpConnector(base_url="http://provider.invalid", transport=_delayed_mock_transport)
        config = small_config(
            instances=3, stages=2, attempts_per_stage=1, eval_episodes_per_instance=1
        )
        return peaks, run_protocol(config, run_dir=run_dir, connector=connector).report

    def test_http_connector_uses_several_workers(self, monkeypatch):
        peaks, _ = self._http_run(monkeypatch)
        assert peaks["adaptation"] > 1

    def test_every_instance_of_a_stage_is_in_flight_at_once(self, monkeypatch):
        # Each instance's first call waits until all ten are waiting, which
        # only a pool with a worker per instance lets happen.
        instances = 10
        barrier = threading.Barrier(instances, timeout=10)
        lock = threading.Lock()
        started: set[int] = set()
        broken: list[int] = []
        original = LLMBackend.decide

        def decide(self, observation, memory, ctx=None):
            with lock:
                first = ctx.instance not in started
                started.add(ctx.instance)
            if first:
                try:
                    barrier.wait()
                except threading.BrokenBarrierError:
                    broken.append(ctx.instance)
            return original(self, observation, memory, ctx)

        monkeypatch.setattr(LLMBackend, "decide", decide)
        connector = HttpConnector(base_url="http://provider.invalid", transport=_mock_transport)
        config = small_config(
            instances=instances, stages=1, attempts_per_stage=1, eval_episodes_per_instance=1
        )
        run_protocol(config, connector=connector)
        assert started == set(range(1, instances + 1))
        assert broken == []

    def test_worker_count_is_capped_without_starting_a_thread(self):
        connector = HttpConnector(base_url="http://provider.invalid", transport=_mock_transport)
        before = threading.active_count()
        for instances, workers in ((1, 1), (10, 10), (protocol.WORKER_CAP, protocol.WORKER_CAP),
                                   (1000, protocol.WORKER_CAP)):
            config = small_config(instances=instances)
            backend = protocol.build_backend(config, connector=connector)
            assert protocol._stage_workers(config, backend) == workers
        assert threading.active_count() == before

    def test_barrier_and_purity_hold_on_the_http_pool(self, monkeypatch, protocol_calls):
        peaks = _record_decide_peaks(monkeypatch, LLMBackend)
        connector = HttpConnector(base_url="http://provider.invalid", transport=_delayed_mock_transport)
        config = small_config(instances=3, stages=3, attempts_per_stage=1, eval_episodes_per_instance=1)
        run_protocol(config, connector=connector)
        assert peaks["adaptation"] > 1
        assert {c.stage for c in protocol_calls if c.kind == "reflexion_loop"} == {1, 2, 3}
        assert_stage_barrier(protocol_calls, stages=3)
        assert_checkpoints_pure(protocol_calls)

    def test_http_connector_evaluates_on_several_workers(self, monkeypatch, tmp_path):
        threads = set()
        peaks, report = self._http_run(monkeypatch, tmp_path / "pooled", threads)
        assert peaks["evaluation"] > 1
        assert len(threads) > 1
        assert not any(thread.is_alive() for thread in threads)
        monkeypatch.undo()
        monkeypatch.setattr(protocol, "_stage_workers", lambda config, backend: 1)
        serial_peaks, serial = self._http_run(monkeypatch, tmp_path / "serial")
        assert serial_peaks == {"adaptation": 1, "evaluation": 1}
        assert report.eval_returns == serial.eval_returns
        pooled_files = TestRunDirectoryWrites.files(tmp_path / "pooled")
        names = {rel.as_posix() for rel in pooled_files}
        assert {"final_report.json", "stage_summary_02.json", "token_usage.log"} <= names
        assert any(name.endswith("/memory/artifacts.yaml") for name in names)
        assert pooled_files == TestRunDirectoryWrites.files(tmp_path / "serial")
