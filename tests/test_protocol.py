from __future__ import annotations

import hashlib
import json
import re
import threading
import time
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
from forge.memory import Representation, Role
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
    *(("max_workers", v) for v in ("'four'", "2.9", "2.0", "true", "0", "-3", "[2]")),
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
]

# The max_workers cases keep the bare-value ids they were first listed under.
BAD_VALUE_IDS = [v if k == "max_workers" else f"{k}={v}" for k, v in BAD_VALUES]


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
            {"max_workers": 0},
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

    @pytest.mark.parametrize("key, value", BAD_VALUES, ids=BAD_VALUE_IDS)
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

    @pytest.mark.parametrize(
        "text, expected",
        [("max_workers: null\n", None), ("max_workers:\n", None), ("instances: 3\n", None),
         ("max_workers: 3\n", 3)],
    )
    def test_max_workers_loaded(self, tmp_path, text, expected):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        assert load_config(path).max_workers == expected

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

    def test_everyone_graduates_early_stops_attempts(self):
        result = run_protocol(
            small_config(stages=3, graduation_threshold=-10_000.0)
        )
        report = result.report
        assert all(s == 1 for s in report.graduation_stage.values())
        later_attempts = [
            e for e in result.events if e.kind == "attempt" and e.stage > 1
        ]
        assert later_attempts == []
        for returns in report.eval_returns.values():
            assert len(returns) == 2

    def test_graduation_disabled_keeps_everyone_active(self):
        result = run_protocol(
            small_config(graduation_threshold=-10_000.0, graduation_enabled=False)
        )
        assert all(s is None for s in result.report.graduation_stage.values())
        attempts_last_stage = [
            e
            for e in result.events
            if e.kind == "attempt" and e.stage == result.report.config["stages"]
        ]
        assert len(attempts_last_stage) == 3 * 2  # all instances, all attempts

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

    def test_stage_barrier_ordering(self):
        result = run_protocol(small_config(stages=3))
        for stage in (1, 2):
            ckpt_seqs = [
                e.seq for e in result.events if e.kind == "checkpoint" and e.stage == stage
            ]
            next_attempts = [
                e.seq for e in result.events if e.kind == "attempt" and e.stage == stage + 1
            ]
            if ckpt_seqs and next_attempts:
                assert max(ckpt_seqs) < min(next_attempts)

    def test_attempt_budget_respected(self):
        config = small_config()
        result = run_protocol(config)
        by_key: dict[tuple[int, int], int] = {}
        for event in result.events:
            if event.kind == "attempt":
                key = (event.stage, event.instance)
                by_key[key] = by_key.get(key, 0) + 1
        assert by_key
        assert all(count <= config.attempts_per_stage for count in by_key.values())

    def test_checkpoint_purity(self):
        result = run_protocol(small_config())
        checkpoints = [e for e in result.events if e.kind == "checkpoint"]
        assert checkpoints
        for event in checkpoints:
            assert event.payload["memory_hash_before"] == event.payload["memory_hash_after"]

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

        The values were computed before the snapshot writers moved to libyaml;
        a change that alters any of these bytes must say why and update them.
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
            "baf711ce5305b3613503746a688cc9dd713d00bf7fb975f8ff24aeea5651372a"
        )
        assert len(snapshots) == 3 * 2 * 6 + 12  # memory files per stage, failure snapshots
        assert hashlib.sha256(manifest.encode("utf-8")).hexdigest() == (
            "1f52499dacdc710742d3965db1ff0f1ad801c1fca24e56b0ecd5804121636fd0"
        )

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
        saved: list[tuple] = []
        dump_yaml = memory_module.dump_yaml
        save_workspace = protocol.save_workspace

        def counting_dump(data):
            events.append("dump")
            return dump_yaml(data)

        def recording_save(memory, directory, *args):
            paths = save_workspace(memory, directory, *args)
            saved.append((memory.clone(), Path(directory)))
            events.append(Path(directory).parent.name)
            return paths

        monkeypatch.setattr(memory_module, "dump_yaml", counting_dump)
        monkeypatch.setattr(protocol, "save_workspace", recording_save)
        config = small_config(stages=3, representation=Representation.MIXED)
        result = run_protocol(config, run_dir=tmp_path / "run")

        dumps_by_stage: dict[str, int] = {}
        pending = 0
        for event in events:
            if event == "dump":
                pending += 1
            else:
                dumps_by_stage[event] = dumps_by_stage.get(event, 0) + pending
                pending = 0
        assert pending == 0
        distinct = {
            f"stage_{r.stage:02d}": len(set(r.memory_hashes.values()))
            for r in result.report.stage_reports
        }
        assert min(distinct.values()) < config.instances, "expected a broadcast to share memories"
        assert dumps_by_stage == {stage: 6 * n for stage, n in distinct.items()}

        assert len(saved) == config.instances * config.stages
        for k, (memory, directory) in enumerate(saved):
            fresh = memory_module.save_workspace(memory, tmp_path / "fresh" / str(k))
            assert sorted(p.name for p in directory.iterdir()) == sorted(p.name for p in fresh)
            for path in fresh:
                assert (directory / path.name).read_bytes() == path.read_bytes()

    def test_failure_text_serialized_once_per_aborted_attempt(self, tmp_path, monkeypatch):
        calls = []
        serialize_snapshot = agents.serialize_snapshot

        def counting(snapshot):
            calls.append(snapshot.metadata)
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
        trained = run_protocol(config).report.pooled_returns()
        zero = [r for rs in evaluate_zero_shot(config).values() for r in rs]
        assert sum(trained) / len(trained) > sum(zero) / len(zero)


def _record_decide_peaks(monkeypatch, backend_cls) -> dict[str, int]:
    """Peak number of ``decide`` calls in flight, by the phase of the call.

    Training and final evaluation never overlap in time, so each phase's peak
    counts only calls of that phase.
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
    """Offline backends train and evaluate on one worker; only network waits get more."""

    @pytest.mark.parametrize("backend, backend_cls", [
        ("scripted", ScriptedBackend),
        ("mock", LLMBackend),
    ])
    def test_offline_backend_uses_one_worker(self, monkeypatch, backend, backend_cls):
        peaks = _record_decide_peaks(monkeypatch, backend_cls)
        run_protocol(small_config(backend=backend, instances=4, stages=1))
        assert peaks == {"adaptation": 1, "evaluation": 1}

    @staticmethod
    def _http_run(monkeypatch, **overrides):
        peaks = _record_decide_peaks(monkeypatch, LLMBackend)
        connector = HttpConnector(base_url="http://provider.invalid", transport=_delayed_mock_transport)
        config = small_config(
            instances=3, stages=1, attempts_per_stage=1, eval_episodes_per_instance=1, **overrides
        )
        return peaks, run_protocol(config, connector=connector).report

    def test_http_connector_uses_several_workers(self, monkeypatch):
        peaks, _ = self._http_run(monkeypatch)
        assert peaks["adaptation"] > 1

    def test_http_connector_evaluates_on_several_workers(self, monkeypatch):
        peaks, report = self._http_run(monkeypatch)
        assert peaks["evaluation"] > 1
        monkeypatch.undo()
        serial_peaks, serial = self._http_run(monkeypatch, max_workers=1)
        assert serial_peaks == {"adaptation": 1, "evaluation": 1}
        assert report.eval_returns == serial.eval_returns

    def test_explicit_max_workers_honoured(self, monkeypatch):
        peaks = _record_decide_peaks(monkeypatch, ScriptedBackend)
        run_protocol(small_config(backend="scripted", instances=4, stages=1, max_workers=4))
        assert peaks["adaptation"] > 1
