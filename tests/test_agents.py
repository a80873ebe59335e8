from __future__ import annotations

import itertools
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import blank_observation, flags_for
from forge import cage_lite as env
from forge.agents import (
    ACTION_REFERENCE_TABLE,
    AgentRoleConfig,
    CallContext,
    LLMBackend,
    RoleConfigError,
    ScriptedBackend,
    default_memory,
    default_role_configs,
    mock_responder,
    output_token_cap,
    parse_action,
    parse_rule_clause,
    serialize_observation,
)
from forge.cage_lite import ActionKind, BlueAction, CompromiseLevel
from forge.llm_connector import ChatMessage, ChatRequest, MockConnector
from forge.memory import (
    ACTION_TABLE_MARKER,
    ArtifactKind,
    Clause,
    MemoryArtifact,
    Origin,
    Representation,
    Role,
)
from forge.reflexion import FailureSnapshot


def clause_rule(host: int, response: str = "Restore", trigger: str = "compromised"):
    return MemoryArtifact(
        kind=ArtifactKind.RULE,
        role=Role.PLANNER,
        text=f"When host {host} is compromised, then handle host {host}.",
        clause=Clause(host=host, response=response, trigger=trigger),
        origin=Origin(1, 1, 1),
        artifact_id=f"rule-{host}-{response}",
    )


class TestRoleConfigs:
    def test_nonzero_temperature_rejected(self):
        with pytest.raises(RoleConfigError):
            AgentRoleConfig(role=Role.PLANNER, system_prompt="x", temperature=0.7)

    def test_acting_token_cap(self):
        with pytest.raises(RoleConfigError):
            AgentRoleConfig(role=Role.PLANNER, system_prompt="x", max_output_tokens=20_000)

    def test_defaults_run_at_temperature_zero_within_output_cap(self):
        configs = default_role_configs()
        assert set(configs) == set(Role)
        for role, config in configs.items():
            assert config.role is role
            assert config.temperature == 0.0
            assert 0 < config.max_output_tokens <= output_token_cap(role)

    def test_learning_roles_get_larger_cap(self):
        config = default_role_configs()
        assert config[Role.PLANNER].max_output_tokens == 10_000
        assert config[Role.REFLECTOR].max_output_tokens == 20_000
        assert config[Role.EXEMPLIFIER].max_output_tokens == 20_000


HOST_FLAGS = st.tuples(*[st.booleans()] * 13)
OBSERVATIONS = st.builds(
    env.Observation,
    anomalous_process=HOST_FLAGS,
    suspicious_connection=HOST_FLAGS,
    new_file=HOST_FLAGS,
    step_index=st.integers(0, 29),
    analysed_host=st.none() | st.integers(0, 12),
    analysed_level=st.none() | st.sampled_from(CompromiseLevel),
)


class TestScriptedDecide:
    def test_no_flags_empty_memory_is_monitor(self, memory):
        backend = ScriptedBackend()
        decision = backend.decide(blank_observation(), memory)
        assert decision == BlueAction(ActionKind.MONITOR)

    def test_clause_match_restores_host(self, memory):
        memory.append(clause_rule(3))
        backend = ScriptedBackend()
        observation = blank_observation(anomalous_process=flags_for([3]))
        decision = backend.decide(observation, memory)
        assert decision == BlueAction(ActionKind.RESTORE, 3)

    def test_first_matching_clause_wins(self, memory):
        # Oracle: enumerate both insertion orders and assert first-match.
        backend = ScriptedBackend()
        observation = blank_observation(anomalous_process=flags_for([3, 9]))
        for first, second in itertools.permutations([3, 9]):
            mem = default_memory()
            mem.append(clause_rule(first))
            mem.append(clause_rule(second))
            decision = backend.decide(observation, mem)
            assert decision == BlueAction(ActionKind.RESTORE, first)

    def test_representation_filters_clauses(self, memory):
        memory.append(clause_rule(3))
        backend = ScriptedBackend(representation=Representation.EXAMPLES)
        observation = blank_observation(anomalous_process=flags_for([3]))
        decision = backend.decide(observation, memory)
        assert decision != BlueAction(ActionKind.RESTORE, 3)

    def test_confirmed_compromise_restored_without_clause(self, memory):
        backend = ScriptedBackend()
        observation = blank_observation(
            anomalous_process=flags_for([6]),
            analysed_host=6,
            analysed_level=CompromiseLevel.USER_ACCESS,
        )
        decision = backend.decide(observation, memory)
        assert decision == BlueAction(ActionKind.RESTORE, 6)

    def test_unconfirmed_flags_get_analysed_first(self, memory):
        backend = ScriptedBackend()
        observation = blank_observation(anomalous_process=flags_for([6]))
        decision = backend.decide(observation, memory)
        assert decision == BlueAction(ActionKind.ANALYSE, 6)

    def test_decide_is_pure(self, memory):
        memory.append(clause_rule(6))
        backend = ScriptedBackend()
        observation = blank_observation(suspicious_connection=flags_for([2, 6]))
        assert backend.decide(observation, memory) == backend.decide(observation, memory)

    def test_decisions_always_valid_in_environment(self, memory):
        backend = ScriptedBackend()
        memory.append(clause_rule(6))
        memory.append(clause_rule(10, response="Remove"))
        episode, observation = env.begin(17)
        while not episode.done:
            decision = backend.decide(observation, memory)
            observation, _ = env.step(episode, decision)

    @given(observation=OBSERVATIONS, representation=st.sampled_from(Representation))
    def test_without_firing_clause_equals_reference_heuristic(self, observation, representation):
        # Clauses on hosts that are neither flagged nor confirmed never fire.
        memory = default_memory()
        quiet = set(range(13)) - set(observation.flagged_hosts()) - {observation.confirmed_host()}
        for host in sorted(quiet):
            memory.append(clause_rule(host))
        decision = ScriptedBackend(representation).decide(observation, memory)
        assert decision == env.heuristic_policy(observation, None)


def snapshot_with(levels: dict[int, CompromiseLevel], memory, new_file_on=None):
    episode, _ = env.begin(1)
    for host, level in levels.items():
        episode.hosts[host] = env.HostCompromise(level=level)
    state = episode.state()
    observation = blank_observation(
        step_index=1,
        anomalous_process=flags_for(list(levels)),
        new_file=flags_for(new_file_on if new_file_on is not None else list(levels)),
    )
    record = env.StepRecord(
        action=BlueAction(ActionKind.MONITOR), reward=-1.2, observation=observation
    )
    return FailureSnapshot(
        trajectory=(record,),
        memory_at_failure=memory.clone(),
        origin=Origin(stage=2, attempt=1, instance=1),
        env_state=state,
    )


class TestScriptedLearning:
    def test_reflect_targets_deepest_compromised_host(self, memory):
        snapshot = snapshot_with(
            {6: CompromiseLevel.ROOT_ACCESS, 10: CompromiseLevel.USER_ACCESS}, memory
        )
        artifacts = ScriptedBackend().reflect(snapshot, Origin(2, 1, 1))
        assert len(artifacts) == 1
        assert artifacts[0].kind is ArtifactKind.RULE
        assert artifacts[0].clause == Clause(host=10, response="Restore")
        assert "host 10" in artifacts[0].text

    def test_reflect_without_persistence_evidence_prefers_remove(self, memory):
        snapshot = snapshot_with({6: CompromiseLevel.ROOT_ACCESS}, memory, new_file_on=[])
        artifacts = ScriptedBackend().reflect(snapshot, Origin(2, 1, 1))
        assert artifacts[0].clause.response == "Remove"

    def test_exemplify_produces_interaction_example(self, memory):
        snapshot = snapshot_with({6: CompromiseLevel.ROOT_ACCESS}, memory)
        artifacts = ScriptedBackend().exemplify(snapshot, Origin(2, 1, 1))
        assert len(artifacts) == 1
        assert artifacts[0].kind is ArtifactKind.EXAMPLE
        for marker in ("Thought:", "Tool:", "Observation:", "Answer:"):
            assert marker in artifacts[0].text

    def test_origin_stamped_on_artifacts(self, memory):
        snapshot = snapshot_with({6: CompromiseLevel.USER_ACCESS}, memory)
        origin = Origin(stage=3, attempt=2, instance=5)
        for artifact in ScriptedBackend().reflect(snapshot, origin):
            assert artifact.origin == origin


class TestParsing:
    def test_parse_action_variants(self):
        assert parse_action("Answer: Monitor") == BlueAction(ActionKind.MONITOR)
        assert parse_action("thinking...\nAnswer: Restore 12") == BlueAction(
            ActionKind.RESTORE, 12
        )
        assert parse_action("Answer: restore host 6") == BlueAction(ActionKind.RESTORE, 6)
        assert parse_action("Answer: Decoy 10 please") == BlueAction(ActionKind.DECOY, 10)

    def test_parse_action_rejects_garbage(self):
        assert parse_action("no action here") is None
        assert parse_action("Answer: Restore") is None  # needs a target
        assert parse_action("Answer: Restore 99") is None  # out of range

    def test_parse_rule_clause(self):
        clause = parse_rule_clause("When host 9 is compromised, then restore host 9.")
        assert clause == Clause(host=9, response="Restore")
        assert parse_rule_clause("When things look bad, then escalate.") is None


class RecordingConnector:
    """Wraps a connector and keeps every request for prompt inspection."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[ChatRequest] = []

    def complete(self, request, meta=None):
        self.requests.append(request)
        return self.inner.complete(request, meta)


class TestLLMBackend:
    def test_mock_decide_monitors(self, memory):
        backend = LLMBackend(MockConnector(responder=mock_responder))
        decision = backend.decide(blank_observation(), memory, CallContext())
        assert decision == BlueAction(ActionKind.MONITOR)

    def test_tool_call_loop_consults_subagents(self, memory):
        def responder(request: ChatRequest) -> str:
            system = request.messages[0].content
            if "You are the Analyst" in system:
                return "Severity: high\nSummary: live intrusion\nFocus: containment"
            if "You are the Action Chooser" in system:
                return '[{"action": "Restore 6", "confidence": 0.9}]'
            # planner: ask for analysis first, then answer
            if not any("Observation: Severity" in m.content for m in request.messages):
                return "Thought: check host 6.\nTool: analyse host=6"
            return "Thought: confirmed.\nAnswer: Restore 6"

        backend = LLMBackend(MockConnector(responder=responder))
        observation = blank_observation(anomalous_process=flags_for([6]))
        decision = backend.decide(observation, memory, CallContext())
        assert decision == BlueAction(ActionKind.RESTORE, 6)
        assert [e.role for e in backend.ledger.entries()] == [
            Role.PLANNER.value,
            Role.ANALYST.value,
            Role.PLANNER.value,
        ]

    def test_subagent_call_budget_is_bounded(self, memory):
        def responder(request: ChatRequest) -> str:
            system = request.messages[0].content
            if "You are the Analyst" in system:
                return "Severity: low\nSummary: quiet\nFocus: monitoring"
            return "Tool: analyse host=3"  # planner never answers

        backend = LLMBackend(MockConnector(responder=responder))
        decision = backend.decide(blank_observation(), memory, CallContext())
        analyst_calls = [e for e in backend.ledger.entries() if e.role == Role.ANALYST.value]
        assert len(analyst_calls) == 6
        assert decision == BlueAction(ActionKind.MONITOR)

    def test_parse_failure_falls_back_to_monitor(self, memory, caplog):
        backend = LLMBackend(MockConnector(responder=lambda r: "gibberish"))
        with caplog.at_level(logging.WARNING):
            decision = backend.decide(blank_observation(), memory, CallContext())
        assert decision == BlueAction(ActionKind.MONITOR)
        assert any("unparseable" in r.message for r in caplog.records)

    def test_planner_prompt_never_contains_action_table(self, memory):
        memory.append(clause_rule(6))
        connector = RecordingConnector(MockConnector(responder=mock_responder))
        backend = LLMBackend(connector)
        observation = blank_observation(anomalous_process=flags_for([6]))
        backend.decide(observation, memory, CallContext())
        backend.analyse(6, observation, memory, CallContext())
        backend.rank_actions({"host": 6, "severity": "high"}, memory, CallContext())
        planner_requests = [
            r for r in connector.requests if "You are the Planner" in r.messages[0].content
        ]
        chooser_requests = [
            r
            for r in connector.requests
            if "You are the Action Chooser" in r.messages[0].content
        ]
        assert planner_requests and chooser_requests
        for request in planner_requests:
            assert all(ACTION_TABLE_MARKER not in m.content for m in request.messages)
        assert any(
            ACTION_TABLE_MARKER in m.content for m in chooser_requests[0].messages
        )

    def test_llm_reflect_parses_rules_with_clauses(self, memory):
        snapshot = snapshot_with({6: CompromiseLevel.ROOT_ACCESS}, memory)
        backend = LLMBackend(MockConnector(responder=mock_responder))
        artifacts = backend.reflect(snapshot, Origin(2, 1, 1), CallContext())
        assert artifacts
        assert artifacts[0].kind is ArtifactKind.RULE
        assert artifacts[0].clause == Clause(host=6, response="Restore")

    def test_llm_reflect_reprompts_then_gives_up(self, memory, caplog):
        snapshot = snapshot_with({6: CompromiseLevel.USER_ACCESS}, memory)
        backend = LLMBackend(MockConnector(responder=lambda r: "not a rule"))
        with caplog.at_level(logging.WARNING):
            artifacts = backend.reflect(snapshot, Origin(2, 1, 1), CallContext())
        assert artifacts == []
        assert any("no valid rules" in r.message for r in caplog.records)

    def test_llm_exemplify_returns_marked_example(self, memory):
        snapshot = snapshot_with({10: CompromiseLevel.USER_ACCESS}, memory)
        backend = LLMBackend(MockConnector(responder=mock_responder))
        artifacts = backend.exemplify(snapshot, Origin(2, 1, 1), CallContext())
        assert len(artifacts) == 1
        assert artifacts[0].kind is ArtifactKind.EXAMPLE
        assert artifacts[0].clause is not None and artifacts[0].clause.host == 10


class TestMockResponder:
    def test_deterministic_per_role(self):
        planner = ChatRequest(
            model="m",
            messages=(
                ChatMessage("system", "You are the Planner etc."),
                ChatMessage("user", "Observation:\nno hosts flagged"),
            ),
        )
        assert mock_responder(planner) == mock_responder(planner)
        assert parse_action(mock_responder(planner)) == BlueAction(ActionKind.MONITOR)

    def test_reflector_keys_on_failing_host(self):
        request = ChatRequest(
            model="m",
            messages=(
                ChatMessage("system", "You are the Reflector."),
                ChatMessage("user", "aborted at step=4\nfailing_host=10\ntrajectory:"),
            ),
        )
        assert "host 10" in mock_responder(request)


def test_serialize_observation_lists_flagged_hosts():
    observation = blank_observation(
        anomalous_process=flags_for([6]),
        analysed_host=6,
        analysed_level=CompromiseLevel.USER_ACCESS,
    )
    text = serialize_observation(observation)
    assert "host=6" in text
    assert "analysed host=6 level=user_access" in text
    assert "subnet=user" in text
