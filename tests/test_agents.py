from __future__ import annotations

import enum
import itertools
import logging
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import blank_observation, flags_for
from forge import agents
from forge import cage_lite as env
from forge.agents import (
    ACTION_REFERENCE_TABLE,
    CallContext,
    LLMBackend,
    ScriptedBackend,
    _host_line,
    clause_action,
    default_memory,
    mock_responder,
    output_token_cap,
    parse_action,
    parse_example_clause,
    parse_rule_clause,
    serialize_observation,
)
from forge.cage_lite import (
    VALID_ACTIONS,
    ActionKind,
    BlueAction,
    CompromiseLevel,
    InvalidActionError,
    StepRecord,
    format_step_record,
    lookup_action,
)
from forge.llm_connector import ChatMessage, ChatRequest, MockConnector, RequestMeta
from forge.memory import (
    ACTING_ROLES,
    ACTION_TABLE_MARKER,
    VALID_CLAUSE_RESPONSES,
    ArtifactKind,
    Clause,
    MemoryArtifact,
    Origin,
    Role,
)
from forge.reflexion import AttemptStatus, FailureSnapshot, run_attempt


def clause_rule(host: int, response: str = "Restore"):
    return MemoryArtifact(
        kind=ArtifactKind.RULE,
        text=f"When host {host} is compromised, then handle host {host}.",
        clause=Clause(host=host, response=response),
        origin=Origin(1, 1, 1),
        artifact_id=f"rule-{host}-{response}",
    )


def reference_host_line(observation: env.Observation, host: int) -> str:
    """The Analyst's host line, formatted afresh."""
    anomalous, suspicious, new_file = observation.flags(host)
    return (
        f"host={host} subnet={env.subnet_of(host).value}"
        f" anomalous_process={int(anomalous)} suspicious_connection={int(suspicious)}"
        f" new_file={int(new_file)}"
    )


def reference_flagged_hosts(observation: env.Observation) -> list[int]:
    """Every host showing any flag, in host order."""
    return [host for host in range(13) if True in observation.flags(host)]


def reference_serialize_observation(observation: env.Observation) -> str:
    """The Planner's observation text, formatted afresh."""
    lines = [f"step={observation.step_index}"]
    flagged = reference_flagged_hosts(observation)
    if not flagged:
        lines.append("no hosts flagged")
    lines.extend(reference_host_line(observation, host) for host in flagged)
    if observation.analysed_host is not None:
        level = (
            "inconclusive"
            if observation.analysed_level is None
            else observation.analysed_level.name.lower()
        )
        lines.append(f"analysed host={observation.analysed_host} level={level}")
    return "\n".join(lines)


def reference_step_record(record: StepRecord) -> str:
    """A trajectory log line, formatted afresh."""

    def bits(flags):
        return "".join("1" if f else "0" for f in flags)

    obs = record.observation
    target = "-" if record.action.target is None else str(record.action.target)
    return (
        f"step={obs.step_index:02d} action={record.action.kind.value} target={target}"
        f" reward={record.reward:.1f} anomalous={bits(obs.anomalous_process)}"
        f" suspicious={bits(obs.suspicious_connection)} newfile={bits(obs.new_file)}"
    )


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

    @given(observation=OBSERVATIONS)
    def test_first_flagged_host_is_the_lowest_flagged(self, observation):
        flagged = reference_flagged_hosts(observation)
        assert observation.first_flagged_host() == min(flagged, default=None)

    @given(observation=OBSERVATIONS)
    def test_without_firing_clause_equals_reference_heuristic(self, observation):
        # Clauses on hosts that are neither flagged nor confirmed never fire.
        memory = default_memory()
        flagged = reference_flagged_hosts(observation)
        quiet = set(range(13)) - set(flagged) - {observation.confirmed_host()}
        for host in sorted(quiet):
            memory.append(clause_rule(host))
        decision = ScriptedBackend().decide(observation, memory)
        assert decision == env.heuristic_policy(observation, None)


class TestScriptedActionTable:
    """Scripted decisions hand out shared actions, validated and in role order."""

    @pytest.mark.parametrize("response", VALID_CLAUSE_RESPONSES)
    def test_clause_actions_equal_new_actions(self, response):
        kind = ActionKind(response)
        for host in range(13):
            expected = BlueAction(kind) if kind is ActionKind.MONITOR else BlueAction(kind, host)
            assert clause_action(Clause(host=host, response=response)) == expected

    def test_a_scripted_attempt_builds_no_action(self, monkeypatch, memory):
        """Count-based guard: every action of a scripted attempt comes from the table."""
        hosts = (6, 10, 12)
        for host in hosts:
            memory.append(clause_rule(host))
        clause_actions = {BlueAction(ActionKind.RESTORE, host) for host in hosts}
        built = 0
        post_init = BlueAction.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            post_init(self)

        monkeypatch.setattr(BlueAction, "__post_init__", counting)
        outcome = run_attempt(memory, 11, None, ScriptedBackend())
        assert built == 0
        assert outcome.status is AttemptStatus.COMPLETED
        assert clause_actions & {r.action for r in outcome.trajectory}, "no clause fired"

    def test_a_scripted_episode_hashes_no_enum(self, monkeypatch, memory):
        """Count-based guard: no step of a scripted episode, clauses firing, hashes an enum."""
        hosts = (6, 10, 12)
        for host in hosts:
            memory.append(clause_rule(host))
        hashed = []
        enum_hash = enum.Enum.__hash__

        def counting(self):
            hashed.append(self)
            return enum_hash(self)

        monkeypatch.setattr(enum.Enum, "__hash__", counting)
        assert hash(Role.PLANNER) == enum_hash(Role.PLANNER) and hashed == [Role.PLANNER]
        hashed.clear()
        outcome = run_attempt(memory, 11, None, ScriptedBackend(), env=env)
        monkeypatch.undo()
        assert hashed == []
        fired = {BlueAction(ActionKind.RESTORE, host) for host in hosts}
        assert fired & {r.action for r in outcome.trajectory}, "no clause fired"


def snapshot_with(
    levels: dict[int, CompromiseLevel], memory, new_file_on=None, origin=Origin(2, 1, 1)
):
    episode, _ = env.begin(1)
    for host, level in levels.items():
        episode.hosts[host] = env.HostCompromise(level=level)
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
        origin=origin,
        failing_host=episode.foothold(),
    )


class TestScriptedLearning:
    def test_reflect_targets_deepest_compromised_host(self, memory):
        snapshot = snapshot_with(
            {6: CompromiseLevel.ROOT_ACCESS, 10: CompromiseLevel.USER_ACCESS}, memory
        )
        artifacts = ScriptedBackend().reflect(snapshot)
        assert len(artifacts) == 1
        assert artifacts[0].kind is ArtifactKind.RULE
        assert artifacts[0].clause == Clause(host=10, response="Restore")
        assert "host 10" in artifacts[0].text

    def test_reflect_without_persistence_evidence_prefers_remove(self, memory):
        snapshot = snapshot_with({6: CompromiseLevel.ROOT_ACCESS}, memory, new_file_on=[])
        artifacts = ScriptedBackend().reflect(snapshot)
        assert artifacts[0].clause.response == "Remove"

    @pytest.mark.parametrize(
        "levels, new_file_on, clause",
        [({}, None, None),
         ({6: CompromiseLevel.ROOT_ACCESS}, None, Clause(6, "Restore")),
         ({10: CompromiseLevel.USER_ACCESS}, [], Clause(10, "Remove"))],
        ids=["no-failing-host", "restore", "remove"],
    )
    def test_exemplify_text_parses_to_its_clause(self, memory, levels, new_file_on, clause):
        # The LLM path reads the clause off the example's Answer line; the
        # scripted example must say what its clause plays.
        snapshot = snapshot_with(levels, memory, new_file_on=new_file_on)
        [artifact] = ScriptedBackend().exemplify(snapshot)
        assert artifact.clause == clause
        assert parse_example_clause(artifact.text) == clause

    def test_exemplify_produces_interaction_example(self, memory):
        snapshot = snapshot_with({6: CompromiseLevel.ROOT_ACCESS}, memory)
        artifacts = ScriptedBackend().exemplify(snapshot)
        assert len(artifacts) == 1
        assert artifacts[0].kind is ArtifactKind.EXAMPLE
        for marker in ("Thought:", "Tool:", "Observation:", "Answer:"):
            assert marker in artifacts[0].text

    def test_origin_stamped_on_artifacts(self, memory):
        origin = Origin(stage=3, attempt=2, instance=5)
        snapshot = snapshot_with({6: CompromiseLevel.USER_ACCESS}, memory, origin=origin)
        for artifact in ScriptedBackend().reflect(snapshot):
            assert artifact.origin == origin


class TestParsing:
    @pytest.mark.parametrize("case", [str.lower, str.upper, str.capitalize, str.swapcase])
    def test_parse_action_returns_the_table_entry(self, case):
        for kind, target in VALID_ACTIONS:
            answer = case(kind) if target is None else f"{case(kind)} {target}"
            assert parse_action(f"Answer: {answer}") is lookup_action(kind, target)
        assert parse_action(f"Answer: {case('Monitor')} 3") is lookup_action("Monitor")
        for kind in ("Analyse", "Remove", "Restore", "Decoy"):
            assert parse_action(f"Answer: {case(kind)} 13") is None
            # "-1" is outside the network: neither host 1 nor a host counted
            # from the end of it.
            assert parse_action(f"Answer: {case(kind)} -1") is None

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

    def test_parse_rule_clause_reads_the_response_after_then(self):
        # The condition's "decoy" is evidence, not the rule's response.
        clause = parse_rule_clause("When a decoy on host 7 was consumed, then restore host 7.")
        assert clause == Clause(host=7, response="Restore")
        # The host is still the first one the rule names.
        clause = parse_rule_clause("When host 4 is flagged, then analyse host 5.")
        assert clause == Clause(host=4, response="Analyse")
        assert parse_rule_clause("When host 4 needs a restore, then wait.") is None


class RecordingConnector:
    """Wraps a connector and keeps every request, and the role it was made for."""

    def __init__(self, inner):
        self.inner = inner
        self.requests: list[ChatRequest] = []
        self.roles: list[str] = []

    def complete(self, request, meta=None):
        self.requests.append(request)
        self.roles.append(meta.role)
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

    @pytest.mark.parametrize(
        "tool, reply, result",
        [
            (
                "analyse host=6",
                "Severity: HIGH\nSummary:  live intrusion  \nFocus: Containment now",
                "Severity: high\nSummary: live intrusion\nFocus: containment",
            ),
            (
                "analyse host=6",
                "I cannot tell.",
                "Severity: none\nSummary: analysis unavailable\nFocus: monitoring",
            ),
            (
                "rank_actions host=6 severity=high situation=confirmed",
                '[{"action": "Remove 3", "confidence": 0.2},'
                ' {"action": "Restore 13", "confidence": 0.99},'
                ' {"action": "Restore 6", "confidence": 0.9},'
                ' {"action": "monitor", "confidence": 0.5}]',
                '[{"action": "Restore 6", "confidence": 0.9},'
                ' {"action": "Monitor", "confidence": 0.5},'
                ' {"action": "Remove 3", "confidence": 0.2}]',
            ),
            (
                "rank_actions host=6",
                "Restore host 6, surely.",
                '[{"action": "Monitor", "confidence": 1.0}]',
            ),
            (
                "rank_actions host=1",
                '[{"action": "Restore -1", "confidence": 0.95},'
                ' {"action": "Restore 1", "confidence": 0.5}]',
                '[{"action": "Restore 1", "confidence": 0.5}]',
            ),
        ],
    )
    def test_tool_result_text(self, memory, tool, reply, result):
        """The planner reads a sub-agent's reply back in one normalized form."""

        def responder(request: ChatRequest) -> str:
            system = request.messages[0].content
            if "You are the Analyst" in system or "You are the Action Chooser" in system:
                return reply
            if len(request.messages) == 2:
                return f"Tool: {tool}"
            return "Answer: Monitor"

        connector = RecordingConnector(MockConnector(responder=responder))
        backend = LLMBackend(connector)
        backend.decide(blank_observation(), memory, CallContext())
        assert connector.roles[::2] == [Role.PLANNER.value] * 2
        assert connector.requests[-1].messages[-1].content == f"Observation: {result}"

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

    @pytest.mark.parametrize("tool", ["analyse host=13", "rank_actions host=13 severity=high"])
    def test_out_of_range_tool_host_gets_an_error_and_no_completion(self, memory, tool):
        def responder(request: ChatRequest) -> str:
            if len(request.messages) == 2:
                return f"Tool: {tool}"
            return "Answer: Restore 6"

        connector = RecordingConnector(MockConnector(responder=responder))
        backend = LLMBackend(connector)
        decision = backend.decide(blank_observation(), memory, CallContext())
        assert decision == BlueAction(ActionKind.RESTORE, 6)
        assert connector.roles == [Role.PLANNER.value] * 2
        assert connector.requests[-1].messages[-1].content == (
            "Observation: Error: host must be in 0..12, got 13"
        )

    def test_out_of_range_tool_calls_count_against_the_budget(self, memory):
        connector = RecordingConnector(
            MockConnector(responder=lambda r: "Tool: analyse host=13")
        )
        decision = LLMBackend(connector).decide(blank_observation(), memory, CallContext())
        assert decision == BlueAction(ActionKind.MONITOR)
        # Every tool call in budget, one over it, then the reprompts.
        budget = agents.SUBAGENT_CALL_BUDGET + 1 + agents.PARSE_REPROMPTS
        assert connector.roles == [Role.PLANNER.value] * budget

    def test_negative_host_answer_is_reprompted(self, memory):
        def responder(request: ChatRequest) -> str:
            return "Answer: Restore -1" if len(request.messages) == 2 else "Answer: Restore 1"

        connector = RecordingConnector(MockConnector(responder=responder))
        decision = LLMBackend(connector).decide(blank_observation(), memory, CallContext())
        assert decision == BlueAction(ActionKind.RESTORE, 1)
        assert connector.roles == [Role.PLANNER.value] * 2

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

    def test_subagent_prompts_carry_persistent_text_only(self, memory):
        memory.append(clause_rule(6))
        connector = RecordingConnector(MockConnector(responder=mock_responder))
        backend = LLMBackend(connector)
        observation = blank_observation(anomalous_process=flags_for([6]))
        backend.decide(observation, memory, CallContext())
        backend.analyse(6, observation, memory, CallContext())
        backend.rank_actions({"host": 6, "severity": "high"}, memory, CallContext())
        planner, analyst, chooser = (r.messages[0].content for r in connector.requests)
        assert connector.roles == [Role.PLANNER.value, Role.ANALYST.value, Role.ACTION_CHOOSER.value]
        assert planner.endswith(memory.render())
        assert memory.dynamic[0].text in planner
        for role, prompt in ((Role.ANALYST, analyst), (Role.ACTION_CHOOSER, chooser)):
            assert prompt == agents._DEFAULT_SYSTEM_PROMPTS[role] + "\n\n" + memory.persistent[role]

    def test_llm_reflect_parses_rules_with_clauses(self, memory):
        snapshot = snapshot_with({6: CompromiseLevel.ROOT_ACCESS}, memory)
        backend = LLMBackend(MockConnector(responder=mock_responder))
        artifacts = backend.reflect(snapshot, CallContext())
        assert artifacts
        assert artifacts[0].kind is ArtifactKind.RULE
        assert artifacts[0].clause == Clause(host=6, response="Restore")

    def test_llm_reflect_drops_a_rule_on_an_unknown_host(self, memory):
        snapshot = snapshot_with({6: CompromiseLevel.ROOT_ACCESS}, memory)
        reply = (
            "- When host 13 is compromised, then restore host 13.\n"
            "- When host 6 is compromised, then restore host 6.\n"
        )
        backend = LLMBackend(MockConnector(responder=lambda r: reply))
        artifacts = backend.reflect(snapshot, CallContext())
        assert [a.clause for a in artifacts] == [Clause(host=6, response="Restore")]

    def test_llm_reflect_reprompts_then_gives_up(self, memory, caplog):
        snapshot = snapshot_with({6: CompromiseLevel.USER_ACCESS}, memory)
        backend = LLMBackend(MockConnector(responder=lambda r: "not a rule"))
        with caplog.at_level(logging.WARNING):
            artifacts = backend.reflect(snapshot, CallContext())
        assert artifacts == []
        assert any("no valid rules" in r.message for r in caplog.records)

    def test_llm_exemplify_returns_marked_example(self, memory):
        snapshot = snapshot_with({10: CompromiseLevel.USER_ACCESS}, memory)
        backend = LLMBackend(MockConnector(responder=mock_responder))
        artifacts = backend.exemplify(snapshot, CallContext())
        assert len(artifacts) == 1
        assert artifacts[0].kind is ArtifactKind.EXAMPLE
        assert artifacts[0].clause is not None and artifacts[0].clause.host == 10


class TestRoleConfigs:
    @staticmethod
    def sampling_by_role(memory) -> dict[str, set[tuple[float, int]]]:
        """Drive all five roles once and collect (temperature, output cap) per role."""
        connector = RecordingConnector(MockConnector(responder=mock_responder))
        backend = LLMBackend(connector)
        observation = blank_observation(anomalous_process=flags_for([6]))
        backend.decide(observation, memory, CallContext())
        backend.analyse(6, observation, memory, CallContext())
        backend.rank_actions({"host": 6, "severity": "high"}, memory, CallContext())
        snapshot = snapshot_with({6: CompromiseLevel.ROOT_ACCESS}, memory)
        backend.reflect(snapshot, CallContext())
        backend.exemplify(snapshot, CallContext())
        sampling: dict[str, set[tuple[float, int]]] = {}
        for role, request in zip(connector.roles, connector.requests, strict=True):
            sampling.setdefault(role, set()).add(
                (request.temperature, request.max_output_tokens)
            )
        return sampling

    def test_defaults_run_at_temperature_zero_within_output_cap(self, memory):
        sampling = self.sampling_by_role(memory)
        assert set(sampling) == {role.value for role in Role}
        for role in Role:
            for temperature, cap in sampling[role.value]:
                assert temperature == 0.0
                assert 0 < cap <= output_token_cap(role)

    def test_learning_roles_get_larger_cap(self, memory):
        # Learning agents may write twice as much as acting ones.
        sampling = self.sampling_by_role(memory)
        assert sampling == {
            role.value: {(0.0, 10_000 if role in ACTING_ROLES else 20_000)} for role in Role
        }


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


@given(
    OBSERVATIONS,
    st.sampled_from(list(VALID_ACTIONS.values())),
    st.integers(-300, 0).map(lambda tenths: tenths / 10),
)
def test_table_built_text_equals_the_reference_format(observation, action, reward):
    assert serialize_observation(observation) == reference_serialize_observation(observation)
    for host in range(13):
        assert _host_line(observation, host) == reference_host_line(observation, host)
    record = StepRecord(action, reward, observation)
    assert format_step_record(record) == reference_step_record(record)


@pytest.mark.parametrize("host", [13, -1])
def test_host_line_rejects_a_host_outside_the_network(host):
    with pytest.raises(InvalidActionError):
        _host_line(blank_observation(), host)


class TestCallContext:
    def test_meta_is_shared_per_instance_phase_and_role(self):
        ctx = CallContext(instance=4, phase="evaluation")
        meta = ctx.meta(Role.ANALYST)
        assert meta == RequestMeta(instance=4, role="analyst", phase="evaluation")
        assert CallContext(instance=4, phase="evaluation").meta(Role.ANALYST) is meta
        assert ctx.meta(Role.PLANNER) != meta
        assert CallContext(instance=5, phase="evaluation").meta(Role.ANALYST) != meta

    def test_meta_is_right_under_concurrent_first_calls(self):
        agents._request_meta.cache_clear()
        keys = [
            (instance, phase, role)
            for instance in range(6)
            for phase in ("adaptation", "evaluation")
            for role in Role
        ]
        wrong = []

        def worker(offset: int) -> None:
            for i in range(2_000):
                instance, phase, role = keys[(offset + i) % len(keys)]
                meta = CallContext(instance=instance, phase=phase).meta(role)
                if meta != RequestMeta(instance=instance, role=role.value, phase=phase):
                    wrong.append(meta)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n * 7,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
