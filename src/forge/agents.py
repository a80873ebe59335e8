"""Defender agents: two interchangeable policy backends over one memory.

The LLM backend is the hierarchical agent: a Planner that consults Analyst
and ActionChooser sub-agents through tool calls in chat completions, and
finishes with a final ``Answer:`` line. The scripted backend is a
deterministic function of (observation, memory): learned clauses fire first,
and otherwise it plays ``cage_lite.heuristic_policy``, the reference
heuristic that ``forge baselines`` reports.

The planner deliberately receives no action reference table; only the
ActionChooser and the learning agents (Reflector, Exemplifier) hold it, so
any strategic competence the planner shows comes from learned artifacts.
"""

from __future__ import annotations

import functools
import json
import logging
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .calibration import HOST_COUNT
from .cage_lite import (
    VALID_ACTIONS,
    ActionKind,
    BlueAction,
    InvalidActionError,
    Observation,
    format_step_record,
    heuristic_policy,
    lookup_action,
    subnet_of,
)
from .llm_connector import ChatMessage, ChatRequest, ChatResponse, RequestMeta, TokenLedger
from .memory import (
    ACTING_ROLES,
    ACTION_TABLE_MARKER,
    ArtifactKind,
    ArtifactValidationError,
    Clause,
    InstanceMemory,
    MemoryArtifact,
    Origin,
    Representation,
    Role,
)

if TYPE_CHECKING:
    from .reflexion import FailureSnapshot

logger = logging.getLogger(__name__)

ACTING_MAX_OUTPUT_TOKENS = 10_000
LEARNING_MAX_OUTPUT_TOKENS = 20_000
SUBAGENT_CALL_BUDGET = 6
PARSE_REPROMPTS = 2


def output_token_cap(role: Role) -> int:
    """Learning agents may write twice as much as acting ones."""
    return ACTING_MAX_OUTPUT_TOKENS if role in ACTING_ROLES else LEARNING_MAX_OUTPUT_TOKENS


ACTION_REFERENCE_TABLE = f"""{ACTION_TABLE_MARKER}
Monitor            passive observation, no target, no operational cost
Analyse <host>     inspect one host; usually reveals its true compromise level
Remove <host>      kill suspicious processes; clears user-level access only, unreliable
Restore <host>     reimage a host; guaranteed cleanup, costs -1.0 per use
Decoy <host>       deploy a honeypot; absorbs the next attack aimed at that host"""

_DEFAULT_SYSTEM_PROMPTS: dict[Role, str] = {
    Role.PLANNER: (
        "You are the Planner for a network defense team. Each step you receive "
        "host indicator observations. You may consult your sub-agents with tool "
        "lines such as 'Tool: analyse host=3' or 'Tool: rank_actions host=3 "
        "severity=high situation=confirmed', and you must finish with a final "
        "line 'Answer: <action> [host]'."
    ),
    Role.ANALYST: (
        "You are the Analyst. Interpret per-host indicator flags and reply with "
        "three lines: 'Severity: <none|low|medium|high>', 'Summary: <text>', "
        "'Focus: <monitoring|investigation|containment>'."
    ),
    Role.ACTION_CHOOSER: (
        "You are the Action Chooser. Given a host, a severity and a situation, "
        "reply with a JSON list of candidate actions ordered by confidence, "
        'e.g. [{"action": "Monitor", "confidence": 0.95}].'
    ),
    Role.REFLECTOR: (
        "You are the Reflector. Study the failed trajectory and produce one or "
        "more conditional heuristics, each on its own line in the exact shape "
        "'When <condition>, then <action>'. Name concrete hosts where possible."
    ),
    Role.EXEMPLIFIER: (
        "You are the Exemplifier. Convert the failed trajectory into one "
        "demonstration of a better interaction, using the markers 'Thought:', "
        "'Tool:', 'Observation:' and a final 'Answer: <action> [host]' line."
    ),
}


def default_persistent() -> dict[Role, str]:
    return {
        Role.PLANNER: (
            "Defend the 13-host network. Investigate suspicious indicators and "
            "act through your sub-agents; prefer reversible steps when unsure."
        ),
        Role.ANALYST: (
            "Indicator guide: anomalous-process suggests code execution on the "
            "host; suspicious-connection suggests command traffic; new-file "
            "suggests persistence after privilege escalation. Individual flags "
            "carry noise, combinations are trustworthy."
        ),
        Role.ACTION_CHOOSER: ACTION_REFERENCE_TABLE,
    }


def default_memory(capacity: int = 20, persistent: dict[Role, str] | None = None) -> InstanceMemory:
    return InstanceMemory(persistent=persistent or default_persistent(), capacity=capacity)


PHASE_ADAPTATION = "adaptation"
PHASE_EVALUATION = "evaluation"


@dataclass(frozen=True)
class CallContext:
    """Accounting coordinates threaded through every backend call."""

    instance: int = 0
    phase: str = PHASE_ADAPTATION

    def meta(self, role: Role) -> RequestMeta:
        return _request_meta(self.instance, self.phase, role)


# RequestMeta is frozen, so every call for one (instance, phase, role) shares
# one value. The cache is thread-safe, and its keys are bounded by a run's
# instances times two phases times five roles.
@functools.lru_cache(maxsize=1024)
def _request_meta(instance: int, phase: str, role: Role) -> RequestMeta:
    return RequestMeta(instance=instance, role=role.value, phase=phase)


def clause_matches(clause: Clause, observation: Observation, confirmed_host: int | None) -> bool:
    """Whether ``clause``'s host shows a flag or is ``observation.confirmed_host()``."""
    return True in observation.flags(clause.host) or confirmed_host == clause.host


def clause_action(clause: Clause) -> BlueAction:
    return lookup_action(clause.response, None if clause.response == "Monitor" else clause.host)


def make_artifact_id(kind: ArtifactKind, origin: Origin, seq: int) -> str:
    return f"{kind.value}-i{origin.instance:02d}-s{origin.stage:02d}-a{origin.attempt:02d}-{seq}"


# Every host's prompt line, indexed ``[host][anomalous][suspicious][new_file]``
# by its flags: 13 x 8 strings, built once.
_HOST_LINES: tuple[tuple[tuple[tuple[str, str], ...], ...], ...] = tuple(
    tuple(
        tuple(
            tuple(
                f"host={host} subnet={subnet_of(host).value} anomalous_process={anomalous}"
                f" suspicious_connection={suspicious} new_file={new_file}"
                for new_file in (0, 1)
            )
            for suspicious in (0, 1)
        )
        for anomalous in (0, 1)
    )
    for host in range(HOST_COUNT)
)


def _host_line(observation: Observation, host: int) -> str:
    if not 0 <= host < HOST_COUNT:
        raise InvalidActionError(f"host index out of range: {host}")
    anomalous, suspicious, new_file = observation.flags(host)
    return _HOST_LINES[host][anomalous][suspicious][new_file]


def serialize_observation(observation: Observation) -> str:
    lines = [f"step={observation.step_index}"]
    flagged = [
        host_lines[anomalous][suspicious][new_file]
        for host_lines, anomalous, suspicious, new_file in zip(
            _HOST_LINES,
            observation.anomalous_process,
            observation.suspicious_connection,
            observation.new_file,
        )
        if anomalous or suspicious or new_file
    ]
    lines.extend(flagged or ("no hosts flagged",))
    if observation.analysed_host is not None:
        level = "inconclusive" if observation.analysed_level is None else observation.analysed_level.name.lower()
        lines.append(f"analysed host={observation.analysed_host} level={level}")
    return "\n".join(lines)


def serialize_snapshot(snapshot: "FailureSnapshot") -> str:
    """Flatten a failure snapshot into the text given to learning agents."""
    origin = snapshot.origin
    failing_host = snapshot.failing_host
    lines = [
        f"instance={origin.instance} stage={origin.stage} attempt={origin.attempt}",
        f"aborted at step={snapshot.failing_step} reward={snapshot.failing_reward:.1f}",
        f"failing_host={-1 if failing_host is None else failing_host}",
        "trajectory:",
    ]
    lines.extend(format_step_record(r) for r in snapshot.trajectory)
    lines.append("memory at failure:")
    lines.append(snapshot.memory_at_failure.render())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------------


class ScriptedBackend:
    """Deterministic clause-interpreting policy; no tokens, no I/O.

    The first learned clause that fires decides the step. Without one the
    backend falls back to ``heuristic_policy``: flagged hosts are analysed
    in index order and a Restore is only issued once an inspection confirms
    compromise. Learned clauses bypass that triage entirely, which is
    exactly the edge learning is supposed to buy.
    """

    def __init__(self, representation: Representation = Representation.MIXED):
        self.representation = representation  # read only by ``reflexion.synthesize``
        # Scripted decisions make no completions; this stays empty.
        self.ledger = TokenLedger()

    # -- acting ------------------------------------------------------------

    def decide(
        self,
        observation: Observation,
        memory: InstanceMemory,
        ctx: CallContext | None = None,
    ) -> BlueAction:
        confirmed = observation.confirmed_host()
        for artifact in memory.dynamic:
            clause = artifact.clause
            if clause is not None and clause_matches(clause, observation, confirmed):
                return clause_action(clause)
        return heuristic_policy(observation, None)

    # -- learning ----------------------------------------------------------

    def reflect(
        self, snapshot: "FailureSnapshot", ctx: CallContext | None = None
    ) -> list[MemoryArtifact]:
        origin = snapshot.origin
        host, response = self._remediation(snapshot)
        if host is None:
            text = "When no host shows indicators, then continue monitoring the network."
            clause = None
        else:
            verb = "restore" if response == "Restore" else "remove the processes on"
            text = f"When host {host} is compromised, then {verb} host {host} immediately."
            clause = Clause(host=host, response=response)
        artifact = MemoryArtifact(
            kind=ArtifactKind.RULE,
            text=text,
            clause=clause,
            origin=origin,
            artifact_id=make_artifact_id(ArtifactKind.RULE, origin, 0),
        )
        return [artifact]

    def exemplify(
        self, snapshot: "FailureSnapshot", ctx: CallContext | None = None
    ) -> list[MemoryArtifact]:
        origin = snapshot.origin
        host, response = self._remediation(snapshot)
        if host is None:
            # Like the host-less rule: keep monitoring, which is no clause.
            text = (
                "<example description='MonitorWithoutCulprit'>\n"
                "Thought: No chain host is compromised, so there is nothing to contain.\n"
                "Tool: rank_actions host=0 severity=none situation=unconfirmed\n"
                "PAUSE\n"
                'Observation: [{"action": "Monitor", "confidence": 0.95}]\n'
                "Thought: Keep monitoring the network until a host shows indicators.\n"
                "Answer: Monitor\n"
                "</example>"
            )
            clause = None
        else:
            text = (
                f"<example description='{response}CompromisedHost{host}'>\n"
                f"Thought: Host {host} shows compromise indicators and the step penalty is escalating.\n"
                f"Tool: rank_actions host={host} severity=high situation=confirmed\n"
                "PAUSE\n"
                f'Observation: [{{"action": "{response} {host}", "confidence": 0.95}}, '
                f'{{"action": "Monitor", "confidence": 0.2}}]\n'
                "Thought: Immediate containment stops the damage before it spreads.\n"
                f"Answer: {response} {host}\n"
                "</example>"
            )
            clause = Clause(host=host, response=response)
        artifact = MemoryArtifact(
            kind=ArtifactKind.EXAMPLE,
            text=text,
            clause=clause,
            origin=origin,
            artifact_id=make_artifact_id(ArtifactKind.EXAMPLE, origin, 1),
        )
        return [artifact]

    def _remediation(self, snapshot: "FailureSnapshot") -> tuple[int | None, str]:
        """Pick the failing host and a remediation from the failure evidence.

        The culprit is the deepest compromised chain host. The remediation is
        read off the indicators at the failing step: a new-file flag means
        persistence, so the host must be reimaged (Restore); without it the
        reflection settles for killing the process (Remove), which cannot
        clear root access. A Remove clause learned from thin evidence is a
        counterproductive artifact that only selection can weed out.
        """
        host = snapshot.failing_host
        if host is None:
            return None, "Restore"
        new_file = snapshot.trajectory[-1].observation.flags(host)[2]
        return host, ("Restore" if new_file else "Remove")


# ---------------------------------------------------------------------------
# LLM backend
# ---------------------------------------------------------------------------

_ANSWER_RE = re.compile(
    r"Answer:\s*(Monitor|Analyse|Remove|Restore|Decoy)(?:[^\d\n]*?(-?\d+))?",
    re.IGNORECASE,
)
_TOOL_RE = re.compile(
    r"Tool:\s*(analyse|rank_actions)\s+host=(\d+)(?:\s+severity=(\w+))?(?:\s+situation=(\w+))?",
    re.IGNORECASE,
)
_SEVERITY_RE = re.compile(r"Severity:\s*(none|low|medium|high)", re.IGNORECASE)
_SUMMARY_RE = re.compile(r"Summary:\s*(.+)")
_FOCUS_RE = re.compile(r"Focus:\s*(\w+)")
_RULE_LINE_RE = re.compile(r"^\s*-?\s*(When\b.*\bthen\b.*)$", re.IGNORECASE)
_CLAUSE_HOST_RE = re.compile(r"host\s+(\d+)", re.IGNORECASE)
# The first action verb after "then": a verb in the condition is evidence, not the response.
_CLAUSE_VERB_RE = re.compile(r"(?is)\bthen\b.*?\b(restore|remove|decoy|analyse|monitor)\b")


def parse_action(text: str) -> BlueAction | None:
    """The valid action named by the first ``Answer:`` line, or None.

    Monitor ignores any number after it; any other kind needs a target in
    the network, so a negative one such as ``Restore -1`` is None.
    """
    match = _ANSWER_RE.search(text)
    if not match:
        return None
    kind = match.group(1).capitalize()
    target = match.group(2)
    if kind == "Monitor" or target is None:
        return VALID_ACTIONS.get((kind, None))
    return VALID_ACTIONS.get((kind, int(target)))


def parse_rule_clause(text: str) -> Clause | None:
    host_match = _CLAUSE_HOST_RE.search(text)
    verb_match = _CLAUSE_VERB_RE.search(text)
    if host_match is None or verb_match is None:
        return None
    return Clause(host=int(host_match.group(1)), response=verb_match.group(1).capitalize())


def parse_example_clause(text: str) -> Clause | None:
    """The clause of an example's ``Answer:`` line: None for Monitor or no valid answer."""
    action = parse_action(text)
    if action is None or action.kind is ActionKind.MONITOR:
        return None
    return Clause(host=action.target, response=action.kind.value)


class LLMBackend:
    """Planner/Analyst/ActionChooser hierarchy driven by chat completions."""

    def __init__(
        self,
        connector,
        representation: Representation = Representation.MIXED,
        model: str = "mock-chat",
    ):
        self.connector = connector
        self.representation = representation  # read only by ``reflexion.synthesize``
        self.model = model
        # Usage of every completion made through this backend.
        self.ledger = TokenLedger()

    # -- plumbing ----------------------------------------------------------

    def _system_prompt(self, role: Role, memory: InstanceMemory | None = None) -> str:
        """The Planner sees ``memory``'s learned artifacts; a sub-agent only its persistent text."""
        base = _DEFAULT_SYSTEM_PROMPTS[role]
        if role is Role.PLANNER:
            return base + "\n\n" + memory.render()
        if role in ACTING_ROLES:
            return base + "\n\n" + memory.persistent[role]
        # Learning agents get the action reference table on top of their prompt.
        return base + "\n\n" + ACTION_REFERENCE_TABLE

    def _complete(
        self, role: Role, messages: list[ChatMessage], ctx: CallContext
    ) -> ChatResponse:
        # Every role samples at temperature 0, within its role's output cap.
        request = ChatRequest(
            model=self.model,
            messages=tuple(messages),
            temperature=0.0,
            max_output_tokens=output_token_cap(role),
        )
        meta = ctx.meta(role)
        response = self.connector.complete(request, meta=meta)
        self.ledger.record(meta, response.usage)
        return response

    # -- acting ------------------------------------------------------------

    def decide(
        self,
        observation: Observation,
        memory: InstanceMemory,
        ctx: CallContext | None = None,
    ) -> BlueAction:
        ctx = ctx or CallContext()
        messages = [
            ChatMessage("system", self._system_prompt(Role.PLANNER, memory)),
            ChatMessage("user", "Observation:\n" + serialize_observation(observation)),
        ]
        tool_calls = 0
        reprompts = 0
        while True:
            text = self._complete(Role.PLANNER, messages, ctx).content
            tool = _TOOL_RE.search(text)
            if tool and tool_calls < SUBAGENT_CALL_BUDGET:
                tool_calls += 1
                result = self._run_tool(tool, observation, memory, ctx)
                messages.append(ChatMessage("assistant", text))
                messages.append(ChatMessage("user", f"Observation: {result}"))
                continue
            action = parse_action(text)
            if action is not None:
                return action
            if reprompts < PARSE_REPROMPTS:
                reprompts += 1
                messages.append(ChatMessage("assistant", text))
                messages.append(
                    ChatMessage(
                        "user",
                        "Reply with one final line exactly of the form "
                        "'Answer: <Monitor|Analyse|Remove|Restore|Decoy> [host]'.",
                    )
                )
                continue
            logger.warning(
                "planner output unparseable after %d reprompts; falling back to Monitor",
                PARSE_REPROMPTS,
            )
            return lookup_action("Monitor")

    def _run_tool(
        self, tool: re.Match, observation: Observation, memory: InstanceMemory, ctx: CallContext
    ) -> str:
        """Run the sub-agent named by a planner tool line; return its response text.

        A host outside the network gets an error reply, without a completion.
        """
        name = tool.group(1).lower()
        host = int(tool.group(2))
        if not 0 <= host < HOST_COUNT:
            return f"Error: host must be in 0..{HOST_COUNT - 1}, got {host}"
        if name == "analyse":
            return self.analyse(host, observation, memory, ctx)
        context = {
            "host": host,
            "severity": (tool.group(3) or "medium").lower(),
            "situation": (tool.group(4) or "unconfirmed").lower(),
        }
        return self.rank_actions(context, memory, ctx)

    def analyse(
        self,
        host: int,
        observation: Observation,
        memory: InstanceMemory,
        ctx: CallContext | None = None,
    ) -> str:
        """The Analyst's reply as three lines: ``Severity:``, ``Summary:`` and ``Focus:``."""
        ctx = ctx or CallContext()
        messages = [
            ChatMessage("system", self._system_prompt(Role.ANALYST, memory)),
            ChatMessage("user", _host_line(observation, host)),
        ]
        text = self._complete(Role.ANALYST, messages, ctx).content
        severity_match = _SEVERITY_RE.search(text)
        if severity_match is None:
            logger.warning("analyst output unparseable; defaulting to severity none")
            return "Severity: none\nSummary: analysis unavailable\nFocus: monitoring"
        summary_match = _SUMMARY_RE.search(text)
        focus_match = _FOCUS_RE.search(text)
        return (
            f"Severity: {severity_match.group(1).lower()}\n"
            f"Summary: {summary_match.group(1).strip() if summary_match else ''}\n"
            f"Focus: {focus_match.group(1).lower() if focus_match else 'monitoring'}"
        )

    def rank_actions(
        self, context: dict, memory: InstanceMemory, ctx: CallContext | None = None
    ) -> str:
        """The Action Chooser's valid candidates as JSON, most confident first.

        A reply with none is read as Monitor at confidence 1.0.
        """
        ctx = ctx or CallContext()
        messages = [
            ChatMessage("system", self._system_prompt(Role.ACTION_CHOOSER, memory)),
            ChatMessage("user", json.dumps(context, sort_keys=True)),
        ]
        text = self._complete(Role.ACTION_CHOOSER, messages, ctx).content
        ranking: list[dict] = []
        try:
            for item in json.loads(text):
                action = parse_action("Answer: " + str(item.get("action", "")))
                if action is not None:
                    confidence = float(item.get("confidence", 0.0))
                    ranking.append({"action": str(action), "confidence": confidence})
        except (ValueError, TypeError, AttributeError):
            ranking = []
        if not ranking:
            logger.warning("action chooser output unparseable; defaulting to Monitor")
            ranking = [{"action": "Monitor", "confidence": 1.0}]
        ranking.sort(key=lambda r: -r["confidence"])
        return json.dumps(ranking)

    # -- learning ----------------------------------------------------------

    def reflect(
        self, snapshot: "FailureSnapshot", ctx: CallContext | None = None
    ) -> list[MemoryArtifact]:
        origin = snapshot.origin
        ctx = ctx or CallContext(instance=origin.instance)
        messages = [
            ChatMessage("system", self._system_prompt(Role.REFLECTOR)),
            ChatMessage("user", snapshot.text),
        ]
        for round_ in range(PARSE_REPROMPTS + 1):
            text = self._complete(Role.REFLECTOR, messages, ctx).content
            artifacts = self._parse_rules(text, origin)
            if artifacts:
                return artifacts
            messages.append(ChatMessage("assistant", text))
            messages.append(
                ChatMessage(
                    "user",
                    "Each heuristic must be one line shaped exactly as "
                    "'When <condition>, then <action>'. Try again.",
                )
            )
        logger.warning("reflector produced no valid rules; applying empty delta")
        return []

    def exemplify(
        self, snapshot: "FailureSnapshot", ctx: CallContext | None = None
    ) -> list[MemoryArtifact]:
        origin = snapshot.origin
        ctx = ctx or CallContext(instance=origin.instance)
        messages = [
            ChatMessage("system", self._system_prompt(Role.EXEMPLIFIER)),
            ChatMessage("user", snapshot.text),
        ]
        for round_ in range(PARSE_REPROMPTS + 1):
            text = self._complete(Role.EXEMPLIFIER, messages, ctx).content
            try:
                artifact = MemoryArtifact(
                    kind=ArtifactKind.EXAMPLE,
                    text=text.strip(),
                    clause=parse_example_clause(text),
                    origin=origin,
                    artifact_id=make_artifact_id(ArtifactKind.EXAMPLE, origin, 1),
                )
                return [artifact]
            except ArtifactValidationError:
                messages.append(ChatMessage("assistant", text))
                messages.append(
                    ChatMessage(
                        "user",
                        "The demonstration must contain the markers 'Thought:', "
                        "'Tool:', 'Observation:' and 'Answer:'. Try again.",
                    )
                )
        logger.warning("exemplifier produced no valid example; applying empty delta")
        return []

    def _parse_rules(self, text: str, origin: Origin) -> list[MemoryArtifact]:
        artifacts = []
        for line in text.splitlines():
            match = _RULE_LINE_RE.match(line)
            if not match:
                continue
            rule_text = match.group(1).strip()
            try:
                artifacts.append(
                    MemoryArtifact(
                        kind=ArtifactKind.RULE,
                        text=rule_text,
                        clause=parse_rule_clause(rule_text),
                        origin=origin,
                        artifact_id=make_artifact_id(ArtifactKind.RULE, origin, len(artifacts)),
                    )
                )
            except ArtifactValidationError:
                continue
        return artifacts


# ---------------------------------------------------------------------------
# Deterministic mock responder used with MockConnector
# ---------------------------------------------------------------------------

_FAILING_HOST_RE = re.compile(r"failing_host=(-?\d+)")


def mock_responder(request: ChatRequest) -> str:
    """Minimal deterministic stand-in for a chat model.

    Recognizes the role from the system prompt and emits the smallest valid
    response for it, so full protocol runs exercise every parsing and
    accounting path without a provider.
    """
    system = request.messages[0].content if request.messages else ""
    user = request.messages[-1].content if request.messages else ""
    if "You are the Planner" in system:
        return "Thought: nothing actionable stands out.\nAnswer: Monitor"
    if "You are the Analyst" in system:
        return "Severity: medium\nSummary: indicators under review\nFocus: investigation"
    if "You are the Action Chooser" in system:
        return '[{"action": "Monitor", "confidence": 0.9}]'
    if "You are the Reflector" in system:
        host_match = _FAILING_HOST_RE.search(user)
        host = int(host_match.group(1)) if host_match else -1
        if host < 0:
            return "When the penalty spikes without a clear culprit, then restore the most exposed server."
        return f"When host {host} is compromised, then restore host {host} immediately."
    if "You are the Exemplifier" in system:
        host_match = _FAILING_HOST_RE.search(user)
        host = max(0, int(host_match.group(1))) if host_match else 0
        return (
            f"<example description='RestoreCompromisedHost{host}'>\n"
            f"Thought: Host {host} is compromised per the trajectory.\n"
            f"Tool: rank_actions host={host} severity=high situation=confirmed\n"
            "PAUSE\n"
            f'Observation: [{{"action": "Restore {host}", "confidence": 0.95}}]\n'
            "Thought: Restoring the host removes the foothold.\n"
            f"Answer: Restore {host}\n"
            "</example>"
        )
    return "Answer: Monitor"
