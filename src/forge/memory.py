"""Per-instance prompt memory: artifacts, capacity, rendering, persistence.

Each agent instance owns one :class:`InstanceMemory` holding a persistent
(user-supplied, never mutated) text section and a dynamic artifact list per
acting role. Learned knowledge arrives as :class:`MemoryArtifact` values,
either conditional Rules or demonstration Examples, optionally carrying a
machine-readable clause that scripted policies can execute directly.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import yaml


class Role(Enum):
    PLANNER = "planner"
    ANALYST = "analyst"
    ACTION_CHOOSER = "action_chooser"
    REFLECTOR = "reflector"
    EXEMPLIFIER = "exemplifier"


ACTING_ROLES: tuple[Role, ...] = (Role.PLANNER, Role.ANALYST, Role.ACTION_CHOOSER)
LEARNING_ROLES: tuple[Role, ...] = (Role.REFLECTOR, Role.EXEMPLIFIER)


class ArtifactKind(Enum):
    RULE = "rule"
    EXAMPLE = "example"


class Representation(Enum):
    RULES = "rules"
    EXAMPLES = "examples"
    MIXED = "mixed"

    def admits(self, kind: ArtifactKind) -> bool:
        if self is Representation.MIXED:
            return True
        if self is Representation.RULES:
            return kind is ArtifactKind.RULE
        return kind is ArtifactKind.EXAMPLE


class ArtifactValidationError(ValueError):
    """An artifact violates its structural contract."""


class MemoryProtocolError(RuntimeError):
    """A memory operation broke a protocol precondition."""


class MemoryFormatError(ValueError):
    """Serialized memory could not be parsed."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# Marker carried by the action reference table; the planner's persistent
# section must never contain it, so that any strategic competence the
# planner shows is attributable to learned artifacts.
ACTION_TABLE_MARKER = "ACTION REFERENCE TABLE"

_RULE_SHAPE = re.compile(r"\bwhen\b.+?\bthen\b", re.IGNORECASE | re.DOTALL)
_EXAMPLE_MARKERS = ("Thought:", "Tool:", "Observation:", "Answer:")

VALID_CLAUSE_RESPONSES = ("Monitor", "Analyse", "Remove", "Restore", "Decoy")


@dataclass(frozen=True, slots=True)
class Origin:
    stage: int
    attempt: int
    instance: int


@dataclass(frozen=True, slots=True)
class Clause:
    """Machine-readable condition -> action pair for scripted policies.

    ``trigger`` names the evidence that arms the clause: ``compromised``
    (any indicator flag or a confirmed inspection), one specific flag name,
    or ``confirmed`` (inspection result only).
    """

    host: int
    trigger: str = "compromised"
    response: str = "Restore"
    target: int | None = None

    def action_target(self) -> int | None:
        if self.response == "Monitor":
            return None
        return self.host if self.target is None else self.target

    def to_dict(self) -> dict:
        return {
            "host": self.host,
            "trigger": self.trigger,
            "response": self.response,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Clause":
        return cls(
            host=int(data["host"]),
            trigger=str(data.get("trigger", "compromised")),
            response=str(data.get("response", "Restore")),
            target=None if data.get("target") is None else int(data["target"]),
        )


@dataclass(frozen=True, slots=True)
class MemoryArtifact:
    kind: ArtifactKind
    role: Role
    text: str
    clause: Clause | None = None
    origin: Origin = Origin(0, 0, 0)
    artifact_id: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.role not in ACTING_ROLES:
            raise ArtifactValidationError(f"artifact role must be an acting role, got {self.role}")
        if not self.text or not self.text.strip():
            raise ArtifactValidationError("artifact text must be non-empty")
        if self.kind is ArtifactKind.RULE and not _RULE_SHAPE.search(self.text):
            raise ArtifactValidationError("rule text must follow a 'When ..., then ...' shape")
        if self.kind is ArtifactKind.EXAMPLE:
            missing = [m for m in _EXAMPLE_MARKERS if m not in self.text]
            if missing:
                raise ArtifactValidationError(
                    f"example text missing interaction markers: {', '.join(missing)}"
                )
        if self.clause is not None and self.clause.response not in VALID_CLAUSE_RESPONSES:
            raise ArtifactValidationError(f"unknown clause response: {self.clause.response}")

    def to_dict(self) -> dict:
        return {
            "artifact_id": self.artifact_id,
            "kind": self.kind.value,
            "role": self.role.value,
            "text": self.text,
            "clause": None if self.clause is None else self.clause.to_dict(),
            "origin": {
                "stage": self.origin.stage,
                "attempt": self.origin.attempt,
                "instance": self.origin.instance,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryArtifact":
        origin = data.get("origin") or {}
        return cls(
            kind=ArtifactKind(data["kind"]),
            role=Role(data["role"]),
            text=data["text"],
            clause=None if data.get("clause") is None else Clause.from_dict(data["clause"]),
            origin=Origin(
                stage=int(origin.get("stage", 0)),
                attempt=int(origin.get("attempt", 0)),
                instance=int(origin.get("instance", 0)),
            ),
            artifact_id=str(data.get("artifact_id", "")),
        )


@dataclass(frozen=True, slots=True)
class MemoryDelta:
    additions: tuple[MemoryArtifact, ...]

    def __post_init__(self) -> None:
        origins = {a.origin for a in self.additions}
        if len(origins) > 1:
            raise ArtifactValidationError("all additions in a delta must share one origin")


DEFAULT_CAPACITY = 20


@dataclass
class InstanceMemory:
    """Persistent + dynamic memory for one agent instance.

    ``persistent`` maps each acting role to fixed instruction text and is
    never touched by learning operations. ``dynamic`` holds the learned
    artifacts, capped at ``capacity`` per role with FIFO eviction.
    """

    persistent: dict[Role, str]
    dynamic: dict[Role, list[MemoryArtifact]] = field(default_factory=dict)
    capacity: int = DEFAULT_CAPACITY

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise MemoryProtocolError("capacity must be at least 1")
        for role in ACTING_ROLES:
            self.persistent.setdefault(role, "")
            self.dynamic.setdefault(role, [])
        if ACTION_TABLE_MARKER in self.persistent[Role.PLANNER]:
            raise MemoryProtocolError("planner persistent memory must not contain the action table")

    def append(self, artifact: MemoryArtifact) -> None:
        artifact.validate()
        bucket = self.dynamic[artifact.role]
        bucket.append(artifact)
        while len(bucket) > self.capacity:
            bucket.pop(0)

    def artifacts(
        self, representation: Representation | None = None, role: Role | None = None
    ) -> list[MemoryArtifact]:
        roles = ACTING_ROLES if role is None else (role,)
        out = []
        for r in roles:
            for artifact in self.dynamic[r]:
                if representation is None or representation.admits(artifact.kind):
                    out.append(artifact)
        return out

    def render(self, role: Role, representation: Representation) -> str:
        rules = [
            a for a in self.dynamic[role]
            if a.kind is ArtifactKind.RULE and representation.admits(a.kind)
        ]
        examples = [
            a for a in self.dynamic[role]
            if a.kind is ArtifactKind.EXAMPLE and representation.admits(a.kind)
        ]
        rule_lines = "\n".join(f"- [{a.artifact_id}] {a.text}" for a in rules)
        example_blocks = "\n\n".join(a.text for a in examples)
        sections = [self.persistent[role].rstrip()]
        sections.append(f"<reflection_knowledge>\n{rule_lines}\n</reflection_knowledge>")
        sections.append(f"<TOOL_USE_EXAMPLES>\n{example_blocks}\n</TOOL_USE_EXAMPLES>")
        return "\n\n".join(s for s in sections if s is not None)

    def clone(self) -> "InstanceMemory":
        return InstanceMemory(
            persistent=dict(self.persistent),
            dynamic={role: list(items) for role, items in self.dynamic.items()},
            capacity=self.capacity,
        )

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`to_dict`."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, ensure_ascii=False, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "persistent": {role.value: self.persistent[role] for role in ACTING_ROLES},
            "dynamic": {
                role.value: [a.to_dict() for a in self.dynamic[role]] for role in ACTING_ROLES
            },
        }


def append_artifact(memory: InstanceMemory, artifact: MemoryArtifact) -> InstanceMemory:
    memory.append(artifact)
    return memory


def apply_delta(memory: InstanceMemory, delta: MemoryDelta) -> InstanceMemory:
    for artifact in delta.additions:
        memory.append(artifact)
    return memory


def render_injection(memory: InstanceMemory, role: Role, representation: Representation) -> str:
    return memory.render(role, representation)


def replace_dynamic(dst: InstanceMemory, src: InstanceMemory) -> InstanceMemory:
    """Destructively replace dst's learned artifacts with a copy of src's.

    Artifacts are frozen, so copying each role's list is enough to keep later
    appends and evictions on either side from reaching the other.
    """
    if dst.persistent != src.persistent:
        raise MemoryProtocolError("cannot broadcast between instances with different persistent memory")
    dst.dynamic = {role: list(items) for role, items in src.dynamic.items()}
    return dst


def save(memory: InstanceMemory) -> bytes:
    return yaml.safe_dump(memory.to_dict(), sort_keys=True, allow_unicode=True).encode("utf-8")


def load(data: bytes) -> InstanceMemory:
    try:
        raw = yaml.safe_load(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise MemoryFormatError("memory bytes are not valid UTF-8", exc.start) from exc
    except yaml.YAMLError as exc:
        offset = 0
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            offset = mark.index
        raise MemoryFormatError(f"memory text is not valid YAML: {exc}", offset) from exc
    if not isinstance(raw, dict):
        raise MemoryFormatError("memory document must be a mapping")
    try:
        persistent = {Role(k): str(v) for k, v in raw["persistent"].items()}
        dynamic = {
            Role(k): [MemoryArtifact.from_dict(a) for a in items]
            for k, items in raw["dynamic"].items()
        }
        capacity = int(raw["capacity"])
    except (KeyError, TypeError, ValueError, ArtifactValidationError) as exc:
        raise MemoryFormatError(f"memory document malformed: {exc}") from exc
    return InstanceMemory(persistent=persistent, dynamic=dynamic, capacity=capacity)


# On-disk layout mirrors the per-role knowledge files consumed as prompt
# sections: one file per (role, kind) under a memory directory.
_KIND_FILENAME = {
    ArtifactKind.RULE: "reflection_knowledge.yaml",
    ArtifactKind.EXAMPLE: "reflection_examples.yaml",
}


def save_workspace(memory: InstanceMemory, directory: str | Path) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for role in ACTING_ROLES:
        for kind, filename in _KIND_FILENAME.items():
            artifacts = [
                {"seq": i, **a.to_dict()}
                for i, a in enumerate(memory.dynamic[role])
                if a.kind is kind
            ]
            path = directory / f"{role.value}_{filename}"
            path.write_text(
                yaml.safe_dump(artifacts, sort_keys=True, allow_unicode=True), encoding="utf-8"
            )
            written.append(path)
    return written


def load_workspace(
    directory: str | Path, persistent: dict[Role, str], capacity: int = DEFAULT_CAPACITY
) -> InstanceMemory:
    directory = Path(directory)
    memory = InstanceMemory(persistent=dict(persistent), capacity=capacity)
    for role in ACTING_ROLES:
        artifacts: list[tuple[int, MemoryArtifact]] = []
        for kind, filename in _KIND_FILENAME.items():
            path = directory / f"{role.value}_{filename}"
            if not path.exists():
                continue
            raw = yaml.safe_load(path.read_text(encoding="utf-8")) or []
            for item in raw:
                # Files split artifacts by kind; the seq field restores the
                # interleaved insertion order of the role's bucket.
                artifacts.append((int(item.get("seq", 0)), MemoryArtifact.from_dict(item)))
        artifacts.sort(key=lambda pair: pair[0])
        memory.dynamic[role] = [a for _, a in artifacts]
    return memory
