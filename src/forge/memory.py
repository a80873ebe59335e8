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
from yaml import CSafeDumper


class Role(Enum):
    PLANNER = "planner"
    ANALYST = "analyst"
    ACTION_CHOOSER = "action_chooser"
    REFLECTOR = "reflector"
    EXEMPLIFIER = "exemplifier"


ACTING_ROLES: tuple[Role, ...] = (Role.PLANNER, Role.ANALYST, Role.ACTION_CHOOSER)


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
        # Snapshot files and the content hash are UTF-8; a lone surrogate
        # (e.g. from a "\ud800" escape in a JSON reply) cannot be written.
        try:
            self.text.encode("utf-8")
            self.artifact_id.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ArtifactValidationError(f"artifact text and id must be valid UTF-8: {exc}") from exc
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
    # (role, representation) -> (persistent text, artifacts, rendered text)
    # of the last render; not part of the memory's value.
    _rendered: dict[
        tuple[Role, Representation], tuple[str, tuple[MemoryArtifact, ...], str]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """The role's prompt section: persistent text, then admitted rules and examples.

        The text is kept until the role's persistent text or artifacts
        change. Comparing the artifact tuple is cheap because tuple equality
        short-circuits on identity, and it catches every way the list can
        change: ``append``, ``replace_dynamic`` or a direct edit.
        """
        persistent = self.persistent[role]
        artifacts = tuple(self.dynamic[role])
        cached = self._rendered.get((role, representation))
        if cached is not None and cached[0] == persistent and cached[1] == artifacts:
            return cached[2]
        rule_lines = "\n".join(
            f"- [{a.artifact_id}] {a.text}"
            for a in artifacts
            if a.kind is ArtifactKind.RULE and representation.admits(a.kind)
        )
        example_blocks = "\n\n".join(
            a.text
            for a in artifacts
            if a.kind is ArtifactKind.EXAMPLE and representation.admits(a.kind)
        )
        text = "\n\n".join(
            (
                persistent.rstrip(),
                f"<reflection_knowledge>\n{rule_lines}\n</reflection_knowledge>",
                f"<TOOL_USE_EXAMPLES>\n{example_blocks}\n</TOOL_USE_EXAMPLES>",
            )
        )
        self._rendered[(role, representation)] = (persistent, artifacts, text)
        return text

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


def replace_dynamic(dst: InstanceMemory, src: InstanceMemory) -> InstanceMemory:
    """Destructively replace dst's learned artifacts with a copy of src's.

    Artifacts are frozen, so copying each role's list is enough to keep later
    appends and evictions on either side from reaching the other.
    """
    if dst.persistent != src.persistent:
        raise MemoryProtocolError("cannot broadcast between instances with different persistent memory")
    dst.dynamic = {role: list(items) for role, items in src.dynamic.items()}
    return dst


# On-disk layout mirrors the per-role knowledge files consumed as prompt
# sections: one file per (role, kind) under a memory directory.
_KIND_FILENAME = {
    ArtifactKind.RULE: "reflection_knowledge.yaml",
    ArtifactKind.EXAMPLE: "reflection_examples.yaml",
}


def dump_yaml(data) -> str:
    """YAML text of ``data`` with sorted keys and unescaped unicode, emitted by libyaml.

    libyaml's emitter is several times faster than PyYAML's pure-Python one,
    and unlike it writes texts holding the line breaks U+0085, U+2028 or
    U+2029 so that they read back unchanged.
    """
    return yaml.dump(data, Dumper=CSafeDumper, sort_keys=True, allow_unicode=True)


def workspace_texts(memory: InstanceMemory) -> dict[str, str]:
    """File name -> YAML text of each (role, kind) snapshot file of ``memory``."""
    texts = {}
    for role in ACTING_ROLES:
        for kind, filename in _KIND_FILENAME.items():
            artifacts = [
                {"seq": i, **a.to_dict()}
                for i, a in enumerate(memory.dynamic[role])
                if a.kind is kind
            ]
            texts[f"{role.value}_{filename}"] = dump_yaml(artifacts)
    return texts


def save_workspace(memory: InstanceMemory, directory: str | Path) -> list[Path]:
    """Write the snapshot files of ``memory`` into ``directory``.

    Each file is created anew, never written through: an existing file at
    the path may be a hard link that another snapshot shares.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in workspace_texts(memory).items():
        path = directory / name
        path.unlink(missing_ok=True)
        path.write_text(text, encoding="utf-8")
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
