"""Per-instance prompt memory: artifacts, capacity, rendering, persistence.

Each agent instance owns one :class:`InstanceMemory` holding a persistent
(user-supplied, never mutated) text section per acting role and one list of
learned artifacts. Learned knowledge arrives as :class:`MemoryArtifact`
values, either conditional Rules or demonstration Examples, optionally
carrying a machine-readable clause that scripted policies can execute
directly. Only the Planner's prompt shows the learned list; the Analyst and
Action Chooser see their persistent text alone.
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

from .cage_lite import ActionKind
from .calibration import HOST_COUNT


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

VALID_CLAUSE_RESPONSES = tuple(kind.value for kind in ActionKind)
_CLAUSE_KEYS = frozenset({"host", "response"})
_ORIGIN_KEYS = frozenset({"stage", "attempt", "instance"})
_ARTIFACT_KEYS = frozenset({"artifact_id", "kind", "text", "clause", "origin"})


def _exact_keys(data, expected: frozenset, what: str) -> dict:
    """``data`` if it is a mapping with exactly the keys ``expected``, else an error naming them."""
    keys = set(data) if isinstance(data, dict) else set()
    if keys != expected:
        raise ArtifactValidationError(
            f"{what} keys must be {', '.join(sorted(expected))}: missing {sorted(expected - keys)},"
            f" unknown {sorted(keys - expected, key=str)}"
        )
    return data


@dataclass(frozen=True, slots=True)
class Origin:
    stage: int
    attempt: int
    instance: int


@dataclass(frozen=True, slots=True)
class Clause:
    """Scripted policies play ``response`` on ``host`` once it is flagged or confirmed."""

    host: int
    response: str

    def validate(self) -> None:
        if self.response not in VALID_CLAUSE_RESPONSES:
            raise ArtifactValidationError(f"unknown clause response: {self.response}")
        # A host index outside the simulator's range would read another
        # host's flags (a negative index) or none at all.
        if not 0 <= self.host < HOST_COUNT:
            raise ArtifactValidationError(
                f"clause host must be in 0..{HOST_COUNT - 1}, got {self.host}"
            )

    def to_dict(self) -> dict:
        return {"host": self.host, "response": self.response}

    @classmethod
    def from_dict(cls, data: dict) -> "Clause":
        _exact_keys(data, _CLAUSE_KEYS, "clause")
        return cls(host=int(data["host"]), response=str(data["response"]))


@dataclass(frozen=True, slots=True)
class MemoryArtifact:
    kind: ArtifactKind
    text: str
    clause: Clause | None = None
    origin: Origin = Origin(0, 0, 0)
    artifact_id: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
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
        if self.clause is not None:
            self.clause.validate()

    def to_dict(self) -> dict:
        o = self.origin
        return {
            "artifact_id": self.artifact_id,
            "kind": self.kind.value,
            "text": self.text,
            "clause": None if self.clause is None else self.clause.to_dict(),
            "origin": {"stage": o.stage, "attempt": o.attempt, "instance": o.instance},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MemoryArtifact":
        _exact_keys(data, _ARTIFACT_KEYS, "artifact")
        origin = _exact_keys(data["origin"], _ORIGIN_KEYS, "origin")
        return cls(
            kind=ArtifactKind(data["kind"]),
            text=data["text"],
            clause=None if data["clause"] is None else Clause.from_dict(data["clause"]),
            origin=Origin(**{key: int(value) for key, value in origin.items()}),
            artifact_id=str(data["artifact_id"]),
        )


DEFAULT_CAPACITY = 20


@dataclass
class InstanceMemory:
    """Persistent + dynamic memory for one agent instance.

    ``persistent`` maps each acting role to fixed instruction text and is
    never touched by learning operations; a role left out gets empty text.
    ``dynamic`` is the one list of learned artifacts, capped at
    ``capacity`` with FIFO eviction.
    """

    persistent: dict[Role, str]
    dynamic: list[MemoryArtifact] = field(default_factory=list)
    capacity: int = DEFAULT_CAPACITY
    # Not part of the memory's value: (persistent text, artifacts, rendered
    # text) of the last render, and (value key, digest) of the last hash.
    _rendered: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _hashed: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise MemoryProtocolError("capacity must be at least 1")
        self.persistent = {**dict.fromkeys(ACTING_ROLES, ""), **self.persistent}
        if ACTION_TABLE_MARKER in self.persistent[Role.PLANNER]:
            raise MemoryProtocolError("planner persistent memory must not contain the action table")

    def append(self, artifact: MemoryArtifact) -> None:
        # A MemoryArtifact is frozen and validated when built. The oldest
        # artifacts beyond capacity are evicted.
        self.dynamic.append(artifact)
        del self.dynamic[: -self.capacity]

    def render(self) -> str:
        """The Planner's prompt section: persistent text, then every rule, then every example.

        The text is kept until the Planner's persistent text or the
        artifacts change. Comparing the artifact tuple is cheap because
        tuple equality short-circuits on identity, and it catches every way
        the list can change: ``append``, ``replace_dynamic`` or a direct edit.
        """
        persistent = self.persistent[Role.PLANNER]
        artifacts = tuple(self.dynamic)
        cached = self._rendered
        if cached is not None and cached[0] == persistent and cached[1] == artifacts:
            return cached[2]
        rule_lines = "\n".join(
            f"- [{a.artifact_id}] {a.text}" for a in artifacts if a.kind is ArtifactKind.RULE
        )
        example_blocks = "\n\n".join(a.text for a in artifacts if a.kind is ArtifactKind.EXAMPLE)
        text = "\n\n".join(
            (
                persistent.rstrip(),
                f"<reflection_knowledge>\n{rule_lines}\n</reflection_knowledge>",
                f"<TOOL_USE_EXAMPLES>\n{example_blocks}\n</TOOL_USE_EXAMPLES>",
            )
        )
        self._rendered = (persistent, artifacts, text)
        return text

    def clone(self) -> "InstanceMemory":
        return InstanceMemory(self.persistent, list(self.dynamic), self.capacity)

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`to_dict`.

        The digest is kept with its value key, everything ``to_dict`` reads
        (capacity, persistent texts, artifact tuple), and reused while the
        key is equal; like :meth:`render`'s cache this catches ``append``,
        ``replace_dynamic``, a direct edit and a new capacity.
        """
        key = (self.capacity, tuple(self.persistent.items()), tuple(self.dynamic))
        cached = self._hashed
        if cached is not None and cached[0] == key:
            return cached[1]
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, ensure_ascii=False, separators=(",", ":")
        )
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        self._hashed = (key, digest)
        return digest

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "persistent": {role.value: text for role, text in self.persistent.items()},
            "dynamic": [a.to_dict() for a in self.dynamic],
        }


def replace_dynamic(dst: InstanceMemory, src: InstanceMemory) -> InstanceMemory:
    """Destructively replace dst's learned artifacts with a copy of src's.

    Artifacts are frozen, so copying the list is enough to keep later
    appends and evictions on either side from reaching the other. ``dst``
    also takes src's last content hash, which ``content_hash`` reuses only
    if dst's value key equals the one it was taken for.
    """
    if dst.persistent != src.persistent:
        raise MemoryProtocolError("cannot broadcast between instances with different persistent memory")
    dst.dynamic = list(src.dynamic)
    dst._hashed = src._hashed
    return dst


SNAPSHOT_FILE = "artifacts.yaml"


def dump_yaml(data) -> str:
    """YAML text of ``data`` with sorted keys and unescaped unicode, emitted by libyaml.

    libyaml's emitter is several times faster than PyYAML's pure-Python one,
    and unlike it writes texts holding the line breaks U+0085, U+2028 or
    U+2029 so that they read back unchanged.
    """
    return yaml.dump(data, Dumper=CSafeDumper, sort_keys=True, allow_unicode=True)


def save_workspace(memory: InstanceMemory, directory: str | Path) -> list[Path]:
    """Write ``memory``'s snapshot into ``directory`` and return the path written.

    The snapshot is the ``dynamic`` part of :meth:`InstanceMemory.to_dict`:
    the list of learned artifacts, in memory order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / SNAPSHOT_FILE
    path.write_text(dump_yaml(memory.to_dict()["dynamic"]), encoding="utf-8")
    return [path]


def load_workspace(
    directory: str | Path, persistent: dict[Role, str], capacity: int = DEFAULT_CAPACITY
) -> InstanceMemory:
    """The memory that :func:`save_workspace` wrote into ``directory``.

    The snapshot holds only the artifacts, so given the memory's persistent
    text and capacity the result has its content hash. A top level that is
    not a list of mappings is a ``ValueError`` naming the file.
    """
    path = Path(directory) / SNAPSHOT_FILE
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    if not isinstance(raw, list) or not all(isinstance(item, dict) for item in raw):
        raise ValueError(f"{path}: expected a list of artifact mappings")
    return InstanceMemory(persistent, [MemoryArtifact.from_dict(item) for item in raw], capacity)
