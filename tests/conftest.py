from __future__ import annotations

import itertools
import json
import re
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import strategies as st

from forge import protocol
from forge.agents import default_memory
from forge.cage_lite import ActionKind, BlueAction, Observation


def blank_observation(step_index: int = 0, **overrides) -> Observation:
    falses = tuple([False] * 13)
    fields = {
        "anomalous_process": falses,
        "suspicious_connection": falses,
        "new_file": falses,
        "step_index": step_index,
    }
    fields.update(overrides)
    return Observation(**fields)


def flags_for(hosts: list[int]) -> tuple[bool, ...]:
    return tuple(i in hosts for i in range(13))


# Any text an artifact admits (every character but the lone surrogates, which
# UTF-8 cannot encode); the line breaks YAML emitters treat specially (NEL,
# LS, PS) are drawn as often as the rest of the alphabet together.
ANY_TEXT = st.text(
    st.characters(exclude_categories=("Cs",)) | st.sampled_from("\x85\u2028\u2029")
)


LOG_LINE = re.compile(r"stage=(\d\d) attempt=(\d\d) (step=\d\d .*)")


def read_attempt_logs(run_dir: Path) -> tuple[dict[tuple[int, int, int], list[str]], list[dict]]:
    """Every attempt's trajectory lines, prefix removed, by ``(instance, stage,
    attempt)``, and every failure record, from a run directory's per-instance logs.

    Asserts that each instance's lines come in stage and attempt order, so no
    attempt's lines are split by another's.
    """
    trajectories: dict[tuple[int, int, int], list[str]] = {}
    failures: list[dict] = []
    for instance_dir in sorted((Path(run_dir) / "workspaces").glob("instance_*")):
        instance = int(instance_dir.name.removeprefix("instance_"))
        keys = []
        lines = (instance_dir / protocol.TRAJECTORIES).read_text(encoding="utf-8").splitlines()
        for line in lines:
            stage, attempt, step = LOG_LINE.fullmatch(line).groups()
            key = (instance, int(stage), int(attempt))
            keys.append(key)
            trajectories.setdefault(key, []).append(step)
        assert keys == sorted(keys), f"{instance_dir.name}: lines out of attempt order"
        text = (instance_dir / protocol.FAILURES).read_text(encoding="utf-8")
        failures.extend(json.loads(line) for line in text.splitlines())
    return trajectories, failures


def write_penalty_lines(entries, path) -> None:
    """Write penalty-log entries as documented ``reward=... restore=<0|1>`` lines."""
    lines = [f"reward={e.reward} restore={int(e.is_restore)}\n" for e in entries]
    path.write_text("".join(lines), encoding="utf-8")


class ScriptedRewardEpisode:
    """Episode of :class:`ScriptedRewardEnv`, stepped in place by its ``step``."""

    def __init__(self, rewards: list[float]):
        self.rewards = rewards
        self.step_index = 0

    @property
    def done(self) -> bool:
        return self.step_index >= len(self.rewards)

    def foothold(self) -> None:
        return None


class ScriptedRewardEnv:
    """Minimal episode driver emitting a fixed reward sequence."""

    def __init__(self, rewards: list[float]):
        self.rewards = list(rewards)

    def begin(self, seed: int):
        return ScriptedRewardEpisode(self.rewards), blank_observation(0)

    def step(self, episode: ScriptedRewardEpisode, action: BlueAction):
        reward = episode.rewards[episode.step_index]
        episode.step_index += 1
        return blank_observation(episode.step_index), reward


class MonitorBackend:
    """Policy stub that always monitors."""

    def decide(self, observation, memory, ctx=None) -> BlueAction:
        return BlueAction(ActionKind.MONITOR)


@pytest.fixture
def memory():
    return default_memory()


@dataclass(frozen=True)
class ProtocolCall:
    """One ``reflexion_loop`` or ``checkpoint`` call made by ``forge.protocol``.

    ``start`` and ``end`` are positions in one sequence shared by every call
    of a run, taken when the call began and when it returned.
    """

    kind: str  # "reflexion_loop" | "checkpoint"
    stage: int
    instance: int
    start: int
    end: int
    attempts: int = 0  # summaries a reflexion_loop yielded
    hash_before: str = ""  # memory hash when a checkpoint began
    hash_after: str = ""  # ... and when it returned


@pytest.fixture
def protocol_calls(monkeypatch) -> list[ProtocolCall]:
    """Every ``reflexion_loop`` and ``checkpoint`` call of the protocol runs in the test.

    Calls may come from worker threads, so the list and the sequence are
    shared under a lock. A checkpoint's stage is that of the last
    ``reflexion_loop`` of its instance, which ran just before it in the
    same job.
    """
    calls: list[ProtocolCall] = []
    lock = threading.Lock()
    sequence = itertools.count()
    stages: dict[int, int] = {}
    reflexion_loop = protocol.reflexion_loop
    checkpoint = protocol.checkpoint

    def tick() -> int:
        with lock:
            return next(sequence)

    def recording_loop(memory, **kwargs):
        # A generator, as the loop it wraps: it starts when the caller first
        # asks for a summary and ends when the caller has taken the last one.
        with lock:
            stages[kwargs["instance"]] = kwargs["stage"]
            start = next(sequence)
        attempts = 0
        for summary in reflexion_loop(memory, **kwargs):
            attempts += 1
            yield summary
        call = ProtocolCall(
            "reflexion_loop", kwargs["stage"], kwargs["instance"], start, tick(), attempts
        )
        with lock:
            calls.append(call)

    def recording_checkpoint(memory, seed, backend, ctx=None, **kwargs):
        hash_before = memory.content_hash()
        start = tick()
        score = checkpoint(memory, seed, backend, ctx=ctx, **kwargs)
        end = tick()
        with lock:
            stage = stages[ctx.instance]
            calls.append(
                ProtocolCall(
                    "checkpoint",
                    stage,
                    ctx.instance,
                    start,
                    end,
                    hash_before=hash_before,
                    hash_after=memory.content_hash(),
                )
            )
        return score

    monkeypatch.setattr(protocol, "reflexion_loop", recording_loop)
    monkeypatch.setattr(protocol, "checkpoint", recording_checkpoint)
    return calls
