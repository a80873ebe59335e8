from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import pytest

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


def write_penalty_lines(entries, path) -> None:
    """Write penalty-log entries as documented ``reward=... restore=<0|1>`` lines."""
    lines = [f"reward={e.reward} restore={int(e.is_restore)}\n" for e in entries]
    path.write_text("".join(lines), encoding="utf-8")


@dataclass
class FakeState:
    step: int


class ScriptedRewardEpisode:
    """Episode of :class:`ScriptedRewardEnv`, stepped in place by its ``step``."""

    def __init__(self, rewards: list[float]):
        self.rewards = rewards
        self.step_index = 0

    @property
    def done(self) -> bool:
        return self.step_index >= len(self.rewards)

    def state(self) -> FakeState:
        return FakeState(self.step_index)


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
    attempts: int = 0  # summaries a reflexion_loop returned
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
        with lock:
            stages[kwargs["instance"]] = kwargs["stage"]
            start = next(sequence)
        summaries = reflexion_loop(memory, **kwargs)
        call = ProtocolCall(
            "reflexion_loop", kwargs["stage"], kwargs["instance"], start, tick(), len(summaries)
        )
        with lock:
            calls.append(call)
        return summaries

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
