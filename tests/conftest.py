from __future__ import annotations

from dataclasses import dataclass

import pytest

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
