from __future__ import annotations

from dataclasses import dataclass

import pytest

from forge.agents import ActionDecision, default_memory
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


@dataclass
class FakeState:
    step: int


class ScriptedRewardEpisode:
    """Episode of :class:`ScriptedRewardEnv`, stepped in place."""

    def __init__(self, rewards: list[float]):
        self.rewards = rewards
        self.step_index = 0

    @property
    def done(self) -> bool:
        return self.step_index >= len(self.rewards)

    def step(self, action: BlueAction):
        reward = self.rewards[self.step_index]
        self.step_index += 1
        return blank_observation(self.step_index), reward

    def state(self) -> FakeState:
        return FakeState(self.step_index)


class ScriptedRewardEnv:
    """Minimal episode driver emitting a fixed reward sequence."""

    def __init__(self, rewards: list[float]):
        self.rewards = list(rewards)

    def begin(self, seed: int):
        return ScriptedRewardEpisode(self.rewards), blank_observation(0)


class MonitorBackend:
    """Policy stub that always monitors."""

    def decide(self, observation, memory, ctx=None) -> ActionDecision:
        return ActionDecision(BlueAction(ActionKind.MONITOR), "stub")


@pytest.fixture
def memory():
    return default_memory()
