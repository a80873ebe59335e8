"""Failure-triggered inner learning loop.

An attempt runs an episode step by step and aborts the moment one per-step
reward falls strictly below the failure trigger. The aborted attempt's
snapshot (trajectory, memory, failing host) feeds a learning agent that
synthesizes memory artifacts; they are appended to memory and the episode
restarts from step 0, up to a fixed number of attempts per stage.

Completed attempts never touch memory; a Restore's own -1.0 cost sits above
the default trigger of -1.1, so routine remediation does not fire it.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from . import cage_lite
from .agents import PHASE_ADAPTATION, CallContext, serialize_snapshot
from .cage_lite import StepRecord, episode_return
from .llm_connector import ConnectorError
from .memory import InstanceMemory, MemoryArtifact, Origin, Representation
from .seeding import derive_seed

logger = logging.getLogger(__name__)


class AttemptError(RuntimeError):
    """The policy backend failed hard during an attempt."""


class AttemptStatus(Enum):
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class FailureSnapshot:
    """An aborted attempt: its trajectory up to the failing step, the memory
    it ran with and the failing host, the attacker's furthest compromised
    chain host when it stopped (None if it held none).

    The failing step and reward are read off the last trajectory record, so
    ``failing_step`` is the 1-based step its trajectory line shows.
    """

    trajectory: tuple[StepRecord, ...]
    memory_at_failure: InstanceMemory
    origin: Origin
    failing_host: int | None

    @property
    def failing_step(self) -> int:
        return self.trajectory[-1].observation.step_index

    @property
    def failing_reward(self) -> float:
        return self.trajectory[-1].reward

    @functools.cached_property
    def text(self) -> str:
        """The snapshot as the learning agents read it, built on first use."""
        return serialize_snapshot(self)


@dataclass(frozen=True)
class AttemptOutcome:
    episode_return: float
    trajectory: tuple[StepRecord, ...] = ()
    snapshot: FailureSnapshot | None = None

    @property
    def status(self) -> AttemptStatus:
        return AttemptStatus.COMPLETED if self.snapshot is None else AttemptStatus.ABORTED


@dataclass(frozen=True)
class AttemptSummary:
    attempt: int
    outcome: AttemptOutcome | None  # None when the attempt errored
    artifacts_added: int

    @property
    def status(self) -> str:
        """``"completed"``, ``"aborted"`` or ``"errored"``."""
        return "errored" if self.outcome is None else self.outcome.status.value


def run_attempt(
    memory: InstanceMemory,
    env_seed: int,
    tau: float | None,
    backend,
    ctx: CallContext | None = None,
    env=cage_lite,
    instance: int = 0,
    stage: int = 0,
    attempt: int = 0,
) -> AttemptOutcome:
    """Run one episode, aborting on the first reward strictly below ``tau``.

    ``tau=None`` runs the episode frozen (no trigger), which is how
    checkpoints and evaluations reuse this loop. ``env.begin(seed)`` returns
    an episode with ``done`` and ``foothold()`` plus the first observation;
    ``env.step(episode, action)`` steps it in place, and its foothold is read
    only for an aborted attempt's snapshot.
    """
    if tau is not None and tau >= 0:
        raise ValueError("failure trigger must be negative")
    ctx = ctx or CallContext(instance=instance)
    episode, observation = env.begin(env_seed)
    records: list[StepRecord] = []
    while not episode.done:
        try:
            action = backend.decide(observation, memory, ctx)
        except ConnectorError as exc:
            raise AttemptError(f"backend failed during attempt: {exc}") from exc
        observation, reward = env.step(episode, action)
        records.append(StepRecord(action, reward, observation))
        if tau is not None and reward < tau:
            trajectory = tuple(records)
            snapshot = FailureSnapshot(
                trajectory=trajectory,
                memory_at_failure=memory.clone(),
                origin=Origin(stage=stage, attempt=attempt, instance=instance),
                failing_host=episode.foothold(),
            )
            return AttemptOutcome(episode_return(records), trajectory, snapshot)
    return AttemptOutcome(episode_return(records), tuple(records))


def synthesize(
    snapshot: FailureSnapshot, backend, ctx: CallContext | None = None
) -> list[MemoryArtifact]:
    """Turn a failure snapshot into artifacts via Reflector and/or Exemplifier.

    This is the one place that reads ``backend.representation``: ``rules``
    runs the Reflector, ``examples`` the Exemplifier and ``mixed`` both. A
    memory therefore holds only the kinds its run's representation makes,
    and rendering and the scripted policy use every artifact it holds.
    """
    representation = backend.representation
    artifacts = []
    if representation in (Representation.RULES, Representation.MIXED):
        artifacts.extend(backend.reflect(snapshot, ctx=ctx))
    if representation in (Representation.EXAMPLES, Representation.MIXED):
        artifacts.extend(backend.exemplify(snapshot, ctx=ctx))
    return artifacts


def reflexion_loop(
    memory: InstanceMemory,
    *,
    instance: int,
    stage: int,
    attempts: int,
    tau: float,
    backend,
    base_seed: int,
    env=cage_lite,
) -> Iterator[AttemptSummary]:
    """Run exactly ``attempts`` attempts, learning from each aborted one.

    Yields one summary per attempt, after the attempt has learned. The loop
    keeps no attempt past its summary, so a caller that drops each summary
    holds at most one attempt's trajectory at a time.
    A completed attempt does not end the stage early; extra attempts are
    extra learning opportunities. Errored attempts are yielded without an
    outcome and without touching memory. A backend error while learning
    from an aborted attempt leaves memory untouched too: the attempt is
    yielded with its outcome and no artifacts.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    ctx = CallContext(instance=instance, phase=PHASE_ADAPTATION)
    for attempt in range(1, attempts + 1):
        env_seed = derive_seed(base_seed, stage, instance, attempt)
        try:
            outcome = run_attempt(
                memory,
                env_seed,
                tau,
                backend,
                ctx=ctx,
                env=env,
                instance=instance,
                stage=stage,
                attempt=attempt,
            )
        except AttemptError as exc:
            logger.warning(
                "instance %d stage %d attempt %d errored: %s", instance, stage, attempt, exc
            )
            yield AttemptSummary(attempt, None, 0)
            continue

        added = []
        if outcome.snapshot is not None:
            try:
                added = synthesize(outcome.snapshot, backend, ctx=ctx)
            except ConnectorError as exc:
                logger.warning(
                    "instance %d stage %d attempt %d learned nothing: %s",
                    instance,
                    stage,
                    attempt,
                    exc,
                )
            for artifact in added:
                memory.append(artifact)
        yield AttemptSummary(attempt, outcome, len(added))
        # Not held through the next attempt: the caller keeps what it needs.
        del outcome


def run_frozen_episode(
    memory: InstanceMemory,
    env_seed: int,
    backend,
    ctx: CallContext | None = None,
    env=cage_lite,
) -> float:
    """One full episode with learning disabled; returns the episode return."""
    outcome = run_attempt(memory, env_seed, tau=None, backend=backend, ctx=ctx, env=env)
    return outcome.episode_return
