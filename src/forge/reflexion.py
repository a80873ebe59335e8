"""Failure-triggered inner learning loop.

An attempt runs an episode step by step and aborts the moment one per-step
reward falls strictly below the failure trigger. The aborted attempt's
snapshot (trajectory, memory, environment state) feeds a learning agent that
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
from pathlib import Path

from . import cage_lite
from .agents import CallContext, serialize_snapshot
from .cage_lite import EnvState, StepRecord, deepest_compromised_chain_host, episode_return
from .llm_connector import ConnectorError
from .memory import InstanceMemory, MemoryArtifact, Origin, Representation, dump_yaml
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
    it ran with and the environment state it stopped in.

    The failing step and reward are read off the last trajectory record, so
    ``failing_step`` is the 1-based step its trajectory line shows.
    """

    trajectory: tuple[StepRecord, ...]
    memory_at_failure: InstanceMemory
    origin: Origin
    env_state: EnvState

    @property
    def failing_step(self) -> int:
        return self.trajectory[-1].observation.step_index

    @property
    def failing_reward(self) -> float:
        return self.trajectory[-1].reward

    @functools.cached_property
    def failing_host(self) -> int | None:
        """The deepest compromised chain host, found on first use."""
        return deepest_compromised_chain_host(self.env_state)

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
    status: str  # "completed" | "aborted" | "errored"
    episode_return: float | None
    artifacts_added: int


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
    an episode with ``done`` and ``state()`` plus the first observation;
    ``env.step(episode, action)`` steps it in place, and its state is taken
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
        records.append(StepRecord(action=action, reward=reward, observation=observation))
        if tau is not None and reward < tau:
            trajectory = tuple(records)
            snapshot = FailureSnapshot(
                trajectory=trajectory,
                memory_at_failure=memory.clone(),
                origin=Origin(stage=stage, attempt=attempt, instance=instance),
                env_state=episode.state(),
            )
            return AttemptOutcome(episode_return(records), trajectory, snapshot)
    return AttemptOutcome(episode_return(records), tuple(records))


def synthesize(
    snapshot: FailureSnapshot,
    representation: Representation,
    backend,
    ctx: CallContext | None = None,
) -> list[MemoryArtifact]:
    """Turn a failure snapshot into artifacts via Reflector and/or Exemplifier."""
    artifacts = []
    if representation in (Representation.RULES, Representation.MIXED):
        artifacts.extend(backend.reflect(snapshot, snapshot.origin, ctx=ctx))
    if representation in (Representation.EXAMPLES, Representation.MIXED):
        artifacts.extend(backend.exemplify(snapshot, snapshot.origin, ctx=ctx))
    return artifacts


def _write_attempt_artifacts(
    workspace: Path, attempt: int, outcome: AttemptOutcome
) -> None:
    attempt_dir = workspace / f"attempt_{attempt:02d}"
    cage_lite.write_trajectory(outcome.trajectory, attempt_dir / "trajectory.log")
    snapshot = outcome.snapshot
    if snapshot is not None:
        payload = {
            "instance": snapshot.origin.instance,
            "stage": snapshot.origin.stage,
            "attempt": snapshot.origin.attempt,
            "failing_step": snapshot.failing_step,
            "failing_reward": snapshot.failing_reward,
            "failing_host": snapshot.failing_host,
            "snapshot_text": snapshot.text,
        }
        (attempt_dir / "snapshot.yaml").write_text(dump_yaml(payload), encoding="utf-8")


def reflexion_loop(
    memory: InstanceMemory,
    *,
    instance: int,
    stage: int,
    attempts: int,
    tau: float,
    representation: Representation,
    backend,
    base_seed: int,
    env=cage_lite,
    workspace: str | Path | None = None,
) -> list[AttemptSummary]:
    """Run exactly ``attempts`` attempts, learning from each aborted one.

    A completed attempt does not end the stage early; extra attempts are
    extra learning opportunities. Errored attempts are recorded and skipped
    without touching memory.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    ctx = CallContext(instance=instance, phase="adaptation")
    summaries: list[AttemptSummary] = []
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
            summaries.append(AttemptSummary(attempt, "errored", None, 0))
            continue

        # Every attempt's trajectory is written; aborted ones add the failure
        # snapshot that the learning agents consume.
        if workspace is not None:
            _write_attempt_artifacts(Path(workspace), attempt, outcome)
        added = []
        if outcome.snapshot is not None:
            added = synthesize(outcome.snapshot, representation, backend, ctx=ctx)
            for artifact in added:
                memory.append(artifact)
        summaries.append(
            AttemptSummary(attempt, outcome.status.value, outcome.episode_return, len(added))
        )
    return summaries


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
