"""Failure-triggered inner learning loop.

An attempt runs an episode step by step and aborts the moment one per-step
reward falls strictly below the failure trigger. The aborted attempt's
snapshot (trajectory, memory, environment state) feeds a learning agent that
synthesizes memory artifacts; the delta is applied and the episode restarts
from step 0, up to a fixed number of attempts per stage.

Completed attempts never touch memory; a Restore's own -1.0 cost sits above
the default trigger of -1.1, so routine remediation does not fire it.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable

from . import cage_lite
from .agents import CallContext, serialize_snapshot
from .cage_lite import EnvState, StepRecord, deepest_compromised_chain_host, episode_return
from .llm_connector import ConnectorError
from .memory import InstanceMemory, MemoryDelta, Origin, Representation, apply_delta, dump_yaml
from .seeding import derive_seed

logger = logging.getLogger(__name__)


class AttemptError(RuntimeError):
    """The policy backend failed hard during an attempt."""


class AttemptStatus(Enum):
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class SnapshotMeta:
    instance: int
    stage: int
    attempt: int
    failing_step: int
    failing_reward: float


@dataclass(frozen=True)
class FailureSnapshot:
    trajectory: tuple[StepRecord, ...]
    memory_at_failure: InstanceMemory
    metadata: SnapshotMeta
    env_state: EnvState

    @functools.cached_property
    def text(self) -> str:
        """The snapshot as the learning agents read it, built on first use."""
        return serialize_snapshot(self)


@dataclass(frozen=True)
class AttemptOutcome:
    status: AttemptStatus
    episode_return: float
    trajectory: tuple[StepRecord, ...] = ()
    snapshot: FailureSnapshot | None = None

    def __post_init__(self) -> None:
        if (self.snapshot is not None) != (self.status is AttemptStatus.ABORTED):
            raise ValueError("snapshot must be present exactly when the attempt aborted")


@dataclass(frozen=True)
class AttemptSummary:
    attempt: int
    status: str  # "completed" | "aborted" | "errored"
    episode_return: float | None
    artifacts_added: int
    failing_step: int | None = None


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
    an episode with ``done``, ``step(action)`` and ``state()`` plus the first
    observation; the episode is stepped in place, and its state is taken
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
        observation, reward = episode.step(action)
        records.append(StepRecord(action=action, reward=reward, observation=observation))
        if tau is not None and reward < tau:
            failing_step = len(records) - 1
            snapshot = FailureSnapshot(
                trajectory=tuple(records),
                memory_at_failure=memory.clone(),
                metadata=SnapshotMeta(
                    instance=instance,
                    stage=stage,
                    attempt=attempt,
                    failing_step=failing_step,
                    failing_reward=reward,
                ),
                env_state=episode.state(),
            )
            return AttemptOutcome(
                status=AttemptStatus.ABORTED,
                episode_return=episode_return(records),
                trajectory=tuple(records),
                snapshot=snapshot,
            )
    return AttemptOutcome(
        status=AttemptStatus.COMPLETED,
        episode_return=episode_return(records),
        trajectory=tuple(records),
    )


def synthesize(
    snapshot: FailureSnapshot,
    representation: Representation,
    backend,
    ctx: CallContext | None = None,
) -> MemoryDelta:
    """Turn a failure snapshot into artifacts via Reflector and/or Exemplifier."""
    meta = snapshot.metadata
    origin = Origin(stage=meta.stage, attempt=meta.attempt, instance=meta.instance)
    additions = []
    if representation in (Representation.RULES, Representation.MIXED):
        additions.extend(backend.reflect(snapshot, origin, ctx=ctx))
    if representation in (Representation.EXAMPLES, Representation.MIXED):
        additions.extend(backend.exemplify(snapshot, origin, ctx=ctx))
    return MemoryDelta(additions=tuple(additions))


def _write_attempt_artifacts(
    workspace: Path, attempt: int, outcome: AttemptOutcome
) -> None:
    attempt_dir = workspace / f"attempt_{attempt:02d}"
    cage_lite.write_trajectory(outcome.trajectory, attempt_dir / "trajectory.log")
    if outcome.snapshot is not None:
        meta = outcome.snapshot.metadata
        payload = {
            "instance": meta.instance,
            "stage": meta.stage,
            "attempt": meta.attempt,
            "failing_step": meta.failing_step,
            "failing_reward": meta.failing_reward,
            "failing_host": deepest_compromised_chain_host(outcome.snapshot.env_state),
            "snapshot_text": outcome.snapshot.text,
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
    on_attempt: Callable[[AttemptSummary], None] | None = None,
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
            summary = AttemptSummary(attempt, "errored", None, 0)
            summaries.append(summary)
            if on_attempt:
                on_attempt(summary)
            continue

        # Every attempt's trajectory is written; aborted ones add the failure
        # snapshot that the learning agents consume.
        if workspace is not None:
            _write_attempt_artifacts(Path(workspace), attempt, outcome)
        added = 0
        if outcome.status is AttemptStatus.ABORTED:
            delta = synthesize(outcome.snapshot, representation, backend, ctx=ctx)
            apply_delta(memory, delta)
            added = len(delta.additions)

        summary = AttemptSummary(
            attempt=attempt,
            status=outcome.status.value,
            episode_return=outcome.episode_return,
            artifacts_added=added,
            failing_step=outcome.snapshot.metadata.failing_step if outcome.snapshot else None,
        )
        summaries.append(summary)
        if on_attempt:
            on_attempt(summary)
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
