"""Staged population training: parallel reflexion loops, frozen checkpoints,
graduation, champion selection and broadcast, then a final frozen evaluation.

A single coordinator owns every cross-instance step (graduation, champion
selection, broadcast); an instance's job only ever touches its own instance's
state, and a stage barrier guarantees no next-stage attempt starts before
every active instance has checkpointed. Offline backends run every job on
the calling thread; only an :class:`HttpConnector` gets a thread pool, with
one worker per active instance up to :data:`WORKER_CAP`, so no stage waits
on a second round of jobs.

This module owns the run-directory layout: it builds every path in a run
directory, and the writers it calls write only the path or stream they are
handed. A job appends its attempts to its instance's two logs on its own
thread as the attempts finish.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import TextIO, get_type_hints

import yaml

from . import cage_lite
from .agents import (
    PHASE_ADAPTATION,
    PHASE_EVALUATION,
    CallContext,
    LLMBackend,
    ScriptedBackend,
    default_memory,
    mock_responder,
)
from .llm_connector import HttpConnector, MockConnector, TokenLedger
from .memory import InstanceMemory, Representation, replace_dynamic, save_workspace
from .reflexion import AttemptError, AttemptOutcome, reflexion_loop, run_frozen_episode
from .seeding import derive_seed

logger = logging.getLogger(__name__)


class Condition(Enum):
    """Where an instance's learned memory comes from; values are ``transfer_strategy``."""

    FORGE = "best"  # champion broadcast
    REFLEXION = "individual"  # isolated reflexion


class ConfigError(ValueError):
    """The run configuration is invalid."""


class RunError(RuntimeError):
    """A protocol run failed; partial artifacts stay on disk."""


# Sentinel recorded when a checkpoint fails even after its retry. A failed
# checkpoint never graduates and never wins champion selection.
CHECKPOINT_FAILED = float("-inf")


@dataclass(frozen=True)
class ProtocolConfig:
    instances: int = 10
    stages: int = 6
    attempts_per_stage: int = 3
    failure_trigger: float = -1.1
    graduation_threshold: float = -15.0
    representation: Representation = Representation.RULES
    condition: Condition = Condition.FORGE
    graduation_enabled: bool = True
    base_seed: int = 1
    backend: str = "scripted"  # scripted | mock | http
    model: str = "mock-chat"
    eval_episodes_per_instance: int = 2
    memory_capacity: int = 20

    def __post_init__(self) -> None:
        for name in (
            "instances",
            "stages",
            "attempts_per_stage",
            "eval_episodes_per_instance",
            "memory_capacity",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        # NaN is not finite, so it fails here although it compares false with 0.
        if not (math.isfinite(self.failure_trigger) and self.failure_trigger < 0):
            raise ConfigError(
                f"failure_trigger must be finite and negative, got {self.failure_trigger}"
            )
        if not math.isfinite(self.graduation_threshold):
            raise ConfigError(
                f"graduation_threshold must be finite, got {self.graduation_threshold}"
            )
        if self.backend not in ("scripted", "mock", "http"):
            raise ConfigError(f"unknown backend: {self.backend!r}")


# ``condition`` is the one field stored under another key in config files.
_RENAMED = {"condition": "transfer_strategy"}

# Config-file key -> (field name, type), derived from the dataclass.
_HINTS = get_type_hints(ProtocolConfig)
_SCHEMA = {_RENAMED.get(f.name, f.name): (f.name, _HINTS[f.name]) for f in fields(ProtocolConfig)}


def _parse_value(key: str, hint, value):
    """Check ``value`` against a field type; ints widen to float, nothing else converts."""
    if issubclass(hint, Enum):
        choices = [member.value for member in hint]
        if value not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        return hint(value)
    if hint is float and type(value) is int:
        return float(value)
    if type(value) is not hint:
        raise ConfigError(f"{key} must be {hint.__name__}, got {value!r}")
    return value


def config_from_dict(raw: dict) -> ProtocolConfig:
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(map(str, unknown)))}")
    kwargs = {}
    for key, value in raw.items():
        name, hint = _SCHEMA[key]
        kwargs[name] = _parse_value(key, hint, value)
    return ProtocolConfig(**kwargs)


def config_to_dict(config: ProtocolConfig) -> dict:
    out = {}
    for key, (name, _) in _SCHEMA.items():
        value = getattr(config, name)
        out[key] = value.value if isinstance(value, Enum) else value
    return out


def load_config(path: str | Path) -> ProtocolConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    return config_from_dict(raw)


def build_backend(config: ProtocolConfig, connector=None):
    """Backend selection; an explicit connector overrides the config choice.

    The backend's own ``ledger`` counts the tokens of the run it serves, so
    a connector built here gets none of its own and nothing is counted twice.
    """
    if connector is None and config.backend == "scripted":
        return ScriptedBackend(representation=config.representation)
    if connector is None and config.backend == "mock":
        connector = MockConnector(responder=mock_responder)
    elif connector is None:
        base_url = os.environ.get("FORGE_BASE_URL", "")
        if not base_url:
            raise ConfigError("http backend requires FORGE_BASE_URL in the environment")
        connector = HttpConnector(base_url=base_url, api_key=os.environ.get("FORGE_API_KEY", ""))
    return LLMBackend(connector, representation=config.representation, model=config.model)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def _str_keys(by_instance: dict[int, object]) -> dict[str, object]:
    """A per-instance mapping in instance order, keyed by strings as in JSON."""
    return {str(k): v for k, v in sorted(by_instance.items())}


@dataclass(frozen=True)
class CheckpointResult:
    instance: int
    stage: int
    episode_return: float  # CHECKPOINT_FAILED when the probe errored twice
    graduated_now: bool = False

    def to_dict(self) -> dict:
        failed = self.episode_return == CHECKPOINT_FAILED
        return {
            "instance": self.instance,
            "stage": self.stage,
            "return": None if failed else self.episode_return,
            "failed": failed,
            "graduated_now": self.graduated_now,
        }


@dataclass
class StageReport:
    stage: int
    checkpoints: list[CheckpointResult]
    champion: int | None
    graduated_after: list[int]
    memory_hashes: dict[int, str]
    tokens_by_instance: dict[int, dict[str, int]]
    aborted_attempts: int
    artifacts_created: int

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "checkpoints": [c.to_dict() for c in self.checkpoints],
            "champion": self.champion,
            "graduated_after": self.graduated_after,
            "memory_hashes": _str_keys(self.memory_hashes),
            "tokens_by_instance": _str_keys(self.tokens_by_instance),
            "aborted_attempts": self.aborted_attempts,
            "artifacts_created": self.artifacts_created,
        }


@dataclass
class FinalReport:
    config: dict
    stage_reports: list[StageReport]
    eval_returns: dict[int, list[float]]
    graduation_stage: dict[int, int | None]
    memory_hash_final: dict[int, str]
    checkpoint_history: dict[int, list[float | None]]
    tokens: dict[str, dict[str, int]]
    tokens_by_instance: dict[int, dict[str, int]]
    aborted_attempts: int
    artifacts_created: int

    def graduation_distribution(self) -> dict[str, int]:
        stages = max(6, len(self.stage_reports))
        dist = {f"S{s}": 0 for s in range(1, stages + 1)}
        dist["never"] = 0
        for stage in self.graduation_stage.values():
            if stage is None:
                dist["never"] += 1
            else:
                dist[f"S{stage}"] += 1
        return dist

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "stage_reports": [s.to_dict() for s in self.stage_reports],
            "eval_returns": _str_keys(self.eval_returns),
            "graduation_stage": _str_keys(self.graduation_stage),
            "graduation_distribution": self.graduation_distribution(),
            "memory_hash_final": _str_keys(self.memory_hash_final),
            "checkpoint_history": _str_keys(self.checkpoint_history),
            "tokens": self.tokens,
            "tokens_by_instance": _str_keys(self.tokens_by_instance),
            "aborted_attempts": self.aborted_attempts,
            "artifacts_created": self.artifacts_created,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass
class InstanceState:
    instance: int
    memory: InstanceMemory
    graduated_at: int | None = None


@dataclass
class RunResult:
    report: FinalReport
    population: list[InstanceState]
    ledger: TokenLedger


# ---------------------------------------------------------------------------
# Protocol operations
# ---------------------------------------------------------------------------


def _frozen_return(
    memory: InstanceMemory, seed: int, backend, ctx: CallContext | None, env=cage_lite
) -> float:
    """A frozen episode's return, run once more if the first try raises :class:`AttemptError`."""
    try:
        return run_frozen_episode(memory, seed, backend, ctx=ctx, env=env)
    except AttemptError as exc:
        logger.warning("frozen episode on seed %d failed, retrying once: %s", seed, exc)
    return run_frozen_episode(memory, seed, backend, ctx=ctx, env=env)


def checkpoint(
    memory: InstanceMemory, seed: int, backend, ctx: CallContext | None = None, env=cage_lite
) -> float:
    """Frozen single-episode probe; retried once, then the failure sentinel."""
    try:
        return _frozen_return(memory, seed, backend, ctx, env)
    except AttemptError as exc:
        logger.warning("checkpoint failed twice: %s", exc)
        return CHECKPOINT_FAILED


def graduate_set(
    results: list[CheckpointResult], threshold: float, graduated: set[int]
) -> set[int]:
    """Strictly-above-threshold instances not yet graduated."""
    return {
        r.instance
        for r in results
        if r.instance not in graduated and r.episode_return > threshold
    }


def select_champion(
    results: list[CheckpointResult], graduated: set[int]
) -> int | None:
    """Best active checkpoint return; ties break to the lowest instance id."""
    candidates = [
        r
        for r in results
        if r.instance not in graduated and r.episode_return != CHECKPOINT_FAILED
    ]
    if not candidates:
        return None
    best = max(candidates, key=lambda r: (r.episode_return, -r.instance))
    return best.instance


def broadcast(
    population: list[InstanceState], champion: int
) -> list[InstanceState]:
    """Replace every active non-champion instance's dynamic memory in place.

    The champion's memory is hashed first, so each receiver takes its digest.
    """
    source = next(p for p in population if p.instance == champion)
    source.memory.content_hash()
    for state in population:
        if state.graduated_at is not None or state.instance == champion:
            continue
        replace_dynamic(state.memory, source.memory)
    return population


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

# The one name in a run directory that readers outside this module open.
FINAL_REPORT = "final_report.json"

# Each instance's two logs in ``workspaces/instance_II/``, appended attempt by
# attempt: every step's line, and one JSON line per aborted attempt.
TRAJECTORIES = "trajectories.log"
FAILURES = "failures.jsonl"


def check_run_dir(run_dir: Path) -> None:
    """Raise :class:`ConfigError` unless ``run_dir`` is empty or can be made.

    The path itself or, when it does not exist yet, its nearest existing
    ancestor must be a directory, so that a new run never mixes its files
    with an old run's.
    """
    existing = next((p for p in (run_dir, *run_dir.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"run directory path is not a directory: {existing}")
    if run_dir.exists() and any(run_dir.iterdir()):
        raise ConfigError(f"run directory already exists and is not empty: {run_dir}")


def run_protocol(
    config: ProtocolConfig,
    run_dir: str | Path | None = None,
    connector=None,
    config_source: str | Path | None = None,
) -> RunResult:
    """Run the protocol, writing its record into ``run_dir`` when one is given.

    ``run_dir`` must be new or empty: otherwise :class:`ConfigError` is raised
    before anything is written, so a run directory holds one run's files only.
    """
    run_path: Path | None = Path(run_dir) if run_dir is not None else None
    if run_path is not None:
        check_run_dir(run_path)
    backend = build_backend(config, connector=connector)
    ledger = backend.ledger
    population = [
        InstanceState(instance=i, memory=default_memory(config.memory_capacity))
        for i in range(1, config.instances + 1)
    ]
    if run_path is not None:
        run_path.mkdir(parents=True, exist_ok=True)
        if config_source is not None and Path(config_source).exists():
            shutil.copy(Path(config_source), run_path / "config_source.yaml")
        (run_path / "config.yaml").write_text(
            yaml.safe_dump(config_to_dict(config), sort_keys=True), encoding="utf-8"
        )
        for state in population:
            _instance_dir(run_path, state.instance).mkdir(parents=True)

    try:
        result = _run_stages(config, backend, population, ledger, run_path)
    except Exception as exc:
        if run_path is not None:
            (run_path / "run_failed.txt").write_text(f"{exc}\n", encoding="utf-8")
            ledger.write(run_path / "token_usage.log")
        raise RunError(f"protocol run failed: {exc}") from exc

    if run_path is not None:
        _write_atomic(run_path / FINAL_REPORT, result.report.to_json())
        ledger.write(run_path / "token_usage.log")
    return result


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it over ``path``.

    A crash mid-write leaves the previous file or none, never a truncated one.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _instance_dir(run_path: Path, instance: int) -> Path:
    return run_path / "workspaces" / f"instance_{instance:02d}"


def _write_attempt(
    trajectories: TextIO, failures: TextIO, stage: int, attempt: int, outcome: AttemptOutcome
) -> None:
    """Append an attempt's steps and, if it aborted, its failure record to the logs."""
    prefix = f"stage={stage:02d} attempt={attempt:02d} "
    cage_lite.write_trajectory(outcome.trajectory, trajectories, prefix)
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
        # ASCII escapes keep a record on one line, whatever breaks its text holds.
        failures.write(json.dumps(payload, sort_keys=True, ensure_ascii=True) + "\n")


def _worker(
    config: ProtocolConfig,
    backend,
    state: InstanceState,
    stage: int,
    run_path: Path | None,
) -> tuple[int, int, float]:
    """One instance's stage: its attempts, then its checkpoint.

    Each attempt is appended to the instance's logs as soon as it has
    learned, and is then dropped. No other job of the instance runs at the
    same time, so the logs need no lock. Returns the count of aborted
    attempts, the artifacts they added and the checkpoint score.
    """
    aborted = added = 0
    with contextlib.ExitStack() as stack:
        logs = None
        if run_path is not None:
            instance_dir = _instance_dir(run_path, state.instance)
            logs = [
                stack.enter_context(open(instance_dir / name, "a", encoding="utf-8"))
                for name in (TRAJECTORIES, FAILURES)
            ]
        for summary in reflexion_loop(
            state.memory,
            instance=state.instance,
            stage=stage,
            attempts=config.attempts_per_stage,
            tau=config.failure_trigger,
            backend=backend,
            base_seed=config.base_seed,
        ):
            if logs is not None and summary.outcome is not None:
                _write_attempt(*logs, stage, summary.attempt, summary.outcome)
            aborted += summary.status == "aborted"
            added += summary.artifacts_added
            del summary  # so no attempt outlives its lines through the next one or the checkpoint
    ckpt_seed = derive_seed(config.base_seed, "ckpt", stage, state.instance)
    ctx = CallContext(instance=state.instance, phase=PHASE_ADAPTATION)
    score = checkpoint(state.memory, ckpt_seed, backend, ctx=ctx)
    return aborted, added, score


# Most threads in one pool: above any shipped population, it only bounds huge ones.
WORKER_CAP = 32


def _stage_workers(config: ProtocolConfig, backend) -> int:
    """Workers for a stage's jobs and for the final evaluation's.

    Threads only pay off while calls wait on the network, i.e. when the
    backend talks through an :class:`HttpConnector`. There every instance
    gets a worker of its own, up to :data:`WORKER_CAP`: a stage's jobs are
    independent chains of calls joined only at the barrier, so a pool
    smaller than the population leaves the barrier waiting on a second
    round of jobs. Offline backends are pure CPU, where extra threads just
    contend for the GIL, so they get one worker.
    """
    if isinstance(getattr(backend, "connector", None), HttpConnector):
        return min(config.instances, WORKER_CAP)
    return 1


def _job_pool(config: ProtocolConfig, backend):
    """A thread pool of ``_stage_workers`` threads, or no pool for one worker.

    Used as a context manager around every stage of a run, so its threads
    start once per run rather than once per stage.
    """
    workers = _stage_workers(config, backend)
    return ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()


def _run_jobs(
    pool: ThreadPoolExecutor | None, job, jobs: list[tuple], ledger: TokenLedger
) -> list:
    """``job(*args)`` for each ``args`` of ``jobs``, results in input order.

    Without a pool the jobs run inline on the calling thread. On a pool the
    jobs record their token usage as the threads happen to run, so the
    entries they add to ``ledger`` are then sorted by instance: with one job
    per instance, in instance order, that is the inline order.
    """
    if pool is None:
        return [job(*args) for args in jobs]
    start = len(ledger)
    futures = [pool.submit(job, *args) for args in jobs]
    results = [future.result() for future in futures]
    ledger.sort_by_instance(start)
    return results


def _run_stages(
    config: ProtocolConfig,
    backend,
    population: list[InstanceState],
    ledger: TokenLedger,
    run_path: Path | None,
) -> RunResult:
    graduated: set[int] = set()
    stage_reports: list[StageReport] = []
    checkpoint_history: dict[int, list[float | None]] = {
        p.instance: [] for p in population
    }
    # Memory hash -> the snapshot file first written for it in this run.
    snapshots: dict[str, Path] = {}

    with _job_pool(config, backend) as pool:
        for stage in range(1, config.stages + 1):
            active = [p for p in population if p.graduated_at is None]
            # Stage barrier: nothing below runs until every active instance
            # has finished its attempts and its checkpoint.
            done = _run_jobs(
                pool, _worker, [(config, backend, p, stage, run_path) for p in active], ledger
            )
            results = [
                CheckpointResult(instance=p.instance, stage=stage, episode_return=score)
                for p, (_, _, score) in zip(active, done)
            ]

            # Reported returns: None for a failed checkpoint and for graduates,
            # which no longer checkpoint.
            returns = {r.instance: r.to_dict()["return"] for r in results}
            for p in population:
                checkpoint_history[p.instance].append(returns.get(p.instance))

            if config.graduation_enabled:
                new_graduates = graduate_set(results, config.graduation_threshold, graduated)
            else:
                new_graduates = set()
            results = [
                replace(r, graduated_now=r.instance in new_graduates) for r in results
            ]
            for p in population:
                if p.instance in new_graduates:
                    p.graduated_at = stage
            graduated |= new_graduates

            champion: int | None = None
            if config.condition is Condition.FORGE:
                champion = select_champion(results, graduated)
                if champion is not None:
                    broadcast(population, champion)

            memory_hashes = {p.instance: p.memory.content_hash() for p in population}
            tokens_by_instance = {
                p.instance: _usage_dict(ledger, instance=p.instance) for p in population
            }
            report = StageReport(
                stage=stage,
                checkpoints=results,
                champion=champion,
                graduated_after=sorted(graduated),
                memory_hashes=memory_hashes,
                tokens_by_instance=tokens_by_instance,
                aborted_attempts=sum(aborted for aborted, _, _ in done),
                artifacts_created=sum(added for _, added, _ in done),
            )
            stage_reports.append(report)
            logger.info(
                "stage %d/%d: %d active, champion %s, new graduates %s, %d aborted attempts",
                stage,
                config.stages,
                len(active),
                "none" if champion is None else champion,
                sorted(new_graduates) or "none",
                report.aborted_attempts,
            )

            if run_path is not None:
                _write_atomic(
                    run_path / f"stage_summary_{stage:02d}.json",
                    json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
                )
                for p in population:
                    _save_snapshot(
                        p.memory,
                        memory_hashes[p.instance],
                        _instance_dir(run_path, p.instance) / f"stage_{stage:02d}" / "memory",
                        snapshots,
                    )

    eval_returns = evaluate({p.instance: p.memory for p in population}, config, backend)
    report = FinalReport(
        config=config_to_dict(config),
        stage_reports=stage_reports,
        eval_returns=eval_returns,
        graduation_stage={p.instance: p.graduated_at for p in population},
        memory_hash_final={p.instance: p.memory.content_hash() for p in population},
        checkpoint_history=checkpoint_history,
        tokens={
            PHASE_ADAPTATION: _usage_dict(ledger, phase=PHASE_ADAPTATION),
            PHASE_EVALUATION: _usage_dict(ledger, phase=PHASE_EVALUATION),
        },
        tokens_by_instance={
            p.instance: _usage_dict(ledger, instance=p.instance) for p in population
        },
        aborted_attempts=sum(r.aborted_attempts for r in stage_reports),
        artifacts_created=sum(r.artifacts_created for r in stage_reports),
    )
    return RunResult(report=report, population=population, ledger=ledger)


def _save_snapshot(
    memory: InstanceMemory, digest: str, directory: Path, snapshots: dict[str, Path]
) -> None:
    """Put the snapshot file of ``memory``, whose hash is ``digest``, into ``directory``.

    Equal content hashes mean equal memories, hence equal files. After a
    broadcast every active instance shares the champion's memory, and a
    graduate's never changes, so the first directory of a hash in a run gets
    a written file and every later one a hard link to it. Where the file
    system cannot link, the file is copied.
    """
    source = snapshots.get(digest)
    if source is None:
        [snapshots[digest]] = save_workspace(memory, directory)
        return
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / source.name
    try:
        os.link(source, target)
    except OSError:
        shutil.copyfile(source, target)


def _usage_dict(
    ledger: TokenLedger, phase: str | None = None, instance: int | None = None
) -> dict[str, int]:
    usage = ledger.totals(phase=phase, instance=instance)
    return {"prompt": usage.prompt_tokens, "completion": usage.completion_tokens}


def evaluate(
    memories: dict[int, InstanceMemory], config: ProtocolConfig, backend
) -> dict[int, list[float]]:
    """Frozen evaluation of each instance's memory on its evaluation seeds.

    The seeds depend only on the base seed, the instance and the episode, so
    runs with the same config are paired per episode whatever their training.
    Each instance's episodes are one job, run like a stage's jobs. An episode
    that errors is run once more, as a checkpoint is; a second error fails
    the run.
    """

    def episodes(instance: int, memory: InstanceMemory) -> list[float]:
        ctx = CallContext(instance=instance, phase=PHASE_EVALUATION)
        seeds = [
            derive_seed(config.base_seed, "eval", instance, episode)
            for episode in range(1, config.eval_episodes_per_instance + 1)
        ]
        return [_frozen_return(memory, seed, backend, ctx) for seed in seeds]

    with _job_pool(config, backend) as pool:
        returns = _run_jobs(pool, episodes, list(memories.items()), backend.ledger)
    return dict(zip(memories, returns))


def evaluate_zero_shot(config: ProtocolConfig, connector=None) -> dict[int, list[float]]:
    """Frozen evaluation of untrained (empty dynamic memory) instances."""
    memories = {
        instance: default_memory(config.memory_capacity)
        for instance in range(1, config.instances + 1)
    }
    return evaluate(memories, config, build_backend(config, connector=connector))
