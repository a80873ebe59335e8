"""Staged population training: parallel reflexion loops, frozen checkpoints,
graduation, champion selection and broadcast, then a final frozen evaluation.

A single coordinator owns every cross-instance step (graduation, champion
selection, broadcast); an instance's job only ever touches its own instance's
state, and a stage barrier guarantees no next-stage attempt starts before
every active instance has checkpointed. Offline backends run every job on
the calling thread; only an :class:`HttpConnector` gets a thread pool.
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
from typing import get_type_hints

import yaml

from . import cage_lite
from .agents import (
    CallContext,
    LLMBackend,
    ScriptedBackend,
    default_memory,
    mock_responder,
)
from .llm_connector import HttpConnector, MockConnector, TokenLedger
from .memory import InstanceMemory, Representation, replace_dynamic, save_workspace
from .reflexion import AttemptError, AttemptSummary, reflexion_loop, run_frozen_episode
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

PHASE_ADAPTATION = "adaptation"
PHASE_EVALUATION = "evaluation"


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


def checkpoint(
    memory: InstanceMemory, seed: int, backend, ctx: CallContext | None = None, env=cage_lite
) -> float:
    """Frozen single-episode probe; retried once, then the failure sentinel."""
    for attempt in range(2):
        try:
            return run_frozen_episode(memory, seed, backend, ctx=ctx, env=env)
        except AttemptError as exc:
            logger.warning("checkpoint attempt %d failed: %s", attempt + 1, exc)
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
    """Replace every active non-champion instance's dynamic memory in place."""
    source = next(p for p in population if p.instance == champion)
    for state in population:
        if state.graduated_at is not None or state.instance == champion:
            continue
        replace_dynamic(state.memory, source.memory)
    return population


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def run_protocol(
    config: ProtocolConfig,
    run_dir: str | Path | None = None,
    connector=None,
    config_source: str | Path | None = None,
) -> RunResult:
    backend = build_backend(config, connector=connector)
    ledger = backend.ledger
    population = [
        InstanceState(instance=i, memory=default_memory(config.memory_capacity))
        for i in range(1, config.instances + 1)
    ]
    run_path: Path | None = Path(run_dir) if run_dir is not None else None
    if run_path is not None:
        run_path.mkdir(parents=True, exist_ok=True)
        if config_source is not None and Path(config_source).exists():
            shutil.copy(Path(config_source), run_path / "config_source.yaml")
        (run_path / "config.yaml").write_text(
            yaml.safe_dump(config_to_dict(config), sort_keys=True), encoding="utf-8"
        )

    try:
        result = _run_stages(config, backend, population, ledger, run_path)
    except Exception as exc:
        if run_path is not None:
            (run_path / "run_failed.txt").write_text(f"{exc}\n", encoding="utf-8")
            ledger.write(run_path / "token_usage.log")
        raise RunError(f"protocol run failed: {exc}") from exc

    if run_path is not None:
        _write_atomic(run_path / "final_report.json", result.report.to_json())
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


def _worker(
    config: ProtocolConfig,
    backend,
    state: InstanceState,
    stage: int,
    run_path: Path | None,
) -> tuple[list[AttemptSummary], float]:
    workspace = None
    if run_path is not None:
        workspace = run_path / "workspaces" / f"instance_{state.instance:02d}" / f"stage_{stage:02d}"
    summaries = reflexion_loop(
        state.memory,
        instance=state.instance,
        stage=stage,
        attempts=config.attempts_per_stage,
        tau=config.failure_trigger,
        representation=config.representation,
        backend=backend,
        base_seed=config.base_seed,
        workspace=workspace,
    )
    ckpt_seed = derive_seed(config.base_seed, "ckpt", stage, state.instance)
    ctx = CallContext(instance=state.instance, phase=PHASE_ADAPTATION)
    score = checkpoint(state.memory, ckpt_seed, backend, ctx=ctx)
    return summaries, score


def _stage_workers(config: ProtocolConfig, backend) -> int:
    """Workers for a stage's jobs and for the final evaluation's.

    Threads only pay off while calls wait on the network, i.e. when the
    backend talks through an :class:`HttpConnector`. Offline backends are pure
    CPU, where extra threads just contend for the GIL, so they get one worker.
    """
    if isinstance(getattr(backend, "connector", None), HttpConnector):
        return min(config.instances, 8)
    return 1


def _job_pool(config: ProtocolConfig, backend):
    """A thread pool of ``_stage_workers`` threads, or no pool for one worker.

    Used as a context manager around every stage of a run, so its threads
    start once per run rather than once per stage.
    """
    workers = _stage_workers(config, backend)
    return ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext()


def _run_jobs(pool: ThreadPoolExecutor | None, job, jobs: list[tuple]) -> list:
    """``job(*args)`` for each ``args`` of ``jobs``, results in input order.

    Without a pool the jobs run inline on the calling thread.
    """
    if pool is None:
        return [job(*args) for args in jobs]
    futures = [pool.submit(job, *args) for args in jobs]
    return [future.result() for future in futures]


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
    # Memory hash -> the snapshot files first written for it in this run.
    snapshots: dict[str, list[Path]] = {}

    with _job_pool(config, backend) as pool:
        for stage in range(1, config.stages + 1):
            active = [p for p in population if p.graduated_at is None]
            # Stage barrier: nothing below runs until every active instance
            # has finished its attempts and its checkpoint.
            done = _run_jobs(pool, _worker, [(config, backend, p, stage, run_path) for p in active])
            outcomes = {p.instance: outcome for p, outcome in zip(active, done)}

            summaries = [s for i in sorted(outcomes) for s in outcomes[i][0]]
            results = [
                CheckpointResult(instance=i, stage=stage, episode_return=outcomes[i][1])
                for i in sorted(outcomes)
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
                aborted_attempts=sum(1 for s in summaries if s.status == "aborted"),
                artifacts_created=sum(s.artifacts_added for s in summaries),
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
                        run_path
                        / "workspaces"
                        / f"instance_{p.instance:02d}"
                        / f"stage_{stage:02d}"
                        / "memory",
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
    memory: InstanceMemory, digest: str, directory: Path, snapshots: dict[str, list[Path]]
) -> None:
    """Put the snapshot files of ``memory``, whose hash is ``digest``, into ``directory``.

    Equal content hashes mean equal memories, hence equal files. After a
    broadcast every active instance shares the champion's memory, and a
    graduate's never changes, so the first directory of a hash in a run gets
    written files and every later one hard links to them. Where the file
    system cannot link, the file is copied. A path is unlinked before it is
    linked or copied, so no write goes through an inode another path shares.
    """
    sources = snapshots.get(digest)
    if sources is None:
        snapshots[digest] = save_workspace(memory, directory)
        return
    directory.mkdir(parents=True, exist_ok=True)
    for source in sources:
        target = directory / source.name
        target.unlink(missing_ok=True)
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
    Each instance's episodes are one job, run like a stage's jobs.
    """

    def episodes(instance: int, memory: InstanceMemory) -> list[float]:
        ctx = CallContext(instance=instance, phase=PHASE_EVALUATION)
        return [
            run_frozen_episode(
                memory, derive_seed(config.base_seed, "eval", instance, episode), backend, ctx=ctx
            )
            for episode in range(1, config.eval_episodes_per_instance + 1)
        ]

    with _job_pool(config, backend) as pool:
        returns = _run_jobs(pool, episodes, list(memories.items()))
    return dict(zip(memories, returns))


def evaluate_zero_shot(config: ProtocolConfig, connector=None) -> dict[int, list[float]]:
    """Frozen evaluation of untrained (empty dynamic memory) instances."""
    memories = {
        instance: default_memory(config.memory_capacity)
        for instance in range(1, config.instances + 1)
    }
    return evaluate(memories, config, build_backend(config, connector=connector))
