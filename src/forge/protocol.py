"""Staged population training: parallel reflexion loops, frozen checkpoints,
graduation, champion selection and broadcast, then a final frozen evaluation.

A single coordinator owns every cross-instance step (graduation, champion
selection, broadcast); worker threads only ever touch their own instance's
state, and a stage barrier guarantees no next-stage attempt starts before
every active instance has checkpointed.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

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
    FORGE = "forge"
    REFLEXION = "reflexion"


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
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if self.instances < 1:
            raise ConfigError("instances must be >= 1")
        if self.stages < 1:
            raise ConfigError("stages must be >= 1")
        if self.attempts_per_stage < 1:
            raise ConfigError("attempts_per_stage must be >= 1")
        if self.failure_trigger >= 0:
            raise ConfigError("failure_trigger must be negative")
        if self.eval_episodes_per_instance < 1:
            raise ConfigError("eval_episodes_per_instance must be >= 1")
        if self.memory_capacity < 1:
            raise ConfigError("memory_capacity must be >= 1")
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        if self.backend not in ("scripted", "mock", "http"):
            raise ConfigError(f"unknown backend: {self.backend!r}")


_CONFIG_KEYS = {
    "transfer_strategy",
    "instances",
    "stages",
    "attempts_per_stage",
    "failure_trigger",
    "graduation_threshold",
    "graduation_enabled",
    "representation",
    "backend",
    "model",
    "base_seed",
    "eval_episodes_per_instance",
    "memory_capacity",
    "max_workers",
}


def config_from_dict(raw: dict) -> ProtocolConfig:
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    kwargs = {}
    strategy = raw.get("transfer_strategy", "best")
    if strategy not in ("best", "individual"):
        raise ConfigError("transfer_strategy must be 'best' or 'individual'")
    kwargs["condition"] = Condition.FORGE if strategy == "best" else Condition.REFLEXION
    if "representation" in raw:
        try:
            kwargs["representation"] = Representation(str(raw["representation"]).lower())
        except ValueError as exc:
            raise ConfigError(f"unknown representation: {raw['representation']!r}") from exc
    for key, caster in (
        ("instances", int),
        ("stages", int),
        ("attempts_per_stage", int),
        ("failure_trigger", float),
        ("graduation_threshold", float),
        ("graduation_enabled", bool),
        ("backend", str),
        ("model", str),
        ("base_seed", int),
        ("eval_episodes_per_instance", int),
        ("memory_capacity", int),
    ):
        if key in raw:
            try:
                kwargs[key] = caster(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r}") from exc
    workers = raw.get("max_workers")
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise ConfigError(f"max_workers must be an integer, got {workers!r}")
        kwargs["max_workers"] = workers
    return ProtocolConfig(**kwargs)


def config_to_dict(config: ProtocolConfig) -> dict:
    return {
        "transfer_strategy": "best" if config.condition is Condition.FORGE else "individual",
        "instances": config.instances,
        "stages": config.stages,
        "attempts_per_stage": config.attempts_per_stage,
        "failure_trigger": config.failure_trigger,
        "graduation_threshold": config.graduation_threshold,
        "graduation_enabled": config.graduation_enabled,
        "representation": config.representation.value,
        "backend": config.backend,
        "model": config.model,
        "base_seed": config.base_seed,
        "eval_episodes_per_instance": config.eval_episodes_per_instance,
        "memory_capacity": config.memory_capacity,
        "max_workers": config.max_workers,
    }


def load_config(path: str | Path) -> ProtocolConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    return config_from_dict(raw)


def build_backend(config: ProtocolConfig, ledger: TokenLedger, connector=None):
    """Backend selection; an explicit connector overrides the config choice."""
    if connector is not None:
        return LLMBackend(
            connector, representation=config.representation, model=config.model
        )
    if config.backend == "scripted":
        return ScriptedBackend(representation=config.representation)
    if config.backend == "mock":
        mock = MockConnector(responder=mock_responder, ledger=ledger)
        return LLMBackend(mock, representation=config.representation, model=config.model)
    base_url = os.environ.get("FORGE_BASE_URL", "")
    if not base_url:
        raise ConfigError("http backend requires FORGE_BASE_URL in the environment")
    http = HttpConnector(
        base_url=base_url, api_key=os.environ.get("FORGE_API_KEY", ""), ledger=ledger
    )
    return LLMBackend(http, representation=config.representation, model=config.model)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


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
            "memory_hashes": {str(k): v for k, v in sorted(self.memory_hashes.items())},
            "tokens_by_instance": {
                str(k): v for k, v in sorted(self.tokens_by_instance.items())
            },
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

    def pooled_returns(self) -> list[float]:
        return [r for returns in self.eval_returns.values() for r in returns]

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
            "eval_returns": {str(k): v for k, v in sorted(self.eval_returns.items())},
            "graduation_stage": {
                str(k): v for k, v in sorted(self.graduation_stage.items())
            },
            "graduation_distribution": self.graduation_distribution(),
            "memory_hash_final": {
                str(k): v for k, v in sorted(self.memory_hash_final.items())
            },
            "checkpoint_history": {
                str(k): v for k, v in sorted(self.checkpoint_history.items())
            },
            "tokens": self.tokens,
            "tokens_by_instance": {
                str(k): v for k, v in sorted(self.tokens_by_instance.items())
            },
            "aborted_attempts": self.aborted_attempts,
            "artifacts_created": self.artifacts_created,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class ProtocolEvent:
    seq: int
    stage: int
    instance: int
    kind: str  # "attempt" | "checkpoint"
    payload: dict


@dataclass
class InstanceState:
    instance: int
    memory: InstanceMemory
    graduated_at: int | None = None


@dataclass
class RunResult:
    report: FinalReport
    population: list[InstanceState]
    events: list[ProtocolEvent]
    ledger: TokenLedger


class _EventLog:
    def __init__(self) -> None:
        self._events: list[ProtocolEvent] = []
        self._lock = threading.Lock()

    def record(self, stage: int, instance: int, kind: str, payload: dict) -> None:
        with self._lock:
            self._events.append(
                ProtocolEvent(len(self._events), stage, instance, kind, payload)
            )

    def events(self) -> list[ProtocolEvent]:
        with self._lock:
            return list(self._events)


# ---------------------------------------------------------------------------
# Protocol operations
# ---------------------------------------------------------------------------


def checkpoint(
    memory: InstanceMemory, seed: int, backend, ctx: CallContext | None = None, env=None
) -> float:
    """Frozen single-episode probe; retried once, then the failure sentinel."""
    env = env or cage_lite
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
    ledger = TokenLedger()
    backend = build_backend(config, ledger, connector=connector)
    events = _EventLog()
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
        result = _run_stages(config, backend, population, events, ledger, run_path)
    except Exception as exc:
        if run_path is not None:
            (run_path / "run_failed.txt").write_text(f"{exc}\n", encoding="utf-8")
            ledger.write(run_path / "token_usage.log")
        raise RunError(f"protocol run failed: {exc}") from exc

    if run_path is not None:
        (run_path / "final_report.json").write_text(result.report.to_json(), encoding="utf-8")
        ledger.write(run_path / "token_usage.log")
    return result


def _worker(
    config: ProtocolConfig,
    backend,
    state: InstanceState,
    stage: int,
    events: _EventLog,
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
        on_attempt=lambda s: events.record(
            stage,
            state.instance,
            "attempt",
            {
                "attempt": s.attempt,
                "status": s.status,
                "return": s.episode_return,
                "artifacts_added": s.artifacts_added,
            },
        ),
    )
    hash_before = state.memory.content_hash()
    ckpt_seed = derive_seed(config.base_seed, "ckpt", stage, state.instance)
    ctx = CallContext(instance=state.instance, phase=PHASE_ADAPTATION)
    score = checkpoint(state.memory, ckpt_seed, backend, ctx=ctx)
    hash_after = state.memory.content_hash()
    events.record(
        stage,
        state.instance,
        "checkpoint",
        {
            "return": None if score == CHECKPOINT_FAILED else score,
            "memory_hash_before": hash_before,
            "memory_hash_after": hash_after,
        },
    )
    return summaries, score


def _stage_workers(config: ProtocolConfig, backend) -> int:
    """Worker threads for the stage pool.

    Threads only pay off while calls wait on the network, i.e. when the
    backend talks through an :class:`HttpConnector`. Offline backends are pure
    CPU, where extra threads just contend for the GIL, so they get one worker.
    An explicit ``max_workers`` always wins.
    """
    if config.max_workers is not None:
        return config.max_workers
    if isinstance(getattr(backend, "connector", None), HttpConnector):
        return min(config.instances, 8)
    return 1


def _run_stages(
    config: ProtocolConfig,
    backend,
    population: list[InstanceState],
    events: _EventLog,
    ledger: TokenLedger,
    run_path: Path | None,
) -> RunResult:
    graduated: set[int] = set()
    stage_reports: list[StageReport] = []
    checkpoint_history: dict[int, list[float | None]] = {
        p.instance: [] for p in population
    }
    total_aborted = 0
    total_artifacts = 0

    with ThreadPoolExecutor(max_workers=_stage_workers(config, backend)) as executor:
        for stage in range(1, config.stages + 1):
            active = [p for p in population if p.graduated_at is None]
            futures = {
                p.instance: executor.submit(
                    _worker, config, backend, p, stage, events, run_path
                )
                for p in active
            }
            # Stage barrier: nothing below runs until every active instance
            # has finished its attempts and its checkpoint.
            outcomes = {i: f.result() for i, f in futures.items()}

            results = []
            stage_aborted = 0
            stage_artifacts = 0
            for p in sorted(active, key=lambda s: s.instance):
                summaries, score = outcomes[p.instance]
                stage_aborted += sum(1 for s in summaries if s.status == "aborted")
                stage_artifacts += sum(s.artifacts_added for s in summaries)
                results.append(
                    CheckpointResult(instance=p.instance, stage=stage, episode_return=score)
                )
            total_aborted += stage_aborted
            total_artifacts += stage_artifacts

            for p in population:
                if p.graduated_at is None:
                    score = outcomes[p.instance][1]
                    checkpoint_history[p.instance].append(
                        None if score == CHECKPOINT_FAILED else score
                    )
                else:
                    checkpoint_history[p.instance].append(None)

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
                aborted_attempts=stage_aborted,
                artifacts_created=stage_artifacts,
            )
            stage_reports.append(report)

            if run_path is not None:
                (run_path / f"stage_summary_{stage:02d}.json").write_text(
                    json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
                    encoding="utf-8",
                )
                for p in population:
                    save_workspace(
                        p.memory,
                        run_path
                        / "workspaces"
                        / f"instance_{p.instance:02d}"
                        / f"stage_{stage:02d}"
                        / "memory",
                    )

    eval_returns: dict[int, list[float]] = {}
    for p in population:
        ctx = CallContext(instance=p.instance, phase=PHASE_EVALUATION)
        returns = []
        for episode in range(1, config.eval_episodes_per_instance + 1):
            seed = derive_seed(config.base_seed, "eval", p.instance, episode)
            returns.append(run_frozen_episode(p.memory, seed, backend, ctx=ctx))
        eval_returns[p.instance] = returns

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
        aborted_attempts=total_aborted,
        artifacts_created=total_artifacts,
    )
    return RunResult(
        report=report, population=population, events=events.events(), ledger=ledger
    )


def _usage_dict(
    ledger: TokenLedger, phase: str | None = None, instance: int | None = None
) -> dict[str, int]:
    usage = ledger.totals(phase=phase, instance=instance)
    return {"prompt": usage.prompt_tokens, "completion": usage.completion_tokens}


def evaluate_zero_shot(config: ProtocolConfig, connector=None) -> dict[int, list[float]]:
    """Frozen evaluation of untrained (empty dynamic memory) instances.

    Uses the same evaluation seeds as a trained run with the same config,
    so trained-vs-zero-shot comparisons are paired per episode.
    """
    ledger = TokenLedger()
    backend = build_backend(config, ledger, connector=connector)
    out: dict[int, list[float]] = {}
    for instance in range(1, config.instances + 1):
        memory = default_memory(config.memory_capacity)
        ctx = CallContext(instance=instance, phase=PHASE_EVALUATION)
        returns = []
        for episode in range(1, config.eval_episodes_per_instance + 1):
            seed = derive_seed(config.base_seed, "eval", instance, episode)
            returns.append(run_frozen_episode(memory, seed, backend, ctx=ctx))
        out[instance] = returns
    return out
