"""Session summaries, tail-risk statistics, trigger-threshold analysis,
threshold sweeps, and cross-session aggregation.

Reported spreads use the sample standard deviation (n-1 denominator)
throughout; report headers restate this convention.
"""

from __future__ import annotations

import json
import logging
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

from .protocol import ConfigError, ProtocolConfig, RunError, run_protocol

logger = logging.getLogger(__name__)

SD_CONVENTION = "sample standard deviation (n-1)"

MAJOR_FAILURE_THRESHOLD = -100.0
CATASTROPHIC_FAILURE_THRESHOLD = -150.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _sd(values: list[float]) -> float:
    return statistics.stdev(values) if len(values) >= 2 else 0.0


def tail_risk(returns: list[float], threshold: float) -> float:
    """Fraction of returns strictly below the threshold."""
    if not returns:
        raise ValueError("tail_risk needs at least one return")
    return sum(1 for r in returns if r < threshold) / len(returns)


@dataclass(frozen=True)
class PenaltyLogEntry:
    reward: float
    is_restore: bool


@dataclass(frozen=True)
class TriggerAnalysis:
    threshold: float
    true_triggers_captured: int
    false_positives: int
    true_trigger_total: int
    precision: float
    recall: float


def trigger_analysis(entries: list[PenaltyLogEntry], tau: float) -> TriggerAnalysis:
    """Classify penalized steps against a trigger threshold.

    A step triggers iff its reward is strictly below ``tau``. Restore steps
    are legitimate defensive cost, so a triggering restore is a false
    positive; every non-restore penalized step is a true failure to capture.
    """
    if any(e.reward >= 0 for e in entries):
        raise ValueError("penalty log must contain only penalized (negative) steps")
    true_total = sum(1 for e in entries if not e.is_restore)
    captured = sum(1 for e in entries if not e.is_restore and e.reward < tau)
    false_positives = sum(1 for e in entries if e.is_restore and e.reward < tau)
    denominator = captured + false_positives
    precision = captured / denominator if denominator > 0 else 1.0
    recall = captured / true_total if true_total > 0 else 0.0
    return TriggerAnalysis(
        threshold=tau,
        true_triggers_captured=captured,
        false_positives=false_positives,
        true_trigger_total=true_total,
        precision=precision,
        recall=recall,
    )


def make_reference_penalty_log() -> list[PenaltyLogEntry]:
    """Synthetic penalty log matching the documented step-penalty census:
    3,520 restore steps at exactly -1.0 and 9,926 failure steps of which
    7,346 fall strictly below -1.1 (the rest sit exactly at -1.1)."""
    entries = [PenaltyLogEntry(-1.0, True) for _ in range(3520)]
    entries.extend(PenaltyLogEntry(-1.1, False) for _ in range(2580))
    entries.extend(PenaltyLogEntry(-1.2, False) for _ in range(2200))
    moderate_values = (-2.0, -2.4, -2.8, -3.2)
    entries.extend(
        PenaltyLogEntry(moderate_values[i % len(moderate_values)], False) for i in range(3146)
    )
    severe_values = (-11.0, -12.0, -13.0, -14.0)
    entries.extend(
        PenaltyLogEntry(severe_values[i % len(severe_values)], False) for i in range(2000)
    )
    return entries


_RESTORE_FLAGS = {"0": False, "1": True}


def read_penalty_log(path: str | Path) -> list[PenaltyLogEntry]:
    """Parse ``reward=<negative float> restore=<0|1>`` lines, each field once
    and nothing else; a bad line raises ``ValueError`` naming its line
    number, and so does a log without one."""
    entries = []
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            pairs = [part.split("=", 1) for part in line.split()]
            if sorted(key for key, _ in pairs) != ["restore", "reward"]:
                raise ValueError("a line holds reward= and restore= once each and nothing else")
            fields = dict(pairs)
            entry = PenaltyLogEntry(
                reward=float(fields["reward"]), is_restore=_RESTORE_FLAGS[fields["restore"]]
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad penalty log line {line_no}: {line!r}") from exc
        if not entry.reward < 0:
            raise ValueError(
                f"bad penalty log line {line_no}: {line!r}: reward must be negative"
            )
        entries.append(entry)
    if not entries:
        raise ValueError(f"penalty log {path} holds no penalty lines")
    return entries


# ---------------------------------------------------------------------------
# Session summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionSummary:
    condition: str
    representation: str
    instances: int
    eval_returns: dict[int, list[float]]
    mean_return: float
    sd_return: float
    graduated: int
    graduation_distribution: dict[str, int]
    stage_checkpoint_means: list[float]
    stage_checkpoint_sds: list[float]
    volatility_per_instance_mean: float
    volatility_pooled: float
    tokens: dict[str, dict[str, int]]
    aborted_attempts: int
    artifacts_created: int
    major_failure_rate: float
    catastrophic_failure_rate: float


def summarize_report(report_data: dict) -> SessionSummary:
    """Build a summary from a final report dictionary."""
    eval_returns = {int(k): list(v) for k, v in report_data["eval_returns"].items()}
    pooled = [r for rs in eval_returns.values() for r in rs]
    history = {int(k): v for k, v in report_data["checkpoint_history"].items()}

    per_stage: dict[int, list[float]] = {}
    for scores in history.values():
        for stage_index, score in enumerate(scores):
            if score is not None:
                per_stage.setdefault(stage_index, []).append(score)
    stage_means = [_mean(per_stage[i]) for i in sorted(per_stage)]
    stage_sds = [_sd(per_stage[i]) for i in sorted(per_stage)]

    # Volatility of checkpoint scores across stages, both conventions:
    # per-instance SD averaged over instances, and the SD of the pooled
    # (instance, stage) scores.
    per_instance_sds = []
    pooled_scores = []
    for scores in history.values():
        present = [s for s in scores if s is not None]
        pooled_scores.extend(present)
        if len(present) >= 2:
            per_instance_sds.append(_sd(present))
    graduation_stage = report_data["graduation_stage"]
    return SessionSummary(
        condition=report_data["config"]["transfer_strategy"],
        representation=report_data["config"]["representation"],
        instances=int(report_data["config"]["instances"]),
        eval_returns=eval_returns,
        mean_return=_mean(pooled),
        sd_return=_sd(pooled),
        graduated=sum(1 for s in graduation_stage.values() if s is not None),
        graduation_distribution=dict(report_data["graduation_distribution"]),
        stage_checkpoint_means=stage_means,
        stage_checkpoint_sds=stage_sds,
        volatility_per_instance_mean=_mean(per_instance_sds),
        volatility_pooled=_sd(pooled_scores),
        tokens=report_data["tokens"],
        aborted_attempts=int(report_data["aborted_attempts"]),
        artifacts_created=int(report_data["artifacts_created"]),
        major_failure_rate=tail_risk(pooled, MAJOR_FAILURE_THRESHOLD) if pooled else 0.0,
        catastrophic_failure_rate=tail_risk(pooled, CATASTROPHIC_FAILURE_THRESHOLD)
        if pooled
        else 0.0,
    )


def load_session_summary(session_dir: str | Path) -> SessionSummary:
    report_path = Path(session_dir) / "final_report.json"
    report_data = json.loads(report_path.read_text(encoding="utf-8"))
    return summarize_report(report_data)


# ---------------------------------------------------------------------------
# Failure-trigger threshold sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    tau: float
    summary: SessionSummary | None
    error: str | None = None


def sweep_tau(
    config: ProtocolConfig,
    taus: list[float],
    out_dir: str | Path | None = None,
    connector=None,
) -> list[SweepEntry]:
    """Run the protocol once per threshold with a shared base seed.

    Each threshold is isolated: one failing run is recorded as an error
    entry without aborting the rest of the sweep. Runs are sequential; each
    counts its own tokens even when they share one ``connector``. Each run
    directory is named after the exact threshold (``tau_-1.1``,
    ``tau_-1.05``), so a threshold may appear only once.
    """
    # Every threshold is checked, as the failure trigger of its run's
    # config, before any run starts.
    run_configs = [replace(config, failure_trigger=tau) for tau in taus]
    if len(set(taus)) != len(taus):
        raise ConfigError("sweep thresholds must be distinct")

    entries = []
    for tau, run_config in zip(taus, run_configs):
        run_dir = None
        if out_dir is not None:
            run_dir = Path(out_dir) / f"tau_{float(tau)!r}"
        try:
            result = run_protocol(run_config, run_dir=run_dir, connector=connector)
            entries.append(SweepEntry(tau=tau, summary=summarize_report(result.report.to_dict())))
        except (RunError, OSError) as exc:
            logger.warning("sweep entry tau=%s failed: %s", tau, exc)
            entries.append(SweepEntry(tau=tau, summary=None, error=str(exc)))
    return entries


def render_sweep_table(entries: list[SweepEntry]) -> str:
    lines = [
        f"failure-trigger sweep ({SD_CONVENTION})",
        f"{'tau':>8s} {'mean':>10s} {'sd':>8s} {'grad rate':>10s} {'aborts':>7s} {'artifacts':>9s}",
    ]
    for e in entries:
        if e.summary is None:
            lines.append(f"{float(e.tau)!r:>8s} {'failed: ' + (e.error or 'unknown')}")
            continue
        s = e.summary
        grad_rate = s.graduated / s.instances if s.instances else 0.0
        lines.append(
            f"{float(e.tau)!r:>8s} {s.mean_return:10.2f} {s.sd_return:8.2f} "
            f"{grad_rate:10.0%} {s.aborted_attempts:7d} {s.artifacts_created:9d}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Cross-session aggregation
# ---------------------------------------------------------------------------


@dataclass
class AggregateReport:
    groups: dict[tuple[str, str], dict]
    skipped: list[str]

    def to_dict(self) -> dict:
        return {
            "sd_convention": SD_CONVENTION,
            "groups": {
                f"{cond}/{repr_}": data for (cond, repr_), data in sorted(self.groups.items())
            },
            "skipped": self.skipped,
        }


def aggregate(session_dirs: list[str | Path]) -> AggregateReport:
    """Pool sessions by (condition, representation); skip malformed ones."""
    summaries: list[SessionSummary] = []
    skipped: list[str] = []
    for directory in session_dirs:
        try:
            summaries.append(load_session_summary(directory))
        except (OSError, ValueError, KeyError) as exc:
            logger.warning("skipping malformed session %s: %s", directory, exc)
            skipped.append(f"{directory}: {exc}")

    groups: dict[tuple[str, str], dict] = {}
    for key in sorted({(s.condition, s.representation) for s in summaries}):
        members = [s for s in summaries if (s.condition, s.representation) == key]
        pooled = [r for s in members for rs in s.eval_returns.values() for r in rs]
        distribution: dict[str, int] = {}
        for s in members:
            for bucket, count in s.graduation_distribution.items():
                distribution[bucket] = distribution.get(bucket, 0) + count
        prompt = sum(s.tokens[phase]["prompt"] for s in members for phase in s.tokens)
        completion = sum(s.tokens[phase]["completion"] for s in members for phase in s.tokens)
        groups[key] = {
            "sessions": len(members),
            "episodes": len(pooled),
            "mean_return": _mean(pooled),
            "sd_return": _sd(pooled),
            "major_failure_rate": tail_risk(pooled, MAJOR_FAILURE_THRESHOLD) if pooled else 0.0,
            "catastrophic_failure_rate": tail_risk(pooled, CATASTROPHIC_FAILURE_THRESHOLD)
            if pooled
            else 0.0,
            "graduation_distribution": distribution,
            "tokens_prompt": prompt,
            "tokens_completion": completion,
            "tokens_prompt_completion_ratio": (prompt / completion) if completion else 0.0,
            "volatility_per_instance_mean": _mean(
                [s.volatility_per_instance_mean for s in members]
            ),
            "volatility_pooled": _mean([s.volatility_pooled for s in members]),
        }
    return AggregateReport(groups=groups, skipped=skipped)


def render_aggregate_table(report: AggregateReport) -> str:
    lines = [f"cross-session aggregate ({SD_CONVENTION})"]
    header = (
        f"{'condition/repr':<22s} {'sessions':>8s} {'episodes':>8s} {'mean':>10s} {'sd':>8s} "
        f"{'<-100':>7s} {'<-150':>7s} {'prompt':>12s} {'completion':>12s} {'p/c':>6s}"
    )
    lines.append(header)
    for (cond, repr_), data in sorted(report.groups.items()):
        lines.append(
            f"{cond + '/' + repr_:<22s} {data['sessions']:>8d} {data['episodes']:>8d} "
            f"{data['mean_return']:>10.2f} {data['sd_return']:>8.2f} "
            f"{data['major_failure_rate']:>7.1%} {data['catastrophic_failure_rate']:>7.1%} "
            f"{data['tokens_prompt']:>12d} {data['tokens_completion']:>12d} "
            f"{data['tokens_prompt_completion_ratio']:>6.1f}"
        )
    staged = {
        bucket
        for data in report.groups.values()
        for bucket in data["graduation_distribution"]
        if bucket != "never"
    }
    buckets = sorted(staged, key=lambda b: int(b[1:])) + ["never"]
    lines.append("")
    lines.append("graduation stage distribution")
    lines.append(f"{'condition/repr':<22s} " + " ".join(f"{b:>6s}" for b in buckets))
    for (cond, repr_), data in sorted(report.groups.items()):
        dist = data["graduation_distribution"]
        lines.append(
            f"{cond + '/' + repr_:<22s} "
            + " ".join(f"{dist.get(b, 0):>6d}" for b in buckets)
        )
    if report.skipped:
        lines.append("")
        lines.append("skipped sessions:")
        lines.extend(f"  {s}" for s in report.skipped)
    return "\n".join(lines)
