"""Multi-seed experiments comparing training conditions on paired seeds.

``forge study`` runs :func:`run_directional_study` on the backend, sizes and
representation of a config file; each seed's runs override only
``base_seed`` and the transfer strategy.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, replace

from .protocol import Condition, ProtocolConfig, evaluate_zero_shot, run_protocol

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SeedComparison:
    base_seed: int
    forge_mean: float
    reflexion_mean: float
    zero_shot_mean: float

    @property
    def ordered(self) -> bool:
        return self.forge_mean >= self.reflexion_mean >= self.zero_shot_mean


@dataclass(frozen=True)
class DirectionalStudyResult:
    comparisons: list[SeedComparison]

    @property
    def ordering_fraction(self) -> float:
        return sum(1 for c in self.comparisons if c.ordered) / len(self.comparisons)

    @property
    def pooled_forge_mean(self) -> float:
        return statistics.fmean(c.forge_mean for c in self.comparisons)

    @property
    def pooled_reflexion_mean(self) -> float:
        return statistics.fmean(c.reflexion_mean for c in self.comparisons)

    @property
    def forge_reflexion_gap(self) -> float:
        return self.pooled_forge_mean - self.pooled_reflexion_mean


def _pooled_mean(eval_returns: dict[int, list[float]]) -> float:
    return statistics.fmean(r for rs in eval_returns.values() for r in rs)


def run_directional_study(base_seeds: list[int], config: ProtocolConfig) -> DirectionalStudyResult:
    """For each base seed, compare broadcast training, isolated training and
    the untrained agent under identical evaluation seeds."""
    comparisons = []
    for seed in base_seeds:
        forge_config = replace(config, base_seed=seed, condition=Condition.FORGE)
        reflexion_config = replace(config, base_seed=seed, condition=Condition.REFLEXION)
        forge_mean = _pooled_mean(run_protocol(forge_config).report.eval_returns)
        reflexion_mean = _pooled_mean(run_protocol(reflexion_config).report.eval_returns)
        zero_shot_mean = _pooled_mean(evaluate_zero_shot(forge_config))
        comparison = SeedComparison(
            base_seed=seed,
            forge_mean=forge_mean,
            reflexion_mean=reflexion_mean,
            zero_shot_mean=zero_shot_mean,
        )
        logger.info(
            "seed %d: broadcast %.2f, isolated %.2f, zero-shot %.2f (%s)",
            seed,
            forge_mean,
            reflexion_mean,
            zero_shot_mean,
            "ordered" if comparison.ordered else "out of order",
        )
        comparisons.append(comparison)
    return DirectionalStudyResult(comparisons=comparisons)


def render_study_table(result: DirectionalStudyResult) -> str:
    lines = [
        f"{'seed':>6s} {'broadcast':>10s} {'isolated':>10s} {'zero-shot':>10s} {'ordered':>8s}"
    ]
    for c in result.comparisons:
        lines.append(
            f"{c.base_seed:>6d} {c.forge_mean:>10.2f} {c.reflexion_mean:>10.2f} "
            f"{c.zero_shot_mean:>10.2f} {'yes' if c.ordered else 'NO':>8s}"
        )
    lines.append(
        f"ordering holds in {result.ordering_fraction:.0%} of seeds; "
        f"pooled broadcast-isolated gap {result.forge_reflexion_gap:+.2f}"
    )
    # "ordered" counts a tie as in order, so the seeds are also split by
    # strict wins, exact ties and losses.
    wins = sum(1 for c in result.comparisons if c.forge_mean > c.reflexion_mean)
    ties = sum(1 for c in result.comparisons if c.forge_mean == c.reflexion_mean)
    losses = len(result.comparisons) - wins - ties
    lines.append(f"broadcast against isolated: {wins} won, {ties} tied, {losses} lost")
    return "\n".join(lines)
