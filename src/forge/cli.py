"""Command-line entry point.

Verbs: ``run`` (config -> session directory), ``sweep`` (config + threshold
list), ``study`` (config + base seeds: broadcast vs isolated vs zero-shot),
``analyze-trigger`` (thresholds over a penalty log, by default the reference
census), ``aggregate`` (session directories), ``baselines`` (simulator
calibration episodes).

Exit codes: 0 success, 1 run failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import logging
import math
import statistics
import sys
from pathlib import Path

from . import calibration as cal
from .agents import PHASE_ADAPTATION, PHASE_EVALUATION
from .cage_lite import baseline_returns
from .experiments import render_study_table, run_directional_study
from .metrics import (
    SD_CONVENTION,
    aggregate,
    make_reference_penalty_log,
    read_penalty_log,
    render_aggregate_table,
    render_sweep_table,
    summarize_report,
    sweep_tau,
    trigger_analysis,
)
from .protocol import ConfigError, RunError, load_config, run_protocol

logger = logging.getLogger(__name__)


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    run_dir = Path(args.run_dir)
    result = run_protocol(config, run_dir=run_dir, config_source=args.config)
    summary = summarize_report(result.report.to_dict())
    print(f"session written to {run_dir}")
    print(
        f"mean return {summary.mean_return:.2f} +/- {summary.sd_return:.2f} ({SD_CONVENTION})"
    )
    print(f"graduated {summary.graduated}/{summary.instances}")
    tokens = result.report.tokens
    print(
        "tokens adaptation prompt={prompt} completion={completion}".format(**tokens[PHASE_ADAPTATION])
        + " | evaluation prompt={prompt} completion={completion}".format(**tokens[PHASE_EVALUATION])
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    entries = sweep_tau(config, args.tau, out_dir=args.out)
    print(render_sweep_table(entries))
    if any(e.summary is None for e in entries):
        return 1
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    config = load_config(args.config)
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    print(render_study_table(run_directional_study(seeds, config)))
    return 0


def _cmd_analyze_trigger(args: argparse.Namespace) -> int:
    for tau in args.tau:
        if not (math.isfinite(tau) and tau < 0):
            raise ConfigError(f"--tau must be finite and negative, got {tau}")
    if args.log is None:
        entries = make_reference_penalty_log()
    else:
        try:
            entries = read_penalty_log(args.log)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read penalty log: {exc}") from exc
    for tau in args.tau:
        analysis = trigger_analysis(entries, tau)
        print(f"threshold tau={analysis.threshold}")
        print(
            f"true triggers captured: {analysis.true_triggers_captured}"
            f" of {analysis.true_trigger_total}"
        )
        print(f"false positives: {analysis.false_positives}")
        print(f"precision: {analysis.precision:.3f}")
        print(f"recall: {analysis.recall:.3f}")
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    report = aggregate(args.sessions)
    print(render_aggregate_table(report))
    if args.out:
        import json

        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"aggregate written to {args.out}")
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be >= 1, got {args.episodes}")
    targets = {
        "sleep": cal.REFERENCE_SLEEP_RETURN,
        "random": cal.REFERENCE_RANDOM_RETURN,
        "heuristic": cal.REFERENCE_HEURISTIC_RETURN,
    }
    print(f"{args.episodes} episodes per policy, base seed {args.base_seed}")
    print(
        f"{'policy':<10s} {'mean':>10s} {'sd':>8s} {'target':>10s} {'offset':>8s}"
        f" {'window (target +/-25%)':>24s}"
    )
    for name, target in targets.items():
        returns = baseline_returns(name, args.episodes, args.base_seed)
        mean = statistics.fmean(returns)
        sd = statistics.stdev(returns) if len(returns) > 1 else 0.0
        offset = (mean - target) / abs(target)
        # Targets are negative returns, so 1.25x is the low end of the window.
        low, high = 1.25 * target, 0.75 * target
        inside = "ok" if low <= mean <= high else "OUT"
        print(
            f"{name:<10s} {mean:>10.2f} {sd:>8.2f} {target:>10.2f} {offset:>8.1%}"
            f" [{low:8.2f},{high:8.2f}] {inside:>3s}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forge", description="Population-based training of prompt-injected agent memory"
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one training session from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument(
        "--run-dir", required=True, help="session directory; must be new or empty"
    )
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run the protocol once per failure trigger")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--tau", nargs="+", required=True, type=float)
    sweep_p.add_argument("--out", default=None, help="directory for per-threshold sessions")
    sweep_p.set_defaults(func=_cmd_sweep)

    study_p = sub.add_parser(
        "study", help="broadcast vs isolated training vs zero-shot on paired base seeds"
    )
    study_p.add_argument("--config", required=True)
    study_p.add_argument("--seeds", type=int, default=20, help="number of base seeds")
    study_p.add_argument("--first-seed", type=int, default=1)
    study_p.set_defaults(func=_cmd_study)

    trig_p = sub.add_parser("analyze-trigger", help="precision/recall of trigger thresholds")
    trig_p.add_argument(
        "--log", default=None, help="penalty log file (default: the reference penalty census)"
    )
    trig_p.add_argument("--tau", nargs="+", required=True, type=float)
    trig_p.set_defaults(func=_cmd_analyze_trigger)

    agg_p = sub.add_parser("aggregate", help="pool several session directories")
    agg_p.add_argument("--sessions", nargs="+", required=True)
    agg_p.add_argument("--out", default=None, help="write the aggregate as JSON")
    agg_p.set_defaults(func=_cmd_aggregate)

    base_p = sub.add_parser("baselines", help="simulator calibration episodes")
    base_p.add_argument("--episodes", type=int, default=100)
    base_p.add_argument("--base-seed", type=int, default=2024)
    base_p.set_defaults(func=_cmd_baselines)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RunError, ValueError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
