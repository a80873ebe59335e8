"""Seedable cyber-defense POMDP simulator ("CageLite").

A blue defender protects a 13-host enterprise network over a 30-step episode
against a scripted kill-chain attacker. The defender only sees noisy per-host
indicator flags; the true compromise state stays hidden. Per-step rewards are
non-positive and fall into the calibrated penalty groups documented in
:mod:`forge.calibration`.

An episode is driven in place: ``begin`` returns an :class:`Episode` that
owns one live generator, and ``Episode.step`` advances it. ``reset`` and
``step`` stay pure functions from state value to state value, carrying the
RNG state along; both wrap the same transition, so episodes replay
bit-identically from ``(seed, action sequence)`` either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import calibration as cal
from .seeding import derive_seed


class Subnet(Enum):
    USER = "user"
    ENTERPRISE = "enterprise"
    OPERATIONAL = "operational"


class CompromiseLevel(IntEnum):
    CLEAN = 0
    SCANNED = 1
    USER_ACCESS = 2
    ROOT_ACCESS = 3


class AttackPhase(IntEnum):
    DISCOVERY = 0
    ACCESS = 1
    LATERAL_MOVEMENT = 2
    ESCALATION = 3
    OP_SERVER_ROOT = 4


class ActionKind(Enum):
    MONITOR = "Monitor"
    ANALYSE = "Analyse"
    REMOVE = "Remove"
    RESTORE = "Restore"
    DECOY = "Decoy"


class InvalidActionError(ValueError):
    """Raised for a malformed action (bad target, target on Monitor, ...)."""


class EpisodeTerminalError(RuntimeError):
    """Raised when stepping an episode that has already ended."""


def subnet_of(index: int) -> Subnet:
    if index in cal.USER_HOSTS:
        return Subnet.USER
    if index in cal.ENTERPRISE_HOSTS:
        return Subnet.ENTERPRISE
    if index in cal.OPERATIONAL_HOSTS:
        return Subnet.OPERATIONAL
    raise InvalidActionError(f"host index out of range: {index}")


@dataclass(frozen=True, slots=True)
class HostCompromise:
    level: CompromiseLevel = CompromiseLevel.CLEAN
    decoy_present: bool = False


# Every HostCompromise value the simulator builds comes from this table, so a
# step allocates no host objects.
_HOST_VALUES = {
    (level, decoy): HostCompromise(level, decoy)
    for level in CompromiseLevel
    for decoy in (False, True)
}
_CLEAN = _HOST_VALUES[CompromiseLevel.CLEAN, False]


@dataclass(frozen=True, slots=True)
class AttackerState:
    phase: AttackPhase
    foothold: int | None
    target_chain: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class BlueAction:
    kind: ActionKind
    target: int | None = None

    def __post_init__(self) -> None:
        if self.kind is ActionKind.MONITOR:
            if self.target is not None:
                raise InvalidActionError("Monitor takes no target")
        else:
            if self.target is None:
                raise InvalidActionError(f"{self.kind.value} requires a target host")
            if not 0 <= self.target < cal.HOST_COUNT:
                raise InvalidActionError(f"target host out of range: {self.target}")

    def __str__(self) -> str:
        if self.target is None:
            return self.kind.value
        return f"{self.kind.value} {self.target}"


@dataclass(frozen=True, slots=True)
class Observation:
    """Noisy per-host indicator flags, plus the result of an Analyse action.

    ``analysed_host`` is set on the step after an Analyse; ``analysed_level``
    is the true compromise level of that host, or None when the inspection
    was inconclusive.
    """

    anomalous_process: tuple[bool, ...]
    suspicious_connection: tuple[bool, ...]
    new_file: tuple[bool, ...]
    step_index: int
    analysed_host: int | None = None
    analysed_level: CompromiseLevel | None = None

    def flags(self, host: int) -> tuple[bool, bool, bool]:
        return (
            self.anomalous_process[host],
            self.suspicious_connection[host],
            self.new_file[host],
        )

    def flagged_hosts(self) -> list[int]:
        flags = zip(self.anomalous_process, self.suspicious_connection, self.new_file)
        return [h for h, (a, s, n) in enumerate(flags) if a or s or n]

    def confirmed_host(self) -> int | None:
        """The analysed host, if the inspection found at least user access."""
        level = self.analysed_level
        if level is not None and level >= CompromiseLevel.USER_ACCESS:
            return self.analysed_host
        return None


@dataclass(frozen=True, slots=True)
class StepRecord:
    action: BlueAction
    reward: float
    observation: Observation


@dataclass(frozen=True, slots=True)
class EnvState:
    hosts: tuple[HostCompromise, ...]
    attacker: AttackerState
    step: int
    rng_state: tuple


# Kill-chain milestones: the attacker works down this list, one operation
# attempt per step. Progress is *derived* from host state, so remediation
# on a chain host automatically knocks the attacker back.
_MILESTONES: tuple[tuple[int, CompromiseLevel], ...] = (
    (0, CompromiseLevel.SCANNED),
    (0, CompromiseLevel.USER_ACCESS),
    (0, CompromiseLevel.ROOT_ACCESS),
    (1, CompromiseLevel.SCANNED),
    (1, CompromiseLevel.USER_ACCESS),
    (1, CompromiseLevel.ROOT_ACCESS),
    (2, CompromiseLevel.SCANNED),
    (2, CompromiseLevel.USER_ACCESS),
    (2, CompromiseLevel.ROOT_ACCESS),
)

_PHASE_BY_PROGRESS: tuple[AttackPhase, ...] = (
    AttackPhase.DISCOVERY,
    AttackPhase.ACCESS,
    AttackPhase.ACCESS,
    AttackPhase.ACCESS,
    AttackPhase.LATERAL_MOVEMENT,
    AttackPhase.LATERAL_MOVEMENT,
    AttackPhase.LATERAL_MOVEMENT,
    AttackPhase.ESCALATION,
    AttackPhase.ESCALATION,
    AttackPhase.OP_SERVER_ROOT,
)


def _progress(hosts: Sequence[HostCompromise], chain: tuple[int, ...]) -> int:
    for i, (slot, needed) in enumerate(_MILESTONES):
        if hosts[chain[slot]].level < needed:
            return i
    return len(_MILESTONES)


def _foothold(hosts: Sequence[HostCompromise], chain: tuple[int, ...]) -> int | None:
    for host in reversed(chain):
        if hosts[host].level >= CompromiseLevel.USER_ACCESS:
            return host
    return None


def _attacker_view(hosts: tuple[HostCompromise, ...], chain: tuple[int, ...]) -> AttackerState:
    progress = _progress(hosts, chain)
    return AttackerState(
        phase=_PHASE_BY_PROGRESS[progress],
        foothold=_foothold(hosts, chain),
        target_chain=chain,
    )


def _advance_attacker(
    hosts: list[HostCompromise], chain: tuple[int, ...], rng: random.Random
) -> None:
    """Attempt the next kill-chain operation, mutating ``hosts`` in place.

    A decoy on the operation's target absorbs the attempt (and is consumed);
    otherwise the operation succeeds with the calibrated probability and the
    target host moves to the milestone's compromise level.
    """
    progress = _progress(hosts, chain)
    if progress >= len(_MILESTONES):
        return
    slot, level = _MILESTONES[progress]
    target = chain[slot]
    if hosts[target].decoy_present:
        hosts[target] = _HOST_VALUES[hosts[target].level, False]
        return
    success = cal.OP_SERVER_ATTACK_SUCCESS_PROB if slot == 2 else cal.ATTACK_SUCCESS_PROB
    if rng.random() < success:
        hosts[target] = _HOST_VALUES[level, False]


def _reward_tenths(hosts: Sequence[HostCompromise], action_kind: ActionKind) -> int:
    user = max([hosts[h].level for h in cal.USER_HOSTS])
    enterprise = max([hosts[h].level for h in cal.ENTERPRISE_HOSTS])
    operational = max([hosts[h].level for h in cal.OPERATIONAL_HOSTS])
    server = max(enterprise, operational)
    user_compromised = user >= CompromiseLevel.USER_ACCESS

    if operational == CompromiseLevel.ROOT_ACCESS:
        tenths = cal.SEVERE_BASE_TENTHS
        if enterprise >= CompromiseLevel.USER_ACCESS:
            tenths += cal.SEVERE_ENTERPRISE_EXTRA_TENTHS
        if user_compromised:
            tenths += cal.SEVERE_USER_EXTRA_TENTHS
    elif server >= CompromiseLevel.USER_ACCESS:
        if server == CompromiseLevel.ROOT_ACCESS:
            tenths = cal.MODERATE_ROOT_TENTHS
        else:
            tenths = cal.MODERATE_BASE_TENTHS
        if user_compromised:
            tenths += cal.MODERATE_USER_EXTRA_TENTHS
    elif user_compromised:
        if user == CompromiseLevel.ROOT_ACCESS:
            tenths = cal.SMALL_ROOT_TENTHS
        else:
            tenths = cal.SMALL_USER_LEVEL_TENTHS
    else:
        tenths = 0

    if action_kind is ActionKind.RESTORE:
        tenths += cal.RESTORE_COST_TENTHS
    return tenths


def _observe(
    hosts: Sequence[HostCompromise],
    rng: random.Random,
    step_index: int,
    analysed_host: int | None = None,
    analysed_level: CompromiseLevel | None = None,
) -> Observation:
    """Three noise draws per host, in host order: process, connection, file.

    A compromised host shows the process and connection flags unless the
    draw is a false negative; only root access shows the new-file flag.
    """
    rand = rng.random
    false_negative = cal.OBS_FALSE_NEGATIVE_RATE
    false_positive = cal.OBS_FALSE_POSITIVE_RATE
    user_access, root_access = CompromiseLevel.USER_ACCESS, CompromiseLevel.ROOT_ACCESS
    flags: list[bool] = []
    for host in hosts:
        level = host.level
        # A tuple display evaluates left to right, so the draws stay in order.
        if level >= user_access:
            flags += (
                rand() >= false_negative,
                rand() >= false_negative,
                rand() >= false_negative if level == root_access else rand() < false_positive,
            )
        else:
            flags += (rand() < false_positive, rand() < false_positive, rand() < false_positive)
    return Observation(
        anomalous_process=tuple(flags[0::3]),
        suspicious_connection=tuple(flags[1::3]),
        new_file=tuple(flags[2::3]),
        step_index=step_index,
        analysed_host=analysed_host,
        analysed_level=analysed_level,
    )


def _resume_rng(rng_state: tuple) -> random.Random:
    """A generator continuing the stream saved in ``rng_state``.

    ``random.Random()`` would seed itself from OS entropy only for
    ``setstate`` to overwrite it; allocating without ``__init__`` skips that.
    """
    rng = random.Random.__new__(random.Random)
    rng.setstate(rng_state)
    return rng


class Episode:
    """One episode in progress, stepped in place with one live generator.

    ``step`` applies a blue action, advances the attacker once and scores
    the step. Draw order is fixed (action effect, attacker operation,
    observation noise) so replays are deterministic. ``state`` snapshots the
    episode as an :class:`EnvState`; ``resume`` continues one.
    """

    __slots__ = ("hosts", "chain", "step_index", "rng")

    def __init__(
        self,
        hosts: list[HostCompromise],
        chain: tuple[int, ...],
        step_index: int,
        rng: random.Random,
    ):
        self.hosts = hosts
        self.chain = chain
        self.step_index = step_index
        self.rng = rng

    @classmethod
    def resume(cls, state: EnvState) -> "Episode":
        return cls(
            list(state.hosts), state.attacker.target_chain, state.step, _resume_rng(state.rng_state)
        )

    @property
    def done(self) -> bool:
        return self.step_index >= cal.EPISODE_LENGTH

    def state(self) -> EnvState:
        hosts = tuple(self.hosts)
        return EnvState(
            hosts=hosts,
            attacker=_attacker_view(hosts, self.chain),
            step=self.step_index,
            rng_state=self.rng.getstate(),
        )

    def step(self, action: BlueAction) -> tuple[Observation, float]:
        if self.done:
            raise EpisodeTerminalError(f"episode already ended at step {self.step_index}")
        if not isinstance(action, BlueAction):
            raise InvalidActionError(f"not a BlueAction: {action!r}")

        hosts, rng = self.hosts, self.rng
        kind, target = action.kind, action.target
        analysed_host: int | None = None
        reveal = False
        attacker_stunned = False

        if kind is ActionKind.ANALYSE:
            analysed_host = target
            reveal = rng.random() < cal.ANALYSE_REVEAL_PROB
        elif kind is ActionKind.REMOVE:
            host = hosts[target]
            if host.level == CompromiseLevel.USER_ACCESS and rng.random() < cal.REMOVE_SUCCESS_PROB:
                hosts[target] = _HOST_VALUES[CompromiseLevel.CLEAN, host.decoy_present]
        elif kind is ActionKind.RESTORE:
            # Reimaging the host the attacker operates from costs it this
            # step's operation on top of the lost milestones.
            attacker_stunned = target == _foothold(hosts, self.chain)
            hosts[target] = _CLEAN
        elif kind is ActionKind.DECOY:
            hosts[target] = _HOST_VALUES[hosts[target].level, True]

        if not attacker_stunned:
            _advance_attacker(hosts, self.chain, rng)

        self.step_index += 1
        reward_tenths = _reward_tenths(hosts, kind)
        observation = _observe(
            hosts,
            rng,
            step_index=self.step_index,
            analysed_host=analysed_host,
            analysed_level=hosts[target].level if reveal else None,
        )
        return observation, reward_tenths / 10.0


def begin(seed: int) -> tuple[Episode, Observation]:
    """Start a fresh episode. Identical seeds replay bit-identically."""
    rng = random.Random(seed)
    hosts = [_CLEAN] * cal.HOST_COUNT
    observation = _observe(hosts, rng, step_index=0)
    return Episode(hosts, cal.TARGET_CHAIN, 0, rng), observation


def reset(seed: int) -> tuple[EnvState, Observation]:
    """:func:`begin` as a state value."""
    episode, observation = begin(seed)
    return episode.state(), observation


def is_terminal(state: EnvState) -> bool:
    return state.step >= cal.EPISODE_LENGTH


def step(state: EnvState, action: BlueAction) -> tuple[EnvState, Observation, float]:
    """:meth:`Episode.step` as a pure function; ``state`` is left unchanged."""
    episode = Episode.resume(state)
    observation, reward = episode.step(action)
    return episode.state(), observation, reward


def attacker_transition(state: EnvState) -> EnvState:
    """Apply just the attacker's move (used by tests to probe the kill chain)."""
    episode = Episode.resume(state)
    _advance_attacker(episode.hosts, episode.chain, episode.rng)
    return episode.state()


def episode_return(records: Iterable[StepRecord]) -> float:
    # Rewards are exact tenths; rounding the float sum restores exactness.
    return round(sum(r.reward for r in records), 1)


def deepest_compromised_chain_host(state: EnvState) -> int | None:
    """The attacker's furthest compromised pivot, i.e. the failure's culprit."""
    return _foothold(state.hosts, state.attacker.target_chain)


# ---------------------------------------------------------------------------
# Baseline policies used for calibration.
# ---------------------------------------------------------------------------

Policy = Callable[[Observation, random.Random], BlueAction]

_ALL_ACTIONS: tuple[BlueAction, ...] = (BlueAction(ActionKind.MONITOR),) + tuple(
    BlueAction(kind, host)
    for kind in (ActionKind.ANALYSE, ActionKind.REMOVE, ActionKind.RESTORE, ActionKind.DECOY)
    for host in range(cal.HOST_COUNT)
)


def sleep_policy(observation: Observation, rng: random.Random) -> BlueAction:
    return BlueAction(ActionKind.MONITOR)


def random_policy(observation: Observation, rng: random.Random) -> BlueAction:
    return _ALL_ACTIONS[rng.randrange(len(_ALL_ACTIONS))]


def heuristic_policy(observation: Observation, rng: random.Random | None) -> BlueAction:
    """Analyse flagged hosts, Restore hosts whose compromise was confirmed.

    Triage is naive: flagged hosts are inspected in index order, so false
    positives on low-index workstations routinely delay the inspection of
    the servers that actually matter.
    """
    confirmed = observation.confirmed_host()
    if confirmed is not None:
        return BlueAction(ActionKind.RESTORE, confirmed)
    flagged = observation.flagged_hosts()
    if flagged:
        return BlueAction(ActionKind.ANALYSE, flagged[0])
    return BlueAction(ActionKind.MONITOR)


BASELINE_POLICIES: dict[str, Policy] = {
    "sleep": sleep_policy,
    "random": random_policy,
    "heuristic": heuristic_policy,
}


def run_policy_episode(policy: Policy, seed: int) -> list[StepRecord]:
    episode, observation = begin(seed)
    policy_rng = random.Random(derive_seed(seed, "policy"))
    records: list[StepRecord] = []
    while not episode.done:
        action = policy(observation, policy_rng)
        observation, reward = episode.step(action)
        records.append(StepRecord(action=action, reward=reward, observation=observation))
    return records


def baseline_returns(policy_name: str, episodes: int, base_seed: int) -> list[float]:
    policy = BASELINE_POLICIES[policy_name]
    return [
        episode_return(run_policy_episode(policy, derive_seed(base_seed, policy_name, i)))
        for i in range(episodes)
    ]


# ---------------------------------------------------------------------------
# Trajectory log: one line per step, stable field order.
# ---------------------------------------------------------------------------


def _bits(flags: tuple[bool, ...]) -> str:
    return "".join("1" if f else "0" for f in flags)


def format_step_record(record: StepRecord) -> str:
    obs = record.observation
    target = "-" if record.action.target is None else str(record.action.target)
    return (
        f"step={obs.step_index:02d}"
        f" action={record.action.kind.value}"
        f" target={target}"
        f" reward={record.reward:.1f}"
        f" anomalous={_bits(obs.anomalous_process)}"
        f" suspicious={_bits(obs.suspicious_connection)}"
        f" newfile={_bits(obs.new_file)}"
    )


def write_trajectory(records: Iterable[StepRecord], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [format_step_record(r) for r in records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
