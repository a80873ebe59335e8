"""Seedable cyber-defense POMDP simulator ("CageLite").

A blue defender protects a 13-host enterprise network over a 30-step episode
against a scripted kill-chain attacker. The defender only sees noisy per-host
indicator flags; the true compromise state stays hidden. Per-step rewards are
non-positive and fall into the calibrated penalty groups documented in
:mod:`forge.calibration`.

An episode is driven in place: ``begin`` returns an :class:`Episode` that
owns one live generator, and ``step(episode, action)`` advances it. This is
the simulator's one transition, so episodes replay bit-identically from
``(seed, action sequence)``. ``Episode.foothold`` names the host the attacker
operates from, which a failure snapshot records as its failing host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

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


class ActionKind(Enum):
    MONITOR = "Monitor"
    ANALYSE = "Analyse"
    REMOVE = "Remove"
    RESTORE = "Restore"
    DECOY = "Decoy"


# The members ``step`` and its helpers compare against, bound once: a module
# global loads several times faster than an enum class attribute.
_USER_ACCESS, _ROOT_ACCESS = CompromiseLevel.USER_ACCESS, CompromiseLevel.ROOT_ACCESS
_ANALYSE, _REMOVE = ActionKind.ANALYSE, ActionKind.REMOVE
_RESTORE, _DECOY = ActionKind.RESTORE, ActionKind.DECOY


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


# Every HostCompromise value the simulator builds comes from this table,
# indexed ``[level][decoy]``, so a step allocates no host objects and hashes
# no enum.
_HOST_VALUES: tuple[tuple[HostCompromise, HostCompromise], ...] = tuple(
    (HostCompromise(level, False), HostCompromise(level, True)) for level in CompromiseLevel
)
_CLEAN_BY_DECOY = _HOST_VALUES[CompromiseLevel.CLEAN]
_CLEAN = _CLEAN_BY_DECOY[False]


def _subnet_slice(hosts: tuple[int, ...]) -> slice:
    if hosts != tuple(range(hosts[0], hosts[-1] + 1)):
        raise ValueError(f"subnet hosts must be contiguous: {hosts}")
    return slice(hosts[0], hosts[-1] + 1)


# Per-subnet slices of the host list, for ``_reward_tenths``.
_USER_SLICE = _subnet_slice(cal.USER_HOSTS)
_ENTERPRISE_SLICE = _subnet_slice(cal.ENTERPRISE_HOSTS)
_OPERATIONAL_SLICE = _subnet_slice(cal.OPERATIONAL_HOSTS)


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


class Observation(NamedTuple):
    """Noisy per-host indicator flags, plus the result of an Analyse action.

    ``analysed_host`` is set on the step after an Analyse; ``analysed_level``
    is the true compromise level of that host, or None when the inspection
    was inconclusive. A named tuple: immutable, and cheaper to build per step
    than a frozen dataclass.
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

    def first_flagged_host(self) -> int | None:
        """The lowest host showing any flag; the scan stops there."""
        flags = zip(self.anomalous_process, self.suspicious_connection, self.new_file)
        for host, (a, s, n) in enumerate(flags):
            if a or s or n:
                return host
        return None

    def confirmed_host(self) -> int | None:
        """The analysed host, if the inspection found at least user access."""
        level = self.analysed_level
        if level is not None and level >= _USER_ACCESS:
            return self.analysed_host
        return None


class StepRecord(NamedTuple):
    action: BlueAction
    reward: float
    observation: Observation


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


def _progress(hosts: Sequence[HostCompromise], chain: tuple[int, ...]) -> int:
    for i, (slot, needed) in enumerate(_MILESTONES):
        if hosts[chain[slot]].level < needed:
            return i
    return len(_MILESTONES)


def _foothold(hosts: Sequence[HostCompromise], chain: tuple[int, ...]) -> int | None:
    for host in reversed(chain):
        if hosts[host].level >= _USER_ACCESS:
            return host
    return None


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
        hosts[target] = _HOST_VALUES[hosts[target].level][False]
        return
    success = cal.OP_SERVER_ATTACK_SUCCESS_PROB if slot == 2 else cal.ATTACK_SUCCESS_PROB
    if rng.random() < success:
        hosts[target] = _HOST_VALUES[level][False]


def _reward_tenths(hosts: Sequence[HostCompromise], action_kind: ActionKind) -> int:
    levels = [h.level for h in hosts]
    user = max(levels[_USER_SLICE])
    enterprise = max(levels[_ENTERPRISE_SLICE])
    operational = max(levels[_OPERATIONAL_SLICE])
    server = max(enterprise, operational)
    user_compromised = user >= _USER_ACCESS

    if operational == _ROOT_ACCESS:
        tenths = cal.SEVERE_BASE_TENTHS
        if enterprise >= _USER_ACCESS:
            tenths += cal.SEVERE_ENTERPRISE_EXTRA_TENTHS
        if user_compromised:
            tenths += cal.SEVERE_USER_EXTRA_TENTHS
    elif server >= _USER_ACCESS:
        if server == _ROOT_ACCESS:
            tenths = cal.MODERATE_ROOT_TENTHS
        else:
            tenths = cal.MODERATE_BASE_TENTHS
        if user_compromised:
            tenths += cal.MODERATE_USER_EXTRA_TENTHS
    elif user_compromised:
        if user == _ROOT_ACCESS:
            tenths = cal.SMALL_ROOT_TENTHS
        else:
            tenths = cal.SMALL_USER_LEVEL_TENTHS
    else:
        tenths = 0

    if action_kind is _RESTORE:
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
    user_access, root_access = _USER_ACCESS, _ROOT_ACCESS
    anomalous: list[bool] = []
    suspicious: list[bool] = []
    new_file: list[bool] = []
    add_anomalous, add_suspicious, add_new_file = (
        anomalous.append, suspicious.append, new_file.append
    )
    for host in hosts:
        level = host.level
        if level >= user_access:
            add_anomalous(rand() >= false_negative)
            add_suspicious(rand() >= false_negative)
            if level == root_access:
                add_new_file(rand() >= false_negative)
            else:
                add_new_file(rand() < false_positive)
        else:
            add_anomalous(rand() < false_positive)
            add_suspicious(rand() < false_positive)
            add_new_file(rand() < false_positive)
    return Observation(
        tuple(anomalous),
        tuple(suspicious),
        tuple(new_file),
        step_index,
        analysed_host,
        analysed_level,
    )


class Episode:
    """One episode in progress, stepped in place by :func:`step` with one live generator."""

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

    @property
    def done(self) -> bool:
        return self.step_index >= cal.EPISODE_LENGTH

    def foothold(self) -> int | None:
        """The attacker's furthest compromised chain host, or None."""
        return _foothold(self.hosts, self.chain)


def begin(seed: int) -> tuple[Episode, Observation]:
    """Start a fresh episode. Identical seeds replay bit-identically."""
    rng = random.Random(seed)
    hosts = [_CLEAN] * cal.HOST_COUNT
    observation = _observe(hosts, rng, step_index=0)
    return Episode(hosts, cal.TARGET_CHAIN, 0, rng), observation


def step(episode: Episode, action: BlueAction) -> tuple[Observation, float]:
    """Apply a blue action to ``episode`` in place, advance the attacker once
    and score the step.

    Draw order is fixed (action effect, attacker operation, observation
    noise) so replays are deterministic. Both errors are raised before any
    change to the episode.
    """
    if episode.done:
        raise EpisodeTerminalError(f"episode already ended at step {episode.step_index}")
    if not isinstance(action, BlueAction):
        raise InvalidActionError(f"not a BlueAction: {action!r}")

    hosts, rng = episode.hosts, episode.rng
    kind, target = action.kind, action.target
    analysed_host: int | None = None
    reveal = False
    attacker_stunned = False

    if kind is _ANALYSE:
        analysed_host = target
        reveal = rng.random() < cal.ANALYSE_REVEAL_PROB
    elif kind is _REMOVE:
        host = hosts[target]
        if host.level == _USER_ACCESS and rng.random() < cal.REMOVE_SUCCESS_PROB:
            hosts[target] = _CLEAN_BY_DECOY[host.decoy_present]
    elif kind is _RESTORE:
        # Reimaging the host the attacker operates from costs it this
        # step's operation on top of the lost milestones.
        attacker_stunned = target == _foothold(hosts, episode.chain)
        hosts[target] = _CLEAN
    elif kind is _DECOY:
        hosts[target] = _HOST_VALUES[hosts[target].level][True]

    if not attacker_stunned:
        _advance_attacker(hosts, episode.chain, rng)

    episode.step_index += 1
    reward_tenths = _reward_tenths(hosts, kind)
    observation = _observe(
        hosts, rng, episode.step_index, analysed_host, hosts[target].level if reveal else None
    )
    return observation, reward_tenths / 10.0


def episode_return(records: Iterable[StepRecord]) -> float:
    # Rewards are exact tenths; rounding the float sum restores exactness.
    return round(sum(r.reward for r in records), 1)


# ---------------------------------------------------------------------------
# Baseline policies used for calibration.
# ---------------------------------------------------------------------------

Policy = Callable[[Observation, random.Random], BlueAction]

_ALL_ACTIONS: tuple[BlueAction, ...] = (BlueAction(ActionKind.MONITOR),) + tuple(
    BlueAction(kind, host)
    for kind in (ActionKind.ANALYSE, ActionKind.REMOVE, ActionKind.RESTORE, ActionKind.DECOY)
    for host in range(cal.HOST_COUNT)
)

# The valid actions by (kind name, target), built once: policies and the LLM
# agent's answer parser hand out these values instead of building and
# validating a new action per step.
VALID_ACTIONS: dict[tuple[str, int | None], BlueAction] = {
    (action.kind.value, action.target): action for action in _ALL_ACTIONS
}


def lookup_action(kind: str, target: int | None = None) -> BlueAction:
    """The action ``kind target`` from the table of valid actions.

    A pair not in the table is built as a :class:`BlueAction`, so it is
    validated as before: ``InvalidActionError`` for a bad target, and
    ``ValueError`` for an unknown kind.
    """
    action = VALID_ACTIONS.get((kind, target))
    return action if action is not None else BlueAction(ActionKind(kind), target)


def sleep_policy(observation: Observation, rng: random.Random) -> BlueAction:
    return lookup_action("Monitor")


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
        return lookup_action("Restore", confirmed)
    host = observation.first_flagged_host()
    if host is not None:
        return lookup_action("Analyse", host)
    return lookup_action("Monitor")


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
        observation, reward = step(episode, action)
        records.append(StepRecord(action, reward, observation))
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


# ``bytes(flags)`` holds 0 or 1 per flag; this maps them to "0" and "1".
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bits(flags: tuple[bool, ...]) -> str:
    return bytes(flags).translate(_BIT_DIGITS).decode("ascii")


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


def write_trajectory(records: Iterable[StepRecord], out: TextIO, prefix: str) -> None:
    """Write one line per step record to ``out``, each led by ``prefix``."""
    out.writelines(f"{prefix}{format_step_record(r)}\n" for r in records)
