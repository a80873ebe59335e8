from __future__ import annotations

import hashlib
import io
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge import calibration as cal
from forge import cage_lite as env
from forge.cage_lite import (
    ActionKind,
    BlueAction,
    CompromiseLevel,
    EpisodeTerminalError,
    HostCompromise,
    InvalidActionError,
    Subnet,
)

REWARD_GROUPS = "rewards must lie in {0, -1.0} U [-1.2,-1.1] U [-3.2,-2.0] U [-14,-11]"


def in_reward_groups(value: float) -> bool:
    v = round(value, 6)
    return (
        v == 0.0
        or v == -1.0
        or -1.2 <= v <= -1.1
        or -3.2 <= v <= -2.0
        or -14.0 <= v <= -11.0
    )


def set_host(episode, host, level=CompromiseLevel.CLEAN, decoy=False):
    episode.hosts[host] = HostCompromise(level=level, decoy_present=decoy)


def advance_attacker(episode):
    """Apply just the attacker's move, to probe the kill chain."""
    env._advance_attacker(episode.hosts, episode.chain, episode.rng)


def progress(episode) -> int:
    """How many kill-chain milestones the attacker holds, 0 to 9."""
    return env._progress(episode.hosts, episode.chain)


def values(episode) -> tuple:
    """Everything an episode holds, as one comparable value."""
    return tuple(episode.hosts), episode.chain, episode.step_index, episode.rng.getstate()


def started(seed):
    episode, observation = env.begin(seed)
    return values(episode), observation


class TestTopology:
    def test_thirteen_hosts_in_three_subnets(self):
        subnets = [env.subnet_of(i) for i in range(cal.HOST_COUNT)]
        assert len(subnets) == 13
        sizes = {subnet: subnets.count(subnet) for subnet in Subnet}
        assert sizes[Subnet.USER] == 7
        assert sizes[Subnet.ENTERPRISE] == 5
        assert sizes[Subnet.OPERATIONAL] == 1

    def test_target_chain_crosses_subnets(self):
        user, enterprise, op = cal.TARGET_CHAIN
        assert env.subnet_of(user) is Subnet.USER
        assert env.subnet_of(enterprise) is Subnet.ENTERPRISE
        assert env.subnet_of(op) is Subnet.OPERATIONAL


class TestReset:
    def test_initial_conditions(self):
        episode, observation = env.begin(42)
        assert all(h.level is CompromiseLevel.CLEAN for h in episode.hosts)
        assert all(not h.decoy_present for h in episode.hosts)
        assert progress(episode) == 0
        assert episode.foothold() is None
        assert episode.step_index == 0
        assert observation.step_index == 0

    def test_reset_is_bit_identical(self):
        assert started(42) == started(42)

    def test_different_seeds_diverge_under_sleep(self):
        # Oracle: run both seeds and compare the step records directly.
        a = env.run_policy_episode(env.sleep_policy, 42)
        b = env.run_policy_episode(env.sleep_policy, 43)
        assert a != b


class TestActions:
    def test_monitor_takes_no_target(self):
        with pytest.raises(InvalidActionError):
            BlueAction(ActionKind.MONITOR, 3)

    def test_targeted_kinds_require_target(self):
        with pytest.raises(InvalidActionError):
            BlueAction(ActionKind.RESTORE)

    def test_target_out_of_range(self):
        with pytest.raises(InvalidActionError):
            BlueAction(ActionKind.ANALYSE, 13)

    def test_step_after_terminal_raises(self):
        episode, _ = env.begin(1)
        episode.step_index = cal.EPISODE_LENGTH
        with pytest.raises(EpisodeTerminalError):
            env.step(episode, BlueAction(ActionKind.MONITOR))


class TestRewards:
    def test_restore_with_no_compromise_costs_one(self):
        episode, _ = env.begin(5)
        _, reward = env.step(episode, BlueAction(ActionKind.RESTORE, 0))
        assert reward == -1.0

    def test_monitor_on_clean_network_is_free(self):
        episode, _ = env.begin(5)
        _, reward = env.step(episode, BlueAction(ActionKind.MONITOR))
        assert reward == 0.0

    def test_monitor_with_op_server_rooted_is_severe(self):
        episode, _ = env.begin(5)
        user, enterprise, op = episode.chain
        for host, level in (
            (user, CompromiseLevel.ROOT_ACCESS),
            (enterprise, CompromiseLevel.ROOT_ACCESS),
            (op, CompromiseLevel.ROOT_ACCESS),
        ):
            set_host(episode, host, level)
        _, reward = env.step(episode, BlueAction(ActionKind.MONITOR))
        assert -14.0 <= reward <= -11.0

    def test_user_foothold_small_failures(self):
        episode, _ = env.begin(5)
        user = episode.chain[0]
        set_host(episode, user, CompromiseLevel.USER_ACCESS)
        assert env._reward_tenths(episode.hosts, ActionKind.MONITOR) == -11
        set_host(episode, user, CompromiseLevel.ROOT_ACCESS)
        assert env._reward_tenths(episode.hosts, ActionKind.MONITOR) == -12

    def test_reward_domain_over_random_play(self):
        for episode in range(40):
            for record in env.run_policy_episode(env.random_policy, 9_000 + episode):
                assert in_reward_groups(record.reward), REWARD_GROUPS

    @given(st.integers(min_value=0, max_value=2**32), st.data())
    @settings(max_examples=25, deadline=None)
    def test_reward_domain_property(self, seed, data):
        episode, _ = env.begin(seed)
        for _ in range(10):
            kind = data.draw(st.sampled_from(list(ActionKind)))
            target = None if kind is ActionKind.MONITOR else data.draw(st.integers(0, 12))
            _, reward = env.step(episode, BlueAction(kind, target))
            assert in_reward_groups(reward), REWARD_GROUPS


def reference_reward_tenths(hosts, action_kind) -> int:
    """The reward rule written out over per-subnet lists of compromised levels."""
    compromised = [h.level >= CompromiseLevel.USER_ACCESS for h in hosts]
    user = [hosts[h].level for h in cal.USER_HOSTS if compromised[h]]
    servers = [hosts[h].level for h in cal.ENTERPRISE_HOSTS + cal.OPERATIONAL_HOSTS if compromised[h]]
    if any(hosts[h].level == CompromiseLevel.ROOT_ACCESS for h in cal.OPERATIONAL_HOSTS):
        tenths = cal.SEVERE_BASE_TENTHS
        if any(compromised[h] for h in cal.ENTERPRISE_HOSTS):
            tenths += cal.SEVERE_ENTERPRISE_EXTRA_TENTHS
        if user:
            tenths += cal.SEVERE_USER_EXTRA_TENTHS
    elif servers:
        root = CompromiseLevel.ROOT_ACCESS in servers
        tenths = cal.MODERATE_ROOT_TENTHS if root else cal.MODERATE_BASE_TENTHS
        if user:
            tenths += cal.MODERATE_USER_EXTRA_TENTHS
    elif user:
        root = CompromiseLevel.ROOT_ACCESS in user
        tenths = cal.SMALL_ROOT_TENTHS if root else cal.SMALL_USER_LEVEL_TENTHS
    else:
        tenths = 0
    if action_kind is ActionKind.RESTORE:
        tenths += cal.RESTORE_COST_TENTHS
    return tenths


class TestRewardRule:
    @given(
        st.lists(
            st.builds(HostCompromise, st.sampled_from(CompromiseLevel), st.booleans()),
            min_size=cal.HOST_COUNT,
            max_size=cal.HOST_COUNT,
        ),
        st.sampled_from(ActionKind),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, hosts, kind):
        assert env._reward_tenths(hosts, kind) == reference_reward_tenths(hosts, kind)


def reference_observe(hosts, rng, step_index, analysed_host=None, analysed_level=None):
    """The observation as one interleaved flag list, process, connection and
    file per host, sliced three ways: the loop of earlier releases."""
    rand = rng.random
    flags: list[bool] = []
    for host in hosts:
        level = host.level
        if level >= CompromiseLevel.USER_ACCESS:
            flags += (
                rand() >= cal.OBS_FALSE_NEGATIVE_RATE,
                rand() >= cal.OBS_FALSE_NEGATIVE_RATE,
                rand() >= cal.OBS_FALSE_NEGATIVE_RATE
                if level == CompromiseLevel.ROOT_ACCESS
                else rand() < cal.OBS_FALSE_POSITIVE_RATE,
            )
        else:
            flags += (
                rand() < cal.OBS_FALSE_POSITIVE_RATE,
                rand() < cal.OBS_FALSE_POSITIVE_RATE,
                rand() < cal.OBS_FALSE_POSITIVE_RATE,
            )
    return env.Observation(
        anomalous_process=tuple(flags[0::3]),
        suspicious_connection=tuple(flags[1::3]),
        new_file=tuple(flags[2::3]),
        step_index=step_index,
        analysed_host=analysed_host,
        analysed_level=analysed_level,
    )


class TestObserveDrawOrder:
    @given(
        st.lists(
            st.tuples(st.sampled_from(CompromiseLevel), st.booleans()),
            min_size=cal.HOST_COUNT,
            max_size=cal.HOST_COUNT,
        ),
        st.integers(min_value=0, max_value=2**64),
        st.integers(0, cal.EPISODE_LENGTH),
        st.none() | st.integers(0, cal.HOST_COUNT - 1),
        st.none() | st.sampled_from(CompromiseLevel),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_and_leaves_the_same_generator_state(
        self, levels, seed, step_index, analysed_host, analysed_level
    ):
        hosts = [HostCompromise(level, decoy) for level, decoy in levels]
        rng, reference_rng = random.Random(seed), random.Random(seed)
        observation = env._observe(hosts, rng, step_index, analysed_host, analysed_level)
        expected = reference_observe(
            hosts, reference_rng, step_index, analysed_host, analysed_level
        )
        assert observation == expected
        assert rng.getstate() == reference_rng.getstate()


class TestAttacker:
    def test_discovery_advances_to_access_on_successful_scan(self):
        advanced = 0
        for seed in range(30):
            episode, _ = env.begin(seed)
            advance_attacker(episode)
            assert progress(episode) in (0, 1)
            if progress(episode) == 1:
                advanced += 1
                user = episode.chain[0]
                assert episode.hosts[user].level is CompromiseLevel.SCANNED
        assert advanced > 0

    def test_progress_advances_at_most_one_step(self):
        episode, _ = env.begin(11)
        while not episode.done:
            before = progress(episode)
            env.step(episode, BlueAction(ActionKind.MONITOR))
            assert progress(episode) - before <= 1

    def test_decoy_absorbs_attack_and_is_consumed(self):
        episode, _ = env.begin(3)
        user = episode.chain[0]
        set_host(episode, user, decoy=True)
        advance_attacker(episode)
        assert progress(episode) == 0
        assert episode.hosts[user].level is CompromiseLevel.CLEAN
        assert not episode.hosts[user].decoy_present

    def test_restore_on_foothold_strictly_regresses_progress(self):
        user, enterprise, op = cal.TARGET_CHAIN
        scenarios = [
            {user: CompromiseLevel.USER_ACCESS},
            {user: CompromiseLevel.ROOT_ACCESS},
            {user: CompromiseLevel.ROOT_ACCESS, enterprise: CompromiseLevel.ROOT_ACCESS},
            {
                user: CompromiseLevel.ROOT_ACCESS,
                enterprise: CompromiseLevel.ROOT_ACCESS,
                op: CompromiseLevel.ROOT_ACCESS,
            },
        ]
        for levels in scenarios:
            crafted, _ = env.begin(3)
            for host, level in levels.items():
                set_host(crafted, host, level)
            before, foothold = progress(crafted), crafted.foothold()
            assert foothold is not None
            env.step(crafted, BlueAction(ActionKind.RESTORE, foothold))
            assert progress(crafted) < before

    def test_remove_never_clears_root(self):
        episode, _ = env.begin(3)
        user = episode.chain[0]
        set_host(episode, user, CompromiseLevel.ROOT_ACCESS)
        for _ in range(10):
            env.step(episode, BlueAction(ActionKind.REMOVE, user))
            assert episode.hosts[user].level is CompromiseLevel.ROOT_ACCESS


class TestEpisodes:
    def test_episode_is_exactly_thirty_steps(self):
        records = env.run_policy_episode(env.sleep_policy, 7)
        assert len(records) == cal.EPISODE_LENGTH

    def test_replay_determinism(self):
        actions = [BlueAction(ActionKind.MONITOR)] * 10 + [
            BlueAction(ActionKind.ANALYSE, 6),
            BlueAction(ActionKind.RESTORE, 6),
            BlueAction(ActionKind.DECOY, 10),
        ]

        def rollout():
            episode, _ = env.begin(99)
            out = [env.step(episode, action) for action in actions]
            return out, values(episode)

        assert rollout() == rollout()

    def test_monotone_severity_under_sleep(self):
        by_progress: list[list[float]] = [[] for _ in range(10)]
        for seed in range(200):
            episode, _ = env.begin(seed + 40_000)
            while not episode.done:
                _, reward = env.step(episode, BlueAction(ActionKind.MONITOR))
                by_progress[progress(episode)].append(reward)
        assert all(by_progress), "every kill-chain progress is reached"
        means = [statistics.fmean(rewards) for rewards in by_progress]
        for earlier, later in zip(means, means[1:]):
            assert later <= earlier

    def test_baseline_ordering_quick(self):
        means = {
            name: statistics.fmean(env.baseline_returns(name, 30, base_seed=5))
            for name in ("sleep", "random", "heuristic")
        }
        assert means["sleep"] < means["random"] < means["heuristic"]

    def test_episode_return_is_exact_tenths(self):
        records = env.run_policy_episode(env.random_policy, 123)
        total = env.episode_return(records)
        assert total == round(total, 1)


class TestTrajectoryLog:
    def test_stable_field_order(self):
        records = env.run_policy_episode(env.sleep_policy, 12)[:3]
        line = env.format_step_record(records[0])
        fields = [part.split("=")[0] for part in line.split()]
        assert fields == [
            "step",
            "action",
            "target",
            "reward",
            "anomalous",
            "suspicious",
            "newfile",
        ]
        out = io.StringIO()
        env.write_trajectory(records, out, "")
        env.write_trajectory(records, out, "stage=01 attempt=02 ")
        lines = [env.format_step_record(r) for r in records]
        prefixed = [f"stage=01 attempt=02 {line}" for line in lines]
        assert out.getvalue().splitlines() == lines + prefixed

    def test_golden_monitor_line(self):
        observation = env.Observation(
            anomalous_process=tuple([False] * 13),
            suspicious_connection=tuple(i == 6 for i in range(13)),
            new_file=tuple([False] * 13),
            step_index=3,
        )
        record = env.StepRecord(
            action=BlueAction(ActionKind.RESTORE, 6), reward=-1.0, observation=observation
        )
        assert env.format_step_record(record) == (
            "step=03 action=Restore target=6 reward=-1.0"
            " anomalous=0000000000000 suspicious=0000001000000 newfile=0000000000000"
        )


def _host_levels(hosts) -> list[tuple[int, bool]]:
    return [(int(h.level), h.decoy_present) for h in hosts]


# The attack phase of each kill-chain progress, as earlier releases named it
# (discovery, access, lateral movement, escalation, op-server root): the
# attacker digest below hashes it.
_PHASE_BY_PROGRESS = (0, 1, 1, 1, 2, 2, 2, 3, 3, 4)


class TestRandomStream:
    """Pins the simulator's random stream to the values of earlier releases.

    The expected digests are never re-pinned; an equal digest shows the draws
    and their order are unchanged.
    """

    def test_heuristic_trajectory_digest(self):
        digest = hashlib.sha256()
        episode, observation = env.begin(20240517)
        for _ in range(cal.EPISODE_LENGTH):
            action = env.heuristic_policy(observation, random.Random(0))
            observation, reward = env.step(episode, action)
            record = env.StepRecord(action=action, reward=reward, observation=observation)
            level = observation.analysed_level
            digest.update(
                f"{env.format_step_record(record)}"
                f" analysed={observation.analysed_host}:{None if level is None else int(level)}\n"
                .encode()
            )
        digest.update(repr((_host_levels(episode.hosts), episode.rng.getstate())).encode())
        assert episode.done
        assert digest.hexdigest() == (
            "fb4ea49a3681197c16de1d377a06c85d29c60014a264c570745ee6439fa454b7"
        )

    def test_attacker_transition_digest(self):
        digest = hashlib.sha256()
        episode, _ = env.begin(4242)
        for _ in range(12):
            advance_attacker(episode)
            phase = _PHASE_BY_PROGRESS[progress(episode)]
            digest.update(
                repr((_host_levels(episode.hosts), phase, episode.rng.getstate())).encode()
            )
        assert digest.hexdigest() == (
            "2e9295c399772da3120975bcc7b719a70626ae39ee1983e0da7e181ff2cdb8f1"
        )


class TestPerStepValues:
    """The values a step hands out are immutable, and actions come from one table."""

    def test_observation_and_step_record_fields_cannot_be_assigned(self):
        _, observation = env.begin(3)
        record = env.StepRecord(BlueAction(ActionKind.MONITOR), 0.0, observation)
        with pytest.raises(AttributeError):
            observation.step_index = 5
        with pytest.raises(AttributeError):
            observation.analysed_host = 1
        with pytest.raises(AttributeError):
            record.reward = -1.0
        with pytest.raises(AttributeError):
            record.observation = observation

    @pytest.mark.parametrize("host", range(cal.HOST_COUNT))
    def test_heuristic_actions_equal_new_actions(self, host):
        falses = (False,) * cal.HOST_COUNT
        flagged = tuple(h == host for h in range(cal.HOST_COUNT))
        confirmed = env.Observation(falses, falses, falses, 1, host, CompromiseLevel.ROOT_ACCESS)
        analysed = env.Observation(falses, flagged, falses, 1)
        quiet = env.Observation(falses, falses, falses, 1)
        assert env.heuristic_policy(confirmed, None) == BlueAction(ActionKind.RESTORE, host)
        assert env.heuristic_policy(analysed, None) == BlueAction(ActionKind.ANALYSE, host)
        assert env.heuristic_policy(quiet, None) == BlueAction(ActionKind.MONITOR)

    def test_lookup_action_covers_every_valid_action_and_validates_the_rest(self):
        for kind in ActionKind:
            targets = [None] if kind is ActionKind.MONITOR else range(cal.HOST_COUNT)
            for target in targets:
                assert env.lookup_action(kind.value, target) == BlueAction(kind, target)
        with pytest.raises(InvalidActionError):
            env.lookup_action("Restore", cal.HOST_COUNT)
        with pytest.raises(InvalidActionError):
            env.lookup_action("Monitor", 3)
        with pytest.raises(ValueError):
            env.lookup_action("Reboot", 3)


class TestEpisode:
    """Stepping a finished episode or a non-action fails and changes nothing."""

    def test_done_episode_raises_terminal(self):
        episode, _ = env.begin(8)
        for _ in range(cal.EPISODE_LENGTH):
            env.step(episode, BlueAction(ActionKind.MONITOR))
        assert episode.done
        final = values(episode)
        with pytest.raises(EpisodeTerminalError):
            env.step(episode, BlueAction(ActionKind.MONITOR))
        assert values(episode) == final

    def test_non_action_raises_invalid_action(self):
        episode, _ = env.begin(8)
        before = values(episode)
        with pytest.raises(InvalidActionError):
            env.step(episode, "Monitor")
        assert values(episode) == before
