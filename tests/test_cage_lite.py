from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge import calibration as cal
from forge import cage_lite as env
from forge.cage_lite import (
    ActionKind,
    AttackPhase,
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


def set_host(state, host, level=CompromiseLevel.CLEAN, decoy=False):
    hosts = list(state.hosts)
    hosts[host] = HostCompromise(level=level, decoy_present=decoy)
    hosts = tuple(hosts)
    return replace(
        state, hosts=hosts, attacker=env._attacker_view(hosts, state.attacker.target_chain)
    )


class TestTopology:
    def test_thirteen_hosts_in_three_subnets(self):
        assert len(env.HOSTS) == 13
        sizes = {
            subnet: sum(1 for h in env.HOSTS if h.subnet is subnet) for subnet in Subnet
        }
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
        state, observation = env.reset(42)
        assert all(h.level is CompromiseLevel.CLEAN for h in state.hosts)
        assert all(not h.decoy_present for h in state.hosts)
        assert state.attacker.phase is AttackPhase.DISCOVERY
        assert state.attacker.foothold is None
        assert state.step == 0
        assert observation.step_index == 0

    def test_reset_is_bit_identical(self):
        assert env.reset(42) == env.reset(42)

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
        state, _ = env.reset(1)
        state = replace(state, step=cal.EPISODE_LENGTH)
        with pytest.raises(EpisodeTerminalError):
            env.step(state, BlueAction(ActionKind.MONITOR))


class TestRewards:
    def test_restore_with_no_compromise_costs_one(self):
        state, _ = env.reset(5)
        _, _, reward = env.step(state, BlueAction(ActionKind.RESTORE, 0))
        assert reward == -1.0

    def test_monitor_on_clean_network_is_free(self):
        state, _ = env.reset(5)
        _, _, reward = env.step(state, BlueAction(ActionKind.MONITOR))
        assert reward == 0.0

    def test_monitor_with_op_server_rooted_is_severe(self):
        state, _ = env.reset(5)
        user, enterprise, op = state.attacker.target_chain
        for host, level in (
            (user, CompromiseLevel.ROOT_ACCESS),
            (enterprise, CompromiseLevel.ROOT_ACCESS),
            (op, CompromiseLevel.ROOT_ACCESS),
        ):
            state = set_host(state, host, level)
        _, _, reward = env.step(state, BlueAction(ActionKind.MONITOR))
        assert -14.0 <= reward <= -11.0

    def test_user_foothold_small_failures(self):
        state, _ = env.reset(5)
        user = state.attacker.target_chain[0]
        with_access = set_host(state, user, CompromiseLevel.USER_ACCESS)
        assert env._reward_tenths(with_access.hosts, ActionKind.MONITOR) == -11
        rooted = set_host(state, user, CompromiseLevel.ROOT_ACCESS)
        assert env._reward_tenths(rooted.hosts, ActionKind.MONITOR) == -12

    def test_reward_domain_over_random_play(self):
        for episode in range(40):
            for record in env.run_policy_episode(env.random_policy, 9_000 + episode):
                assert in_reward_groups(record.reward), REWARD_GROUPS

    @given(st.integers(min_value=0, max_value=2**32), st.data())
    @settings(max_examples=25, deadline=None)
    def test_reward_domain_property(self, seed, data):
        state, _ = env.reset(seed)
        for _ in range(10):
            kind = data.draw(st.sampled_from(list(ActionKind)))
            target = None if kind is ActionKind.MONITOR else data.draw(st.integers(0, 12))
            state, _, reward = env.step(state, BlueAction(kind, target))
            assert in_reward_groups(reward), REWARD_GROUPS


class TestAttacker:
    def test_discovery_advances_to_access_on_successful_scan(self):
        advanced = 0
        for seed in range(30):
            state, _ = env.reset(seed)
            after = env.attacker_transition(state)
            assert after.attacker.phase in (AttackPhase.DISCOVERY, AttackPhase.ACCESS)
            if after.attacker.phase is AttackPhase.ACCESS:
                advanced += 1
                user = state.attacker.target_chain[0]
                assert after.hosts[user].level is CompromiseLevel.SCANNED
        assert advanced > 0

    def test_phase_advances_at_most_one_step(self):
        state, _ = env.reset(11)
        while not env.is_terminal(state):
            before = state.attacker.phase
            state, _, _ = env.step(state, BlueAction(ActionKind.MONITOR))
            assert state.attacker.phase - before <= 1

    def test_decoy_absorbs_attack_and_is_consumed(self):
        state, _ = env.reset(3)
        user = state.attacker.target_chain[0]
        state = set_host(state, user, decoy=True)
        after = env.attacker_transition(state)
        assert after.attacker.phase is AttackPhase.DISCOVERY
        assert after.hosts[user].level is CompromiseLevel.CLEAN
        assert not after.hosts[user].decoy_present

    def test_restore_on_foothold_strictly_regresses_phase(self):
        state, _ = env.reset(3)
        user, enterprise, op = state.attacker.target_chain
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
            crafted = state
            for host, level in levels.items():
                crafted = set_host(crafted, host, level)
            foothold = crafted.attacker.foothold
            assert foothold is not None
            before = crafted.attacker.phase
            after, _, _ = env.step(crafted, BlueAction(ActionKind.RESTORE, foothold))
            assert after.attacker.phase < before

    def test_remove_never_clears_root(self):
        state, _ = env.reset(3)
        user = state.attacker.target_chain[0]
        state = set_host(state, user, CompromiseLevel.ROOT_ACCESS)
        for _ in range(10):
            state, _, _ = env.step(state, BlueAction(ActionKind.REMOVE, user))
            assert state.hosts[user].level is CompromiseLevel.ROOT_ACCESS


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
            state, observation = env.reset(99)
            out = []
            for action in actions:
                state, observation, reward = env.step(state, action)
                out.append((reward, observation))
            return out

        assert rollout() == rollout()

    def test_monotone_severity_under_sleep(self):
        by_phase: dict[AttackPhase, list[float]] = {p: [] for p in AttackPhase}
        for seed in range(200):
            state, _ = env.reset(seed + 40_000)
            while not env.is_terminal(state):
                state, _, reward = env.step(state, BlueAction(ActionKind.MONITOR))
                by_phase[state.attacker.phase].append(reward)
        means = [
            statistics.fmean(by_phase[p]) for p in AttackPhase if by_phase[p]
        ]
        assert len(means) == len(AttackPhase)
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
    def test_stable_field_order(self, tmp_path):
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
        path = tmp_path / "trajectory.log"
        env.write_trajectory(records, path)
        assert path.read_text().splitlines() == [env.format_step_record(r) for r in records]

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


def _host_levels(state) -> list[tuple[int, bool]]:
    return [(int(h.level), h.decoy_present) for h in state.hosts]


class TestRandomStream:
    """Pins the simulator's random stream to the values of earlier releases.

    The expected digests were computed before the per-step generator stopped
    being built with ``random.Random()``; equal digests show the carried
    ``rng_state`` resumes the identical stream.
    """

    def test_heuristic_trajectory_digest(self):
        digest = hashlib.sha256()
        state, observation = env.reset(20240517)
        for _ in range(cal.EPISODE_LENGTH):
            action = env.heuristic_policy(observation, random.Random(0))
            state, observation, reward = env.step(state, action)
            record = env.StepRecord(action=action, reward=reward, observation=observation)
            level = observation.analysed_level
            digest.update(
                f"{env.format_step_record(record)}"
                f" analysed={observation.analysed_host}:{None if level is None else int(level)}\n"
                .encode()
            )
        digest.update(repr((_host_levels(state), state.rng_state)).encode())
        assert env.is_terminal(state)
        assert digest.hexdigest() == (
            "fb4ea49a3681197c16de1d377a06c85d29c60014a264c570745ee6439fa454b7"
        )

    def test_attacker_transition_digest(self):
        digest = hashlib.sha256()
        state, _ = env.reset(4242)
        for _ in range(12):
            state = env.attacker_transition(state)
            digest.update(
                repr((_host_levels(state), int(state.attacker.phase), state.rng_state)).encode()
            )
        assert digest.hexdigest() == (
            "2e9295c399772da3120975bcc7b719a70626ae39ee1983e0da7e181ff2cdb8f1"
        )

    def test_step_leaves_input_state_usable(self):
        state, _ = env.reset(5)
        action = BlueAction(ActionKind.ANALYSE, 0)
        first = env.step(state, action)
        assert env.step(state, action) == first
