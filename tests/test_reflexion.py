from __future__ import annotations

import random

import pytest

from conftest import MonitorBackend, ScriptedRewardEnv
from forge import cage_lite as env
from forge import reflexion
from forge.agents import ScriptedBackend, default_memory
from forge.llm_connector import ConnectorError
from forge.memory import ArtifactKind, Origin, Representation
from forge.reflexion import (
    AttemptStatus,
    reflexion_loop,
    run_attempt,
    run_frozen_episode,
    synthesize,
)
from forge.seeding import derive_seed


class TestTriggerSemantics:
    def test_restore_costs_never_abort_at_default_trigger(self, memory):
        rewards = [0.0] + [-1.0] * 29
        outcome = run_attempt(memory, 0, -1.1, MonitorBackend(), env=ScriptedRewardEnv(rewards))
        assert outcome.status is AttemptStatus.COMPLETED
        assert outcome.episode_return == -29.0

    def test_reward_at_threshold_does_not_abort(self, memory):
        rewards = [0.0, -1.1, -1.1] + [0.0] * 27
        outcome = run_attempt(memory, 0, -1.1, MonitorBackend(), env=ScriptedRewardEnv(rewards))
        assert outcome.status is AttemptStatus.COMPLETED

    def test_reward_below_threshold_always_aborts(self, memory):
        rewards = [0.0, -1.0, -1.2, 0.0, 0.0]
        outcome = run_attempt(
            memory, 0, -1.1, MonitorBackend(), env=ScriptedRewardEnv(rewards), instance=4,
            stage=2, attempt=3,
        )
        assert outcome.status is AttemptStatus.ABORTED
        assert outcome.snapshot is not None
        snapshot = outcome.snapshot
        assert snapshot.failing_step == 3  # the trajectory's step=03 line
        assert snapshot.failing_reward == -1.2
        assert snapshot.origin == Origin(stage=2, attempt=3, instance=4)

    def test_abort_is_immediate(self, memory):
        rewards = [-5.0, -5.0, -5.0]
        outcome = run_attempt(memory, 0, -1.1, MonitorBackend(), env=ScriptedRewardEnv(rewards))
        assert len(outcome.snapshot.trajectory) == 1
        assert outcome.snapshot.failing_step == 1

    def test_trajectory_ends_at_failing_step(self, memory):
        rewards = [0.0, 0.0, -2.0, 0.0]
        outcome = run_attempt(memory, 0, -1.1, MonitorBackend(), env=ScriptedRewardEnv(rewards))
        assert len(outcome.snapshot.trajectory) == outcome.snapshot.failing_step
        assert outcome.episode_return == -2.0

    def test_nonnegative_trigger_rejected(self, memory):
        with pytest.raises(ValueError):
            run_attempt(memory, 0, 0.0, MonitorBackend(), env=ScriptedRewardEnv([0.0]))

    def test_frozen_mode_never_aborts(self, memory):
        rewards = [-14.0] * 5
        score = run_frozen_episode(memory, 0, MonitorBackend(), env=ScriptedRewardEnv(rewards))
        assert score == -70.0


class TestSnapshot:
    def test_memory_snapshot_is_isolated(self, memory):
        rewards = [-2.0]
        outcome = run_attempt(memory, 0, -1.1, MonitorBackend(), env=ScriptedRewardEnv(rewards))
        snapshot_memory = outcome.snapshot.memory_at_failure
        from test_memory import rule

        memory.append(rule(5))
        assert snapshot_memory.dynamic == []


class FailingBackend:
    def decide(self, observation, memory, ctx=None):
        raise ConnectorError("provider down")


class TestReflexionLoop:
    def test_all_completed_leaves_memory_unchanged(self, memory):
        before = memory.content_hash()
        summaries = list(
            reflexion_loop(
                memory,
                instance=1,
                stage=1,
                attempts=3,
                tau=-1.1,
                backend=MonitorBackend(),
                base_seed=0,
                env=ScriptedRewardEnv([0.0] * 30),
            )
        )
        assert [s.status for s in summaries] == ["completed"] * 3
        assert memory.content_hash() == before

    def test_aborted_attempt_adds_exactly_one_rule(self, memory, monkeypatch):
        backend = ScriptedBackend(representation=Representation.RULES)
        base_seed = yylchash_seed()
        sizes_after = record_sizes_after_attempts(monkeypatch, memory)
        summaries = list(
            reflexion_loop(
                memory,
                instance=1,
                stage=1,
                attempts=3,
                tau=-1.1,
                backend=backend,
                base_seed=base_seed,
            )
        )
        growth = list(zip([s.status for s in summaries], sizes_after(), strict=True))
        aborted = [g for g in growth if g[0] == "aborted"]
        assert aborted, "expected at least one aborted attempt on the real environment"
        first_abort_index = next(i for i, g in enumerate(growth) if g[0] == "aborted")
        assert growth[first_abort_index][1] == 1

    def test_loop_never_exceeds_attempt_budget(self, memory):
        summaries = list(
            reflexion_loop(
                memory,
                instance=2,
                stage=1,
                attempts=2,
                tau=-1.1,
                backend=ScriptedBackend(representation=Representation.MIXED),
                base_seed=7,
            )
        )
        assert len(summaries) == 2

    def test_errored_attempts_recorded_without_memory_change(self, memory):
        before = memory.content_hash()
        summaries = list(
            reflexion_loop(
                memory,
                instance=1,
                stage=1,
                attempts=3,
                tau=-1.1,
                backend=FailingBackend(),
                base_seed=1,
            )
        )
        assert [s.status for s in summaries] == ["errored"] * 3
        assert memory.content_hash() == before

    def test_mixed_representation_adds_rule_and_example(self, memory):
        backend = ScriptedBackend(representation=Representation.MIXED)
        list(
            reflexion_loop(
                memory,
                instance=1,
                stage=1,
                attempts=1,
                tau=-1.1,
                backend=backend,
                base_seed=yylchash_seed(),
            )
        )
        kinds = {a.kind for a in memory.dynamic}
        assert kinds == {ArtifactKind.RULE, ArtifactKind.EXAMPLE}

    def test_examples_representation_adds_only_examples(self, memory):
        backend = ScriptedBackend(representation=Representation.EXAMPLES)
        list(
            reflexion_loop(
                memory,
                instance=1,
                stage=1,
                attempts=2,
                tau=-1.1,
                backend=backend,
                base_seed=yylchash_seed(),
            )
        )
        learned = list(memory.dynamic)
        assert learned, "expected learning to occur"
        assert all(a.kind is ArtifactKind.EXAMPLE for a in learned)

    def test_dynamic_memory_growth_is_monotone_within_stage(self, memory, monkeypatch):
        sizes_after = record_sizes_after_attempts(monkeypatch, memory)
        list(
            reflexion_loop(
                memory,
                instance=1,
                stage=1,
                attempts=3,
                tau=-1.1,
                backend=ScriptedBackend(representation=Representation.RULES),
                base_seed=3,
            )
        )
        sizes = sizes_after()
        assert len(sizes) == 3
        assert sizes == sorted(sizes)


def record_sizes_after_attempts(monkeypatch, memory):
    """Record the artifact count of ``memory`` after each attempt of a ``reflexion_loop``.

    Each ``run_attempt`` call notes the count it starts from, which is the
    count after the attempt before it. The returned function adds the final
    count and gives one count per attempt.
    """
    at_start = []
    run_attempt = reflexion.run_attempt

    def size():
        return len(memory.dynamic)

    def recording(memory_arg, *args, **kwargs):
        at_start.append(size())
        return run_attempt(memory_arg, *args, **kwargs)

    monkeypatch.setattr(reflexion, "run_attempt", recording)
    return lambda: at_start[1:] + [size()]


def yylchash_seed() -> int:
    """A base seed whose first attempt aborts under the default trigger."""
    memory_probe = default_memory()
    backend = ScriptedBackend(representation=Representation.RULES)
    for base_seed in range(60):
        outcome = run_attempt(
            memory_probe.clone(),
            derive_seed(base_seed, 1, 1, 1),
            -1.1,
            backend,
            instance=1,
            stage=1,
            attempt=1,
        )
        if outcome.status is AttemptStatus.ABORTED:
            return base_seed
    raise AssertionError("no aborting seed found in range")


class TestLearnedClausePreventsFailure:
    def test_learned_clause_suppresses_the_trigger(self):
        """On seeds where attempt one aborts and yields a Restore clause,
        attempt two on the same seed should usually run trigger-free to
        completion: the clause remediates the culprit before any step falls
        below the trigger again."""
        backend = ScriptedBackend(representation=Representation.RULES)
        eligible = 0
        suppressed = 0
        for base_seed in range(40):
            memory = default_memory()
            seed = derive_seed(base_seed, 1, 1, 1)
            first = run_attempt(
                memory, seed, -1.1, backend, instance=1, stage=1, attempt=1
            )
            if first.status is not AttemptStatus.ABORTED:
                continue
            artifacts = synthesize(first.snapshot, backend)
            if not artifacts or artifacts[0].clause is None:
                continue
            if artifacts[0].clause.response != "Restore":
                continue
            eligible += 1
            for artifact in artifacts:
                memory.append(artifact)
            second = run_attempt(
                memory, seed, -1.1, backend, instance=1, stage=1, attempt=1
            )
            if second.status is AttemptStatus.COMPLETED:
                suppressed += 1
                assert len(second.trajectory) == 30
        assert eligible >= 10
        assert suppressed / eligible >= 0.5


class TestSynthesizeDispatch:
    def test_rules_only_produces_rules(self, memory):
        rewards = [-2.0]
        outcome = run_attempt(
            memory, 3, -1.1, MonitorBackend(), instance=1, stage=1, attempt=1
        )
        if outcome.status is not AttemptStatus.ABORTED:
            pytest.skip("seed did not abort")
        backend = ScriptedBackend(representation=Representation.RULES)
        artifacts = synthesize(outcome.snapshot, backend)
        assert all(a.kind is ArtifactKind.RULE for a in artifacts)


@pytest.fixture
def generator_state_copies(monkeypatch):
    """Counts ``random.Random.setstate``/``getstate`` calls while the test runs."""
    counts = {"setstate": 0, "getstate": 0}
    for name in counts:
        original = getattr(random.Random, name)

        def counting(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(random.Random, name, counting)
    return counts


class TestEpisodeSteppedInPlace:
    """``run_attempt`` steps one live generator; it never copies its state per step."""

    SEEDS = range(12)

    def test_no_generator_state_copies_per_step(self, generator_state_copies):
        backend = ScriptedBackend()
        memory = default_memory()
        aborted = 0
        for seed in self.SEEDS:
            outcome = run_attempt(memory, seed, -1.1, backend)
            aborted += outcome.status is AttemptStatus.ABORTED
            run_frozen_episode(memory, seed, backend)
        assert aborted > 0
        assert generator_state_copies == {"setstate": 0, "getstate": 0}

    def test_failing_host_equals_replayed_foothold(self):
        backend = ScriptedBackend()
        aborted = 0
        for seed in self.SEEDS:
            outcome = run_attempt(default_memory(), seed, -1.1, backend)
            if outcome.status is not AttemptStatus.ABORTED:
                continue
            aborted += 1
            snapshot = outcome.snapshot
            episode, _ = env.begin(seed)
            for record in outcome.trajectory:
                observation, reward = env.step(episode, record.action)
                assert (observation, reward) == (record.observation, record.reward)
            assert len(outcome.trajectory) == snapshot.failing_step
            # A reward below the trigger needs a compromised host, and the
            # attacker compromises only hosts of its chain.
            assert snapshot.failing_host is not None
            assert snapshot.failing_host == episode.foothold()
        assert aborted > 0
