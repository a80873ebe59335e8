from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge import memory as mem
from forge.agents import ACTION_REFERENCE_TABLE, default_memory, default_persistent
from forge.memory import (
    ArtifactKind,
    ArtifactValidationError,
    Clause,
    InstanceMemory,
    MemoryArtifact,
    MemoryProtocolError,
    Origin,
    Representation,
    Role,
)

EXAMPLE_TEXT = (
    "<example description='Demo'>\n"
    "Thought: the host looks compromised.\n"
    "Tool: rank_actions host=6 severity=high situation=confirmed\n"
    "Observation: [{\"action\": \"Restore 6\", \"confidence\": 0.95}]\n"
    "Answer: Restore 6\n"
    "</example>"
)

# Any text an artifact admits (every character but the lone surrogates, which
# UTF-8 cannot encode); the line breaks YAML emitters treat specially (NEL,
# LS, PS) are drawn as often as the rest of the alphabet together.
ANY_TEXT = st.text(
    st.characters(exclude_categories=("Cs",)) | st.sampled_from("\x85\u2028\u2029")
)


def rule(host: int = 6, role: Role = Role.PLANNER, stage: int = 1, attempt: int = 1,
         instance: int = 1, response: str = "Restore") -> MemoryArtifact:
    return MemoryArtifact(
        kind=ArtifactKind.RULE,
        role=role,
        text=f"When host {host} is compromised, then restore host {host} immediately.",
        clause=Clause(host=host, response=response),
        origin=Origin(stage, attempt, instance),
        artifact_id=f"rule-{host}-{stage}-{attempt}",
    )


def example(host: int = 6, role: Role = Role.PLANNER) -> MemoryArtifact:
    return MemoryArtifact(
        kind=ArtifactKind.EXAMPLE,
        role=role,
        text=EXAMPLE_TEXT,
        clause=Clause(host=host),
        origin=Origin(1, 1, 1),
        artifact_id=f"example-{host}",
    )


def reference_render(memory: InstanceMemory, role: Role, representation: Representation) -> str:
    """``InstanceMemory.render`` computed afresh from the memory's current state."""
    admitted = [a for a in memory.dynamic[role] if representation.admits(a.kind)]
    rule_lines = "\n".join(
        f"- [{a.artifact_id}] {a.text}" for a in admitted if a.kind is ArtifactKind.RULE
    )
    example_blocks = "\n\n".join(a.text for a in admitted if a.kind is ArtifactKind.EXAMPLE)
    return (
        f"{memory.persistent[role].rstrip()}\n\n"
        f"<reflection_knowledge>\n{rule_lines}\n</reflection_knowledge>\n\n"
        f"<TOOL_USE_EXAMPLES>\n{example_blocks}\n</TOOL_USE_EXAMPLES>"
    )


ACTING = st.sampled_from(mem.ACTING_ROLES)

# One step of a memory's life between two renders.
RENDER_OPS = st.one_of(
    st.tuples(st.just("append"), ACTING, st.booleans(), st.integers(0, 12)),
    st.tuples(st.just("replace_dynamic"), st.integers(0, 2)),
    st.tuples(st.just("load_workspace"), st.integers(0, 2)),
    st.tuples(
        st.just("edit"), ACTING, st.sampled_from(["setitem", "pop", "reverse", "clear"]),
        st.integers(0, 12),
    ),
    st.tuples(st.just("persistent"), ACTING, st.sampled_from(["", "Defend.", "Defend. \n"])),
)


class TestArtifactValidation:
    def test_empty_text_rejected(self):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(kind=ArtifactKind.RULE, role=Role.PLANNER, text="  ")

    def test_rule_shape_enforced(self):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(kind=ArtifactKind.RULE, role=Role.PLANNER, text="restore host 6")

    def test_example_markers_enforced(self):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(kind=ArtifactKind.EXAMPLE, role=Role.PLANNER, text="Thought: hmm")

    def test_learning_roles_cannot_own_artifacts(self):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(
                kind=ArtifactKind.RULE,
                role=Role.REFLECTOR,
                text="When x, then y.",
            )

    @pytest.mark.parametrize(
        "text, artifact_id",
        [("When host \ud800 is compromised, then restore host 6.", "r"),
         ("When host 6 is compromised, then restore host 6.", "rule-\udfff")],
        ids=["text", "artifact_id"],
    )
    def test_lone_surrogate_rejected(self, text, artifact_id):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(
                kind=ArtifactKind.RULE, role=Role.PLANNER, text=text, artifact_id=artifact_id
            )

    def test_unknown_clause_response_rejected(self):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(
                kind=ArtifactKind.RULE,
                role=Role.PLANNER,
                text="When host 6 is compromised, then nuke host 6.",
                clause=Clause(host=6, response="Nuke"),
            )


class TestAppend:
    def test_append_to_empty(self, memory):
        memory.append(rule())
        assert len(memory.dynamic[Role.PLANNER]) == 1

    def test_fifo_eviction(self):
        memory = InstanceMemory(persistent=default_persistent(), capacity=3)
        for host in (0, 1, 2, 3):
            memory.append(rule(host))
        kept = [a.clause.host for a in memory.dynamic[Role.PLANNER]]
        assert kept == [1, 2, 3]

    def test_role_isolation(self, memory):
        memory.append(rule(role=Role.ANALYST))
        assert memory.dynamic[Role.PLANNER] == []
        assert memory.dynamic[Role.ACTION_CHOOSER] == []
        assert len(memory.dynamic[Role.ANALYST]) == 1

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([Role.PLANNER, Role.ANALYST, Role.ACTION_CHOOSER]),
                st.booleans(),
                st.integers(0, 12),
            ),
            max_size=60,
        ),
        st.integers(1, 7),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, appends, capacity):
        memory = InstanceMemory(persistent=default_persistent(), capacity=capacity)
        for role, is_rule, host in appends:
            memory.append(rule(host, role=role) if is_rule else example(host, role=role))
        for role in (Role.PLANNER, Role.ANALYST, Role.ACTION_CHOOSER):
            assert len(memory.dynamic[role]) <= capacity

    def test_eviction_preserves_recency(self):
        memory = InstanceMemory(persistent=default_persistent(), capacity=2)
        for host in range(5):
            memory.append(rule(host))
        assert [a.clause.host for a in memory.dynamic[Role.PLANNER]] == [3, 4]


class TestRender:
    def test_empty_memory_renders_markers(self, memory):
        text = memory.render(Role.PLANNER, Representation.MIXED)
        assert "<reflection_knowledge>" in text
        assert "</reflection_knowledge>" in text
        assert "<TOOL_USE_EXAMPLES>" in text
        assert memory.persistent[Role.PLANNER] in text

    def test_rules_representation_filters_examples(self, memory):
        memory.append(rule())
        memory.append(example())
        text = memory.render(Role.PLANNER, Representation.RULES)
        assert "When host 6" in text
        assert "<example" not in text

    def test_examples_representation_filters_rules(self, memory):
        memory.append(rule())
        memory.append(example())
        text = memory.render(Role.PLANNER, Representation.EXAMPLES)
        assert "When host 6" not in text
        assert "<example" in text

    def test_insertion_order_preserved(self, memory):
        memory.append(rule(2))
        memory.append(rule(9))
        text = memory.render(Role.PLANNER, Representation.RULES)
        assert text.index("host 2") < text.index("host 9")

    def test_planner_render_never_contains_action_table(self, memory):
        memory.append(rule())
        text = memory.render(Role.PLANNER, Representation.MIXED)
        assert mem.ACTION_TABLE_MARKER not in text
        assert mem.ACTION_TABLE_MARKER in ACTION_REFERENCE_TABLE

    def test_kept_render_is_not_part_of_the_value(self, memory):
        memory.append(rule())
        fresh = memory.clone()
        before = (repr(memory), memory.to_dict(), memory.content_hash())
        memory.render(Role.PLANNER, Representation.MIXED)
        assert memory == fresh
        assert (repr(memory), memory.to_dict(), memory.content_hash()) == before
        assert memory.clone()._rendered == {}

    @given(st.lists(RENDER_OPS, max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_kept_render_equals_a_fresh_render(self, tmp_path_factory, ops):
        memory = default_memory(capacity=3)

        def source(n: int) -> InstanceMemory:
            other = default_memory(capacity=3, persistent=dict(memory.persistent))
            for host in range(n + 1):
                other.append(rule(host, stage=n))
                other.append(example(host + n, role=Role.ANALYST))
            return other

        for op, *args in ops:
            if op == "append":
                role, is_rule, host = args
                memory.append(rule(host, role=role) if is_rule else example(host, role=role))
            elif op == "replace_dynamic":
                mem.replace_dynamic(memory, source(args[0]))
            elif op == "load_workspace":
                directory = tmp_path_factory.mktemp("workspace")
                mem.save_workspace(source(args[0]), directory)
                loaded = mem.load_workspace(directory, memory.persistent, memory.capacity)
                for role in mem.ACTING_ROLES:
                    memory.dynamic[role] = loaded.dynamic[role]
            elif op == "edit":
                role, edit, host = args
                bucket = memory.dynamic[role]
                if edit == "setitem" and bucket:
                    bucket[host % len(bucket)] = rule(host, role=role, attempt=2)
                elif edit == "pop" and bucket:
                    bucket.pop(host % len(bucket))
                elif edit == "reverse":
                    bucket.reverse()
                elif edit == "clear":
                    bucket.clear()
            else:
                role, text = args
                memory.persistent[role] = text
            for role in mem.ACTING_ROLES:
                for representation in Representation:
                    assert memory.render(role, representation) == reference_render(
                        memory, role, representation
                    )


class TestPersistence:
    @staticmethod
    def round_trip(memory, directory):
        mem.save_workspace(memory, directory)
        return mem.load_workspace(directory, memory.persistent, memory.capacity)

    def test_round_trip_empty(self, memory, tmp_path):
        assert self.round_trip(memory, tmp_path) == memory

    def test_round_trip_mixed_artifacts(self, memory, tmp_path):
        for host in (0, 1):
            memory.append(rule(host))
            memory.append(example(host))
        memory.append(rule(4, role=Role.ANALYST))
        assert self.round_trip(memory, tmp_path) == memory

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.booleans(), ANY_TEXT, ANY_TEXT), max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, entries):
        # Any id and any text, wrapped in the shape its kind requires.
        memory = default_memory()
        for host, is_rule, artifact_id, text in entries:
            if is_rule:
                artifact = replace(rule(host), text=f"When {text}, then restore host {host}.")
            else:
                artifact = replace(
                    example(host),
                    text=f"Thought: {text}\nTool: {text}\nObservation: {text}\nAnswer: {text}",
                )
            memory.append(replace(artifact, artifact_id=artifact_id))
        assert self.round_trip(memory, tmp_path_factory.mktemp("workspace")) == memory

    def test_workspace_round_trip_preserves_interleaving(self, memory, tmp_path):
        memory.append(rule(1))
        memory.append(example(2))
        memory.append(rule(3))
        paths = mem.save_workspace(memory, tmp_path)
        assert len(paths) == 6
        names = {p.name for p in paths}
        assert "planner_reflection_knowledge.yaml" in names
        assert "analyst_reflection_examples.yaml" in names
        loaded = mem.load_workspace(tmp_path, memory.persistent, memory.capacity)
        assert loaded == memory


class TestReplaceDynamic:
    def test_replacement_is_exact(self, memory):
        src = default_memory()
        src.append(rule(1))
        src.append(rule(2))
        memory.append(rule(9))
        mem.replace_dynamic(memory, src)
        assert memory.dynamic == src.dynamic

    def test_empty_source_empties_destination(self, memory):
        memory.append(rule())
        mem.replace_dynamic(memory, default_memory())
        assert memory.artifacts() == []

    def test_deep_copy_isolates_source(self, memory):
        src = default_memory()
        src.append(rule(1))
        mem.replace_dynamic(memory, src)
        memory.append(rule(5))
        assert [a.clause.host for a in src.dynamic[Role.PLANNER]] == [1]

    def test_list_copy_isolates_both_sides(self):
        src = InstanceMemory(persistent=default_persistent(), capacity=2)
        src.append(rule(1))
        src.append(rule(2))
        dst = InstanceMemory(persistent=default_persistent(), capacity=2)
        mem.replace_dynamic(dst, src)
        dst.append(rule(3))  # evicts rule 1 from dst only
        dst.append(example(4, role=Role.ANALYST))
        assert [a.clause.host for a in src.dynamic[Role.PLANNER]] == [1, 2]
        assert src.dynamic[Role.ANALYST] == []
        src.append(rule(5))
        assert [a.clause.host for a in dst.dynamic[Role.PLANNER]] == [2, 3]

    def test_idempotent(self, memory):
        src = default_memory()
        src.append(rule(1))
        once = mem.replace_dynamic(memory.clone(), src)
        twice = mem.replace_dynamic(mem.replace_dynamic(memory.clone(), src), src)
        assert once == twice

    def test_persistent_mismatch_rejected(self, memory):
        persistent = default_persistent()
        persistent[Role.ANALYST] = "different guide"
        other = InstanceMemory(persistent=persistent)
        with pytest.raises(MemoryProtocolError):
            mem.replace_dynamic(memory, other)

    def test_persistent_sections_untouched(self, memory):
        before = dict(memory.persistent)
        src = default_memory()
        src.append(rule(3))
        mem.replace_dynamic(memory, src)
        assert memory.persistent == before


class TestInvariants:
    def test_planner_persistent_rejects_action_table(self):
        persistent = default_persistent()
        persistent[Role.PLANNER] = ACTION_REFERENCE_TABLE
        with pytest.raises(MemoryProtocolError):
            InstanceMemory(persistent=persistent)

    def test_hash_stable_across_learning_free_operations(self, memory):
        memory.append(rule())
        before = memory.content_hash()
        memory.render(Role.PLANNER, Representation.MIXED)
        memory.artifacts(Representation.RULES)
        assert memory.content_hash() == before

    def test_persistent_hash_unchanged_by_appends(self, memory):
        def persistent_blob(m):
            return tuple(sorted((r.value, t) for r, t in m.persistent.items()))

        before = persistent_blob(memory)
        for host in range(25):
            memory.append(rule(host % 13))
        assert persistent_blob(memory) == before


class TestContentHash:
    def test_is_sha256_of_canonical_json(self, memory):
        memory.persistent[Role.ANALYST] = "Prüfe den Host – sofort."
        memory.append(rule(1))
        memory.append(example(2, role=Role.ANALYST))
        canonical = json.dumps(
            memory.to_dict(), sort_keys=True, ensure_ascii=False, separators=(",", ":")
        )
        assert "Prüfe" in canonical
        assert memory.content_hash() == hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def test_equal_for_clone(self, memory):
        memory.append(rule(1))
        memory.append(example(2))
        assert memory.clone().content_hash() == memory.content_hash()

    def test_equal_after_workspace_round_trip(self, memory, tmp_path):
        memory.append(rule(1))
        memory.append(example(2))
        memory.append(rule(3, role=Role.ACTION_CHOOSER))
        mem.save_workspace(memory, tmp_path)
        loaded = mem.load_workspace(tmp_path, memory.persistent, memory.capacity)
        assert loaded.content_hash() == memory.content_hash()

    def test_order_within_a_role_matters(self, memory):
        swapped = memory.clone()
        memory.append(rule(1))
        memory.append(rule(2))
        swapped.append(rule(2))
        swapped.append(rule(1))
        assert memory.content_hash() != swapped.content_hash()
