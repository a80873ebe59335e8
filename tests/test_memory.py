from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANY_TEXT
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


def rule(host: int = 6, stage: int = 1, attempt: int = 1, instance: int = 1,
         response: str = "Restore") -> MemoryArtifact:
    return MemoryArtifact(
        kind=ArtifactKind.RULE,
        text=f"When host {host} is compromised, then restore host {host} immediately.",
        clause=Clause(host=host, response=response),
        origin=Origin(stage, attempt, instance),
        artifact_id=f"rule-{host}-{stage}-{attempt}",
    )


def example(host: int = 6) -> MemoryArtifact:
    return MemoryArtifact(
        kind=ArtifactKind.EXAMPLE,
        text=EXAMPLE_TEXT,
        clause=Clause(host=host, response="Restore"),
        origin=Origin(1, 1, 1),
        artifact_id=f"example-{host}",
    )


def reference_render(memory: InstanceMemory) -> str:
    """``InstanceMemory.render`` computed afresh from the memory's current state."""
    artifacts = memory.dynamic
    rule_lines = "\n".join(
        f"- [{a.artifact_id}] {a.text}" for a in artifacts if a.kind is ArtifactKind.RULE
    )
    example_blocks = "\n\n".join(a.text for a in artifacts if a.kind is ArtifactKind.EXAMPLE)
    return (
        f"{memory.persistent[Role.PLANNER].rstrip()}\n\n"
        f"<reflection_knowledge>\n{rule_lines}\n</reflection_knowledge>\n\n"
        f"<TOOL_USE_EXAMPLES>\n{example_blocks}\n</TOOL_USE_EXAMPLES>"
    )


def reference_hash(memory: InstanceMemory) -> str:
    """``InstanceMemory.content_hash`` computed afresh from the memory's current state."""
    canonical = json.dumps(
        memory.to_dict(), sort_keys=True, ensure_ascii=False, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


ACTING = st.sampled_from(mem.ACTING_ROLES)

# One step of a memory's life between two renders.
RENDER_OPS = st.one_of(
    st.tuples(st.just("append"), st.booleans(), st.integers(0, 12)),
    st.tuples(st.just("replace_dynamic"), st.integers(0, 2)),
    st.tuples(st.just("load_workspace"), st.integers(0, 2)),
    st.tuples(
        st.just("edit"), st.sampled_from(["setitem", "pop", "reverse", "clear"]),
        st.integers(0, 12),
    ),
    st.tuples(st.just("persistent"), ACTING, st.sampled_from(["", "Defend.", "Defend. \n"])),
)


def apply_op(memory: InstanceMemory, op: str, args: list, source, directory) -> None:
    """Apply one ``RENDER_OPS`` step to ``memory``; ``directory()`` makes a new directory."""
    if op == "append":
        is_rule, host = args
        memory.append(rule(host) if is_rule else example(host))
    elif op == "replace_dynamic":
        mem.replace_dynamic(memory, source(args[0]))
    elif op == "load_workspace":
        path = directory()
        mem.save_workspace(source(args[0]), path)
        memory.dynamic = mem.load_workspace(path, memory.persistent, memory.capacity).dynamic
    elif op == "edit":
        edit, host = args
        dynamic = memory.dynamic
        if edit == "setitem" and dynamic:
            dynamic[host % len(dynamic)] = rule(host, attempt=2)
        elif edit == "pop" and dynamic:
            dynamic.pop(host % len(dynamic))
        elif edit == "reverse":
            dynamic.reverse()
        elif edit == "clear":
            dynamic.clear()
    else:
        role, text = args
        memory.persistent[role] = text


class TestArtifactValidation:
    def test_empty_text_rejected(self):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(kind=ArtifactKind.RULE, text="  ")

    def test_rule_shape_enforced(self):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(kind=ArtifactKind.RULE, text="restore host 6")

    def test_example_markers_enforced(self):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(kind=ArtifactKind.EXAMPLE, text="Thought: hmm")

    @pytest.mark.parametrize(
        "text, artifact_id",
        [("When host \ud800 is compromised, then restore host 6.", "r"),
         ("When host 6 is compromised, then restore host 6.", "rule-\udfff")],
        ids=["text", "artifact_id"],
    )
    def test_lone_surrogate_rejected(self, text, artifact_id):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(
                kind=ArtifactKind.RULE, text=text, artifact_id=artifact_id
            )

    def test_unknown_clause_response_rejected(self):
        with pytest.raises(ArtifactValidationError):
            MemoryArtifact(
                kind=ArtifactKind.RULE,
                text="When host 6 is compromised, then nuke host 6.",
                clause=Clause(host=6, response="Nuke"),
            )

    @pytest.mark.parametrize("host", [13, -1], ids=["host-13", "host-minus-1"])
    def test_out_of_range_clause_host_rejected(self, host):
        with pytest.raises(ArtifactValidationError, match="clause host must be in 0..12"):
            MemoryArtifact(
                kind=ArtifactKind.RULE,
                text="When host 6 is compromised, then restore host 6.",
                clause=Clause(host=host, response="Restore"),
            )

    def test_edge_hosts_accepted(self):
        for host in (0, 12):
            MemoryArtifact(
                kind=ArtifactKind.RULE,
                text=f"When host {host} is compromised, then restore host {host}.",
                clause=Clause(host=host, response="Restore"),
            )

    def test_out_of_range_clause_in_a_workspace_fails_its_load(self, memory, tmp_path):
        memory.append(rule(6))
        mem.save_workspace(memory, tmp_path)
        path = tmp_path / mem.SNAPSHOT_FILE
        text = path.read_text(encoding="utf-8")
        assert "host: 6" in text
        path.write_text(text.replace("host: 6", "host: 13"), encoding="utf-8")
        with pytest.raises(ArtifactValidationError, match="clause host"):
            mem.load_workspace(tmp_path, memory.persistent, memory.capacity)

    @pytest.mark.parametrize(
        "clause, key",
        [({"host": 6, "trigger": "compromised", "response": "Restore"}, "trigger"),
         ({"host": 6, "response": "Restore", "target": None}, "target"),
         ({"host": 6}, "response"),
         ({"host": 6, "response": "Restore", "severity": "high"}, "severity")],
        ids=["old-trigger", "old-target", "no-response", "extra-key"],
    )
    def test_clause_with_other_keys_fails_its_load(self, memory, tmp_path, clause, key):
        # A clause is exactly a host and a response: an old trigger or
        # target, a missing response or any other key is refused, not
        # defaulted or ignored.
        memory.append(rule(6))
        mem.save_workspace(memory, tmp_path)
        path = tmp_path / mem.SNAPSHOT_FILE
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        raw[0]["clause"] = clause
        path.write_text(mem.dump_yaml(raw), encoding="utf-8")
        with pytest.raises(ArtifactValidationError, match=f"clause keys .*'{key}'"):
            mem.load_workspace(tmp_path, memory.persistent, memory.capacity)


    @pytest.mark.parametrize(
        "edit, key",
        [(lambda a: a.update(role="planner"), "role"),
         (lambda a: a.update(claus=a.pop("clause")), "claus"),
         (lambda a: a.pop("origin"), "origin"),
         (lambda a: a.pop("artifact_id"), "artifact_id"),
         (lambda a: a["origin"].pop("stage"), "stage"),
         (lambda a: a["origin"].update(step=3), "step")],
        ids=["old-role", "misspelled-clause", "no-origin", "no-artifact-id", "origin-no-stage",
             "origin-extra-key"],
    )
    def test_artifact_with_other_keys_fails_its_load(self, memory, tmp_path, edit, key):
        # An artifact is exactly the keys ``to_dict`` writes: an old
        # snapshot's role, a misspelled or missing key is refused, not
        # defaulted or ignored.
        memory.append(rule(6))
        mem.save_workspace(memory, tmp_path)
        path = tmp_path / mem.SNAPSHOT_FILE
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        edit(raw[0])
        path.write_text(mem.dump_yaml(raw), encoding="utf-8")
        with pytest.raises(ArtifactValidationError, match=f"keys .*'{key}'"):
            mem.load_workspace(tmp_path, memory.persistent, memory.capacity)


class TestAppend:
    def test_append_to_empty(self, memory):
        memory.append(rule())
        assert memory.dynamic == [rule()]

    def test_fifo_eviction(self):
        memory = InstanceMemory(persistent=default_persistent(), capacity=3)
        for host in (0, 1, 2, 3):
            memory.append(rule(host))
        kept = [a.clause.host for a in memory.dynamic]
        assert kept == [1, 2, 3]

    @given(
        st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=60),
        st.integers(1, 7),
    )
    @settings(max_examples=50, deadline=None)
    def test_capacity_never_exceeded(self, appends, capacity):
        memory = InstanceMemory(persistent=default_persistent(), capacity=capacity)
        appended = [rule(host) if is_rule else example(host) for is_rule, host in appends]
        for artifact in appended:
            memory.append(artifact)
        # Rules and examples share the one list, which keeps the newest.
        assert memory.dynamic == appended[-capacity:]

    def test_eviction_preserves_recency(self):
        memory = InstanceMemory(persistent=default_persistent(), capacity=2)
        for host in range(5):
            memory.append(rule(host))
        assert [a.clause.host for a in memory.dynamic] == [3, 4]


class TestRender:
    def test_empty_memory_renders_markers(self, memory):
        text = memory.render()
        assert "<reflection_knowledge>" in text
        assert "</reflection_knowledge>" in text
        assert "<TOOL_USE_EXAMPLES>" in text
        assert memory.persistent[Role.PLANNER] in text

    def test_every_rule_renders_before_every_example(self, memory):
        memory.append(example(2))
        memory.append(rule(6))
        memory.append(example(9))
        text = memory.render()
        knowledge = text.index("<reflection_knowledge>")
        examples = text.index("<TOOL_USE_EXAMPLES>")
        assert knowledge < text.index("When host 6") < examples
        assert text.count(EXAMPLE_TEXT, examples) == 2

    def test_insertion_order_preserved(self, memory):
        memory.append(rule(2))
        memory.append(rule(9))
        text = memory.render()
        assert text.index("host 2") < text.index("host 9")

    def test_planner_render_never_contains_action_table(self, memory):
        memory.append(rule())
        text = memory.render()
        assert mem.ACTION_TABLE_MARKER not in text
        assert mem.ACTION_TABLE_MARKER in ACTION_REFERENCE_TABLE

    def test_kept_render_is_not_part_of_the_value(self, memory):
        memory.append(rule())
        fresh = memory.clone()
        before = (repr(memory), memory.to_dict(), memory.content_hash())
        memory.render()
        assert memory == fresh
        assert (repr(memory), memory.to_dict(), memory.content_hash()) == before
        assert memory.clone()._rendered is None

    @given(st.lists(RENDER_OPS, max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_kept_render_equals_a_fresh_render(self, tmp_path_factory, ops):
        memory = default_memory(capacity=3)

        def source(n: int) -> InstanceMemory:
            other = default_memory(capacity=3, persistent=dict(memory.persistent))
            for host in range(n + 1):
                other.append(rule(host, stage=n))
                other.append(example(host + n))
            return other

        for op, *args in ops:
            apply_op(memory, op, args, source, lambda: tmp_path_factory.mktemp("workspace"))
            assert memory.render() == reference_render(memory)


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
        memory.append(rule(4))
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
        assert paths == [tmp_path / "artifacts.yaml"]
        assert [p.name for p in tmp_path.iterdir()] == ["artifacts.yaml"]
        loaded = mem.load_workspace(tmp_path, memory.persistent, memory.capacity)
        assert loaded == memory

    def test_snapshot_is_the_dynamic_part_of_the_hashed_dict(self, memory, tmp_path):
        memory.append(rule(1))
        memory.append(example(2))
        mem.save_workspace(memory, tmp_path)
        path = tmp_path / "artifacts.yaml"
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
        assert raw == memory.to_dict()["dynamic"]
        # One list in memory order, and no artifact names a role.
        keys = ["artifact_id", "clause", "kind", "origin", "text"]
        assert [(item["artifact_id"], sorted(item)) for item in raw] == [
            ("rule-1-1-1", keys), ("example-2", keys)
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "- planner\n",
            "planner: []\nanalyst: []\n",
            "planner: []\nanalyst: []\naction_chooser: []\nreflector: []\n",
            "planner: []\nanalyst: {}\naction_chooser: []\n",
            "planner: []\nanalyst: []\naction_chooser: []\n",
        ],
        ids=["empty", "list", "missing-role", "extra-role", "not-a-list", "per-role"],
    )
    def test_malformed_top_level_names_the_file(self, tmp_path, text):
        path = tmp_path / "artifacts.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="artifacts.yaml") as excinfo:
            mem.load_workspace(tmp_path, default_persistent())
        assert not isinstance(excinfo.value, ArtifactValidationError)


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
        assert memory.dynamic == []

    def test_deep_copy_isolates_source(self, memory):
        src = default_memory()
        src.append(rule(1))
        mem.replace_dynamic(memory, src)
        memory.append(rule(5))
        assert [a.clause.host for a in src.dynamic] == [1]

    def test_list_copy_isolates_both_sides(self):
        src = InstanceMemory(persistent=default_persistent(), capacity=2)
        src.append(rule(1))
        src.append(rule(2))
        dst = InstanceMemory(persistent=default_persistent(), capacity=2)
        mem.replace_dynamic(dst, src)
        dst.append(rule(3))  # evicts rule 1 from dst only
        assert [a.clause.host for a in src.dynamic] == [1, 2]
        src.append(rule(5))
        assert [a.clause.host for a in dst.dynamic] == [2, 3]

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
        memory.render()
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
        memory.append(example(2))
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
        memory.append(rule(3))
        mem.save_workspace(memory, tmp_path)
        loaded = mem.load_workspace(tmp_path, memory.persistent, memory.capacity)
        assert loaded.content_hash() == memory.content_hash()

    @pytest.mark.parametrize("change", ["append", "list_edit", "persistent", "capacity"])
    def test_kept_hash_follows_every_change(self, memory, change):
        memory.append(rule(1))
        before = memory.content_hash()
        if change == "append":
            memory.append(rule(2))
        elif change == "list_edit":
            memory.dynamic[0] = rule(1, attempt=2)
        elif change == "persistent":
            memory.persistent[Role.ANALYST] = "Another indicator guide."
        else:
            memory.capacity = 5
        after = memory.content_hash()
        assert after != before
        assert after == reference_hash(memory) == memory.clone().content_hash()

    def test_kept_hash_is_not_part_of_the_value(self, memory):
        memory.append(rule(1))
        fresh = memory.clone()
        memory.content_hash()
        assert memory == fresh
        assert repr(memory) == repr(fresh)
        assert memory.clone()._hashed is None

    def test_receivers_take_the_source_digest(self, monkeypatch):
        src = default_memory()
        src.append(rule(1))
        src.append(example(2))
        receivers = [default_memory() for _ in range(3)]
        receivers[0].append(rule(9))
        for receiver in receivers:
            receiver.content_hash()
        # Equal artifacts under another capacity: another value, another digest.
        narrow = InstanceMemory(persistent=default_persistent(), capacity=5)
        src.content_hash()
        serialized = []
        to_dict = InstanceMemory.to_dict

        def counting(self):
            serialized.append(self)
            return to_dict(self)

        monkeypatch.setattr(InstanceMemory, "to_dict", counting)
        for receiver in receivers + [narrow]:
            mem.replace_dynamic(receiver, src)
        assert [r.content_hash() for r in receivers] == [src.content_hash()] * 3
        assert serialized == []
        assert narrow.content_hash() != src.content_hash()
        assert len(serialized) == 1 and serialized[0] is narrow
        monkeypatch.undo()
        for receiver in receivers + [narrow]:
            assert receiver.content_hash() == receiver.clone().content_hash()

    @given(st.lists(RENDER_OPS, max_size=14))
    @settings(max_examples=40, deadline=None)
    def test_kept_hash_equals_a_fresh_hash(self, tmp_path_factory, ops):
        memory = default_memory(capacity=3)

        def source(n: int) -> InstanceMemory:
            other = default_memory(capacity=3, persistent=dict(memory.persistent))
            for host in range(n + 1):
                other.append(rule(host, stage=n))
                other.append(example(host + n))
            other.content_hash()
            return other

        for op, *args in ops:
            apply_op(memory, op, args, source, lambda: tmp_path_factory.mktemp("workspace"))
            assert memory.content_hash() == reference_hash(memory)

    def test_order_within_the_list_matters(self, memory):
        swapped = memory.clone()
        memory.append(rule(1))
        memory.append(rule(2))
        swapped.append(rule(2))
        swapped.append(rule(1))
        assert memory.content_hash() != swapped.content_hash()
