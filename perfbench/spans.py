"""Span tracing around the calls into each layer of ``src/forge``.

Spans are recorded by wrapping layer functions from outside the program: each
wrapper replaces the name at the place the caller looks it up (a module
global such as ``forge.protocol.save_workspace``, or a method on its class),
so the program itself is unchanged. Spans stay in memory until the run ends.

A thread-local stack gives every span its parent. A span opened on a
protocol worker thread with an empty stack takes as parent the innermost
open span of the thread that runs the session, i.e. the ``protocol.run``
span that submitted the work.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from forge import agents, cage_lite, experiments, llm_connector, memory, protocol, reflexion
from forge.reflexion import AttemptStatus


class Span(NamedTuple):
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    session: int
    tag: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``wrap`` turns a function into a span-recording one."""

    def __init__(self) -> None:
        # Plain tuples in Span field order: the collector untracks tuples of
        # atomic values, so a long run does not slow garbage collection.
        self._records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._session_stack: list[int] = []
        self._session = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def session(self, session: int) -> Iterator[None]:
        """Open the root span of one session on the calling thread."""
        self._session = session
        stack = self._stack()
        self._session_stack = stack
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._records.append((span_id, None, "session", start, end, session, None))

    def wrap(
        self,
        fn: Callable,
        name: str,
        tag: Callable[[tuple, dict, object], str | None] | None = None,
        when: Callable[[tuple, dict], bool] | None = None,
    ) -> Callable:
        """Record a span per call; ``when`` filters calls, ``tag`` labels them."""
        records = self._records
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._session_stack[-1] if self._session_stack else None
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                label = None if tag is None else tag(args, kwargs, result)
                records.append((span_id, parent, name, start, end, self._session, label))

        return traced

    def spans(self) -> list[Span]:
        return [Span._make(r) for r in self._records]


def write_spans(spans: list[Span], path: Path) -> None:
    """Write spans as JSON lines, one span a line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for s in spans:
            out.write(
                json.dumps(
                    {
                        "id": s.span_id,
                        "parent": s.parent,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "session": s.session,
                        "tag": s.tag,
                    }
                )
                + "\n"
            )


def _attempt_tag(args: tuple, kwargs: dict, result) -> str | None:
    if result is None:
        return None
    tau = kwargs["tau"] if "tau" in kwargs else args[2]
    if tau is None:
        return "frozen"
    return "aborted" if result.status is AttemptStatus.ABORTED else "completed"


def _connector_tag(args: tuple, kwargs: dict, result) -> str:
    return type(args[0]).__name__


def _is_evaluation(args: tuple, kwargs: dict) -> bool:
    ctx = kwargs.get("ctx")
    return ctx is not None and ctx.phase == protocol.PHASE_EVALUATION


# (owner, attribute, span name, tag, when). The owner is where the caller
# looks the name up: ``protocol`` imports ``save_workspace``, ``replace_dynamic``,
# ``run_frozen_episode`` and ``mock_responder`` by name, ``reflexion`` imports
# ``serialize_snapshot`` by name, ``experiments`` imports ``run_protocol`` by
# name, while ``run_attempt`` calls ``env.step`` and
# ``cage_lite.write_trajectory`` through the module, and the benchmark calls
# ``protocol.run_protocol`` through the module.
TARGETS = (
    (cage_lite, "step", "cage_lite.step", None, None),
    (cage_lite, "write_trajectory", "cage_lite.write_trajectory", None, None),
    (agents.ScriptedBackend, "decide", "agents.decide", None, None),
    (agents.LLMBackend, "decide", "agents.decide", None, None),
    (agents, "serialize_snapshot", "agents.serialize_snapshot", None, None),
    (reflexion, "serialize_snapshot", "agents.serialize_snapshot", None, None),
    (protocol, "mock_responder", "llm_connector.responder", None, None),
    (llm_connector.MockConnector, "complete", "llm_connector.complete", _connector_tag, None),
    (llm_connector.HttpConnector, "complete", "llm_connector.complete", _connector_tag, None),
    (llm_connector.ChatRequest, "content_hash", "llm_connector.request_hash", None, None),
    (memory.InstanceMemory, "content_hash", "memory.content_hash", None, None),
    (memory.InstanceMemory, "render", "memory.render", None, None),
    (protocol, "save_workspace", "memory.save_workspace", None, None),
    (protocol, "replace_dynamic", "memory.replace_dynamic", None, None),
    (reflexion, "run_attempt", "reflexion.run_attempt", _attempt_tag, None),
    (reflexion, "synthesize", "reflexion.synthesize", None, None),
    (protocol, "checkpoint", "protocol.checkpoint", None, None),
    (protocol, "run_frozen_episode", "protocol.eval", None, _is_evaluation),
    (protocol, "_worker", "protocol.worker", None, None),
    (protocol, "run_protocol", "protocol.run", None, None),
    (experiments, "run_protocol", "protocol.run", None, None),
    (experiments, "evaluate_zero_shot", "experiments.zero_shot", None, None),
)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Install span wrappers on every target; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, tag, when in TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, tag=tag, when=when))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span of one session, by span id.

    An instant of the session is charged to the spans that are open and have
    no open child; when spans on several threads qualify, they share it
    equally. Without concurrency this is a span's duration minus the part its
    children cover; with it, the self times still add up to the root span.
    Raises ValueError if a span outlives its parent.
    """
    events = []
    for s in spans:
        # At equal times a parent opens before and closes after its children;
        # ids are handed out in opening order, so a child's id is larger.
        events.append((s.start, 1, s.span_id, s))
        events.append((s.end, 0, -s.span_id, s))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

    open_children: dict[int, int] = {}
    leaf_mark: dict[int, float] = {}
    result: dict[int, float] = {s.span_id: 0.0 for s in spans}
    shared = 0.0  # running integral of dt / (number of leaf spans)
    leaves = 0
    last = events[0][0] if events else 0.0
    for t, is_start, _, s in events:
        if leaves:
            shared += (t - last) / leaves
        last = t
        parent = s.parent if s.parent in result else None
        if is_start:
            if parent is not None:
                if parent not in open_children:
                    raise ValueError(f"span {s.name} opened outside its parent")
                if open_children[parent] == 0:
                    result[parent] += shared - leaf_mark[parent]
                    leaves -= 1
                open_children[parent] += 1
            open_children[s.span_id] = 0
            leaf_mark[s.span_id] = shared
            leaves += 1
        else:
            if open_children.pop(s.span_id) != 0:
                raise ValueError(f"span {s.name} closed before its children")
            result[s.span_id] += shared - leaf_mark[s.span_id]
            leaves -= 1
            if parent is not None:
                if parent not in open_children:
                    raise ValueError(f"span {s.name} outlived its parent")
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaf_mark[parent] = shared
                    leaves += 1
    return result


@dataclass
class SessionSplit:
    """Seconds of one session's wall time by span name."""

    self_s: dict[str, float]
    inclusive_s: dict[str, float]  # self time of the span and all its descendants
    root_s: float


def session_split(spans: list[Span]) -> SessionSplit:
    """Split one session's root span among span names.

    Raises ValueError unless there is one root span and the self times of
    all spans add up to its duration.
    """
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1:
        raise ValueError(f"session has {len(roots)} root spans")
    root = roots[0].duration
    own = self_times(spans)
    total = sum(own.values())
    if abs(total - root) > 1e-6 * max(root, 1.0):
        raise ValueError(f"self times add up to {total:.6f} s, root span is {root:.6f} s")
    subtree = dict(own)
    for s in sorted(spans, key=lambda s: s.span_id, reverse=True):
        if s.parent is not None:
            subtree[s.parent] += subtree[s.span_id]
    split = SessionSplit({}, {}, root)
    for s in spans:
        split.self_s[s.name] = split.self_s.get(s.name, 0.0) + own[s.span_id]
        split.inclusive_s[s.name] = split.inclusive_s.get(s.name, 0.0) + subtree[s.span_id]
    return split


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".calls", ".retries", ".prompt_tokens")):
        return "count"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "ratio"


def layer_metrics(
    spans: list[Span],
    splits: list[SessionSplit],
    prompt_tokens: int,
    overhead: list[float],
) -> dict[str, float]:
    """Per-layer metrics, averaged per traced session.

    ``spans`` are those of the traced sessions and ``splits`` their
    ``session_split``; ``prompt_tokens`` is the total over those sessions and
    ``overhead`` holds traced/untraced - 1 per same-seed pair. Seconds named
    ``.s`` and ``.self_s`` are shares of session wall time, so they never
    exceed it however many worker threads overlap; ``transport_wait_s`` is
    the summed duration of provider calls, overlapping or not.
    """
    self_s: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    for split in splits:
        for name, seconds in split.self_s.items():
            self_s[name] = self_s.get(name, 0.0) + seconds
        for name, seconds in split.inclusive_s.items():
            inclusive[name] = inclusive.get(name, 0.0) + seconds

    calls: dict[str, int] = {}
    tags: dict[tuple[str, str | None], int] = {}
    transport_wait = 0.0
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        tags[(s.name, s.tag)] = tags.get((s.name, s.tag), 0) + 1
        if s.name == "llm_connector.transport":
            transport_wait += s.duration

    # Training wall time of a protocol run: first worker start to last worker end.
    workers: dict[int | None, list[Span]] = {}
    for s in spans:
        if s.name == "protocol.worker":
            workers.setdefault(s.parent, []).append(s)
    worker_busy = sum(s.duration for group in workers.values() for s in group)
    training_wall = sum(
        max(s.end for s in group) - min(s.start for s in group) for group in workers.values()
    )

    mock_calls = tags.get(("llm_connector.complete", "MockConnector"), 0)
    http_calls = tags.get(("llm_connector.complete", "HttpConnector"), 0)
    aborted = tags.get(("reflexion.run_attempt", "aborted"), 0)
    attempts = aborted + tags.get(("reflexion.run_attempt", "completed"), 0)
    n = max(len(splits), 1)

    def per(value: float) -> float:
        return value / n

    return {
        "cage_lite.step.calls": per(calls.get("cage_lite.step", 0)),
        "cage_lite.step.s": per(inclusive.get("cage_lite.step", 0.0)),
        "cage_lite.write_trajectory.s": per(inclusive.get("cage_lite.write_trajectory", 0.0)),
        "agents.decide.calls": per(calls.get("agents.decide", 0)),
        "agents.decide.self_s": per(self_s.get("agents.decide", 0.0)),
        "agents.serialize_snapshot.s": per(inclusive.get("agents.serialize_snapshot", 0.0)),
        "llm_connector.complete.calls": per(calls.get("llm_connector.complete", 0)),
        "llm_connector.complete.self_s": per(self_s.get("llm_connector.complete", 0.0)),
        "llm_connector.request_hash.s": per(inclusive.get("llm_connector.request_hash", 0.0)),
        "llm_connector.fixture_hit_ratio": (
            (mock_calls - calls.get("llm_connector.responder", 0)) / mock_calls
            if mock_calls
            else 0.0
        ),
        "llm_connector.transport_wait_s": per(transport_wait),
        "llm_connector.retries": per(calls.get("llm_connector.transport", 0) - http_calls),
        "llm_connector.prompt_tokens": per(prompt_tokens),
        "memory.content_hash.calls": per(calls.get("memory.content_hash", 0)),
        "memory.content_hash.s": per(inclusive.get("memory.content_hash", 0.0)),
        "memory.render.calls": per(calls.get("memory.render", 0)),
        "memory.render.s": per(inclusive.get("memory.render", 0.0)),
        "memory.save_workspace.s": per(inclusive.get("memory.save_workspace", 0.0)),
        "memory.replace_dynamic.s": per(inclusive.get("memory.replace_dynamic", 0.0)),
        "reflexion.run_attempt.calls": per(calls.get("reflexion.run_attempt", 0)),
        "reflexion.abort_ratio": aborted / attempts if attempts else 0.0,
        "reflexion.synthesize.calls": per(calls.get("reflexion.synthesize", 0)),
        "reflexion.synthesize.self_s": per(self_s.get("reflexion.synthesize", 0.0)),
        "protocol.checkpoint.s": per(inclusive.get("protocol.checkpoint", 0.0)),
        "protocol.eval.s": per(inclusive.get("protocol.eval", 0.0)),
        "protocol.worker_overlap": worker_busy / training_wall if training_wall else 0.0,
        "experiments.zero_shot.s": per(inclusive.get("experiments.zero_shot", 0.0)),
        "trace.overhead_frac": statistics.median(overhead) if overhead else 0.0,
    }
