"""The benchmark's span targets must name attributes that exist in ``src/forge``.

``perfbench/spans.py`` wraps each ``(owner, attribute)`` of ``TARGETS`` by
looking it up in ``owner.__dict__``; a rename in the program would make every
traced benchmark run raise ``KeyError``. A wrapped name must also be the one
the program calls, or its span reads 0 without failing.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import read_attempt_logs
from forge import cage_lite, protocol
from forge.agents import ScriptedBackend, default_memory
from forge.reflexion import AttemptStatus, run_attempt

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = load_spans()
TARGETS = spans.TARGETS


@pytest.mark.parametrize(
    "owner, attr", [(t[0], t[1]) for t in TARGETS], ids=[t[2] + ":" + t[1] for t in TARGETS]
)
def test_span_target_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])


def test_every_simulator_step_goes_through_the_module_step(monkeypatch):
    calls = 0
    original = cage_lite.step

    def counting(episode, action):
        nonlocal calls
        calls += 1
        return original(episode, action)

    monkeypatch.setattr(cage_lite, "step", counting)
    outcome = run_attempt(default_memory(), 7, None, ScriptedBackend())
    assert outcome.status is AttemptStatus.COMPLETED
    assert calls == len(outcome.trajectory) == 30


def test_a_run_directory_is_written_through_the_wrapped_names(tmp_path):
    config = protocol.ProtocolConfig(instances=2, stages=2, attempts_per_stage=2, backend="mock")
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        protocol.run_protocol(config, run_dir=tmp_path)
    names = [s.name for s in tracer.spans()]
    trajectories = len(read_attempt_logs(tmp_path)[0])
    assert trajectories > 0
    assert names.count("cage_lite.write_trajectory") == trajectories
    assert names.count("memory.save_workspace") > 0
