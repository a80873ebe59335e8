"""The benchmark's span targets must name attributes that exist in ``src/forge``.

``perfbench/spans.py`` wraps each ``(owner, attribute)`` of ``TARGETS`` by
looking it up in ``owner.__dict__``; a rename in the program would make every
traced benchmark run raise ``KeyError``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().TARGETS


@pytest.mark.parametrize(
    "owner, attr", [(t[0], t[1]) for t in TARGETS], ids=[t[2] + ":" + t[1] for t in TARGETS]
)
def test_span_target_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__
    assert callable(owner.__dict__[attr])
