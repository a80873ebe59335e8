"""Tests of the benchmark itself, on tiny protocol configs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, session_split  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    workload = workloads.make(name, run.ROOT)
    workload.config = replace(
        workload.config,
        instances=2,
        stages=1,
        attempts_per_stage=2,
        eval_episodes_per_instance=1,
    )
    if name == "run-http":
        workload.delay = 0.0
    return workload


def bench(workload, tmp_path: Path, trace: bool = False):
    result = run.run_benchmark(workload, seed=1, seconds=0, trace=trace, workdir=tmp_path / "work")
    result.setup = [0.01]
    out = io.StringIO()
    line = run.emit(result, 0, out=out, results_dir=tmp_path / "results")
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == line
    return result, line, lines


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result, line, lines = bench(tiny(name), tmp_path, trace=trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == (2 if trace else 1 + result.batch)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    table = [text.split() for text in lines[1:-1]]
    printed = {row[0]: row[2] for row in table if len(row) >= 3}
    for metric in spec:
        assert printed[metric["name"]] == metric["unit"]
    assert printed["failed_frac"] == "ratio"
    assert any(text.startswith("behaviour_digest ") for text in lines)
    provenance = json.loads(next(t for t in lines if t.startswith("provenance ")).split(" ", 1)[1])
    assert provenance["workload"] == name and provenance["sessions"] == line["attempted"]


def test_corrupted_report_counts_as_failed(tmp_path):
    workload = tiny("run-mock")
    clean_run = workload.run

    def corrupting_run(base_seed, run_dir, tracer=None):
        raw = clean_run(base_seed, run_dir, tracer)
        if run_dir.name.endswith("1"):
            report = run_dir / "final_report.json"
            report.write_text(report.read_text(encoding="utf-8")[:-40], encoding="utf-8")
        return raw

    workload.run = corrupting_run
    result, line, lines = bench(workload, tmp_path)
    assert line["correct"] is False
    assert line["failed"] >= 1
    assert any("FAILED" in text for text in lines)


def test_nondeterministic_session_counts_as_failed(tmp_path):
    workload = tiny("study-scripted")
    clean_run = workload.run
    calls = []

    def drifting_run(base_seed, run_dir, tracer=None):
        calls.append(base_seed)
        return clean_run(base_seed + len(calls) - 1, run_dir, tracer)

    workload.run = drifting_run
    result, line, _ = bench(workload, tmp_path)
    assert line["failed"] == 2
    first, second = result.sessions[:2]
    assert first.base_seed == second.base_seed
    assert any("same-seed replay differs" in p for p in first.problems + second.problems)


def test_wrong_memory_hash_counts_as_failed(tmp_path):
    workload = tiny("run-http")
    clean_run = workload.run

    def tampering_run(base_seed, run_dir, tracer=None):
        raw = clean_run(base_seed, run_dir, tracer)
        path = run_dir / "final_report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["memory_hash_final"]["1"] = "0" * 64
        path.write_text(json.dumps(report), encoding="utf-8")
        return raw

    workload.run = tampering_run
    result, line, _ = bench(workload, tmp_path)
    assert line["failed"] == line["attempted"] == 3
    assert any("re-hash" in p for s in result.sessions for p in s.problems)


def test_self_times_share_concurrent_wall_time():
    # root 0..10; one worker thread span 2..6 and another 4..8 under it;
    # a child 4..5 inside the first worker.
    spans = [
        Span(1, None, "session", 0.0, 10.0, 0),
        Span(2, 1, "protocol.worker", 2.0, 6.0, 0),
        Span(3, 1, "protocol.worker", 4.0, 8.0, 0),
        Span(4, 2, "cage_lite.step", 4.0, 5.0, 0),
    ]
    split = session_split(spans)
    # 0-2 root; 2-4 worker A; 4-5 step and worker B share; 5-6 A and B share;
    # 6-8 worker B; 8-10 root.
    assert split.self_s["session"] == pytest.approx(4.0)
    assert split.self_s["cage_lite.step"] == pytest.approx(0.5)
    assert split.self_s["protocol.worker"] == pytest.approx(5.5)
    assert split.inclusive_s["session"] == pytest.approx(10.0)
    assert sum(split.self_s.values()) == pytest.approx(split.root_s)


def test_span_outliving_its_parent_is_rejected():
    spans = [Span(1, None, "session", 0.0, 10.0, 0), Span(2, 1, "cage_lite.step", 9.0, 11.0, 0)]
    with pytest.raises(ValueError):
        session_split(spans)


def test_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-mock", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
