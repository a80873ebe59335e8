"""Smoke tests for the scripts under ``scripts/``: each ``main()`` runs and prints its table."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, argv: list[str], monkeypatch) -> None:
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.setattr(sys, "argv", [name, *argv])
    assert main() is None


def test_directional_study_prints_its_table(monkeypatch, capsys):
    argv = ["--seeds", "1", "--first-seed", "3", "--instances", "2", "--stages", "1", "--attempts", "1"]
    run_script("directional_study.py", argv, monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].split() == ["seed", "broadcast", "isolated", "zero-shot", "ordered"]
    assert lines[-2].split()[0] == "3"
    assert lines[-1].startswith("ordering holds in ")


def test_trigger_threshold_analysis_prints_its_table(monkeypatch, capsys, tmp_path):
    log = tmp_path / "penalties.log"
    run_script("trigger_threshold_analysis.py", ["--log", str(log)], monkeypatch)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"penalty log written to {log}"
    assert lines[1].split() == ["tau", "captured", "false", "pos", "precision", "recall"]
    assert len(lines) == 2 + 7
    assert log.stat().st_size > 0
