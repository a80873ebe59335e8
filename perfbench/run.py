"""Benchmark of the forge protocol, one workload per invocation.

    python3 perfbench/run.py --workload run-mock --seed 1 --seconds 40 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory. A run executes sessions on base seeds derived from ``--seed``
until the next one would end after ``--seconds`` (see ``run_benchmark``).
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer split from traced sessions.

Output: a table of every metric with its unit, a ``provenance`` line, a
``behaviour_digest`` line, and as the last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results also go to
``.perfbench/results/`` and, when traced, spans to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

import forge  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    Span,
    Tracer,
    instrument,
    layer_metrics,
    session_split,
    unit,
    write_spans,
)

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "session_s_p50": "s", "peak_rss_mb": "MB"}


@dataclass
class Session:
    index: int
    base_seed: int
    kind: str  # "reference" | "timed" | "traced"; see run_benchmark
    seconds: float = 0.0
    ran: bool = False
    check: workloads.SessionCheck | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    batch: int
    sessions: list[Session] = field(default_factory=list)
    overhead: list[float] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.sessions if s.failed)

    @property
    def digest(self) -> str:
        digests = [s.check.digest for s in self.sessions if s.kind != "traced" and s.check]
        return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()

    def timed(self) -> list[float]:
        kind = "reference" if self.trace else "timed"
        return [s.seconds for s in self.sessions if s.kind == kind and s.ran]

    def batch_walls(self) -> list[float]:
        """Wall time of each complete batch: the workload's fixed set of sessions."""
        timed = [s for s in self.sessions if s.kind == "timed"]
        batches = [timed[i : i + self.batch] for i in range(0, len(timed), self.batch)]
        complete = [b for b in batches if len(b) == self.batch and all(s.ran for s in b)]
        return [sum(s.seconds for s in b) for b in complete]

    def end_to_end(self) -> dict[str, float]:
        walls = self.batch_walls()
        timed = self.timed()
        return {
            "setup_s": statistics.median(self.setup) if self.setup else 0.0,
            "wall_s": statistics.median(walls) if walls else 0.0,
            "session_s_p50": statistics.median(timed) if timed else 0.0,
            "peak_rss_mb": self.peak_rss_mb,
        }


def base_seed_for(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def measure_setup(name: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds from starting a fresh interpreter to a finished set-up, per repeat."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(probe), name], stdout=subprocess.PIPE, cwd=ROOT
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - started
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def run_session(
    workload, index: int, base_seed: int, kind: str, workdir: Path, tracer: Tracer | None = None
) -> Session:
    """Run, time and check one session; its run directory is removed afterwards."""
    session = Session(index=index, base_seed=base_seed, kind=kind)
    run_dir = workdir / f"session{index:03d}"
    try:
        try:
            if tracer is None:
                started = time.perf_counter()
                raw = workload.run(base_seed, run_dir)
                session.seconds = time.perf_counter() - started
            else:
                with instrument(tracer), tracer.session(index):
                    started = time.perf_counter()
                    raw = workload.run(base_seed, run_dir, tracer)
                    session.seconds = time.perf_counter() - started
        except Exception as exc:  # a raising session is counted as failed, not fatal
            traceback.print_exc(file=sys.stderr)
            session.problems.append(f"session raised {type(exc).__name__}: {exc}")
            return session
        session.ran = True
        try:
            session.check = workload.check(raw, run_dir)
        except Exception as exc:  # an unreadable output fails the session's checks
            traceback.print_exc(file=sys.stderr)
            session.problems.append(f"output check raised {type(exc).__name__}: {exc}")
            return session
        session.problems.extend(session.check.problems)
        return session
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def compare_replay(first: Session, second: Session) -> None:
    """Two sessions on one base seed must leave byte-identical outputs."""
    if first.check is None or second.check is None:
        return
    a, b = first.check.replay, second.check.replay
    differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    if differing:
        problem = f"same-seed replay differs in {differing[0]} ({len(differing)} files)"
        first.problems.append(problem)
        second.problems.append(problem)


def run_benchmark(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    """Run sessions of the workload until the next one would end after ``seconds``.

    Untraced, a reference session on the first base seed comes first; it
    fills lazy caches and is replayed by the first timed session, and the
    two must match byte for byte. Timed sessions then run on fresh base
    seeds, at least one full batch of them. Traced, every base seed runs
    twice, untraced then traced: the pair must match, and it gives the
    tracing overhead.
    """
    result = Result(workload=workload.name, seed=seed, trace=trace, batch=workload.batch)
    tracer = Tracer() if trace else None
    began = time.perf_counter()
    seeds = (base_seed_for(workload.name, seed, i) for i in itertools.count())

    def add(base_seed: int, kind: str, traced: bool = False) -> Session:
        session = run_session(
            workload, len(result.sessions), base_seed, kind, workdir, tracer if traced else None
        )
        result.sessions.append(session)
        return session

    base_seed = next(seeds)
    if not trace:
        reference = add(base_seed, "reference")
    units = 0
    while True:
        unit_began = time.perf_counter()
        if trace:
            reference = add(base_seed, "reference")
            second = add(base_seed, "traced", traced=True)
            compare_replay(reference, second)
            if reference.ran and second.ran:
                result.overhead.append(second.seconds / reference.seconds - 1.0)
        else:
            timed = add(base_seed, "timed")
            if units == 0:
                compare_replay(reference, timed)
        for session in result.sessions:
            if session.check is not None:
                session.check.replay = {}
        units += 1
        now = time.perf_counter()
        enough = trace or units >= result.batch
        if enough and now - began + (now - unit_began) > seconds:
            break
        base_seed = next(seeds)
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result.spans = tracer.spans()
        result.layers = _layers(result, result.spans)
    return result


def _layers(result: Result, spans: list[Span]) -> dict[str, float]:
    by_session: dict[int, list[Span]] = {}
    for span in spans:
        by_session.setdefault(span.session, []).append(span)
    kept: list[Span] = []
    splits = []
    prompt_tokens = 0
    for session in result.sessions:
        if session.kind != "traced" or session.failed:
            continue
        try:
            split = session_split(by_session.get(session.index, []))
        except ValueError as exc:
            session.problems.append(f"trace: {exc}")
            continue
        kept += by_session[session.index]
        splits.append(split)
        prompt_tokens += session.check.prompt_tokens
    return layer_metrics(kept, splits, prompt_tokens, result.overhead)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(result: Result, seconds: float) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        "run_seconds": seconds,
        "sessions": len(result.sessions),
        "batch": result.batch,
        "http_delay_s": workloads.HTTP_DELAY_S,
    }


def metrics(result: Result) -> dict[str, dict]:
    if result.trace:
        return {k: {"value": v, "unit": unit(k)} for k, v in result.layers.items()}
    return {
        k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result.end_to_end().items()
    }


def table(result: Result) -> list[str]:
    """Every metric by name with its unit, and the sample count behind it."""
    n = len(result.sessions)
    notes = {
        "setup_s": f"median of {len(result.setup)} set-ups",
        "wall_s": f"median of {len(result.batch_walls())} batches of {result.batch} sessions",
        "session_s_p50": f"median of {len(result.timed())} untraced sessions",
    }
    lines = [f"workload {result.workload}  seed {result.seed}  trace {int(result.trace)}"]
    end_to_end = result.end_to_end()
    shown = ("setup_s", "session_s_p50") if result.trace else tuple(end_to_end)
    rows = [(k, end_to_end[k], END_TO_END_UNITS[k], notes.get(k, "")) for k in shown]
    rows += [(k, v, unit(k), "per traced session") for k, v in result.layers.items()]
    failed_frac = result.failed / n if n else 0.0
    rows.append(("failed_frac", failed_frac, "ratio", f"{result.failed} of {n} sessions"))
    for name, value, unit_, note in rows:
        lines.append(f"  {name:34s} {value:14.6f} {unit_:6s} {note}")
    for session in result.sessions:
        for problem in session.problems:
            lines.append(
                f"  FAILED session {session.index} base seed {session.base_seed}: {problem}"
            )
    return lines


def emit(
    result: Result, seconds: float, out=sys.stdout, results_dir: Path = OUT / "results"
) -> dict:
    """Print the table, provenance and digest, then the result line; return it."""
    line = {
        "correct": result.failed == 0,
        "attempted": len(result.sessions),
        "failed": result.failed,
        "metrics": metrics(result),
    }
    record = {
        "provenance": provenance(result, seconds),
        "behaviour_digest": result.digest,
        "sessions": [[s.index, s.base_seed, s.kind, s.seconds] for s in result.sessions],
        **line,
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{result.workload}-seed{result.seed}-trace{int(result.trace)}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for text in table(result):
        print(text, file=out)
    print("provenance " + json.dumps(record["provenance"], sort_keys=True), file=out)
    print("behaviour_digest " + result.digest, file=out)
    print(json.dumps(line, sort_keys=True), file=out, flush=True)
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(forge.__file__).resolve().parent != (ROOT / "src" / "forge").resolve():
        print(f"perfbench: forge was imported from {forge.__file__}, not src/", file=sys.stderr)
        return 2
    setup = measure_setup(args.workload)
    workload = workloads.make(args.workload, ROOT)
    workload.prepare()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        result = run_benchmark(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.setup = setup
    if result.trace:
        write_spans(result.spans, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    emit(result, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
