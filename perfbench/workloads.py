"""The benchmark's workloads: what one session runs, and how its outputs are checked.

A workload drives the program only through its public entry points
(``run_protocol``, ``run_directional_study``, ``load_config`` and
``HttpConnector`` with an injected transport). ``run`` is the timed part of a
session; ``check`` runs after the clock stops and returns the bytes a
same-seed replay must reproduce, the session's behaviour digest and any
failed output check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from forge import experiments, protocol
from forge.agents import default_persistent, mock_responder
from forge.llm_connector import (
    ChatMessage,
    ChatRequest,
    HttpConnector,
    TokenLedger,
    approx_tokens,
)
from forge.memory import Representation, load_workspace, save_workspace

CONFIG = Path("configs") / "forge.yaml"

# Simulated provider latency of the run-http transport. It stands in for a
# real provider's round trip; at 2 ms it is above the ~1.2 ms of program CPU
# per call, so the protocol's worker pool overlaps waiting as it would over
# a network, and a session still takes only a few seconds.
HTTP_DELAY_S = 0.002

PHASES = (protocol.PHASE_ADAPTATION, protocol.PHASE_EVALUATION)


@dataclass
class SessionCheck:
    """Outcome of the output checks of one session."""

    replay: dict[str, bytes] = field(default_factory=dict)
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    prompt_tokens: int = 0


def behaviour_digest(report: dict) -> str:
    """SHA-256 of a final report without its memory-hash fields.

    A change to how memory is hashed changes ``memory_hash_final`` and the
    per-stage ``memory_hashes`` but not behaviour; this digest stays put.
    """
    stripped = {k: v for k, v in report.items() if k != "memory_hash_final"}
    stripped["stage_reports"] = [
        {k: v for k, v in stage.items() if k != "memory_hashes"}
        for stage in report.get("stage_reports", [])
    ]
    payload = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _combine(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def _rehash_problems(report: dict, snapshot_dirs: dict[str, Path]) -> list[str]:
    """``load_workspace`` on each final snapshot must re-hash to the report."""
    problems = []
    capacity = report["config"]["memory_capacity"]
    for instance, expected in sorted(report["memory_hash_final"].items()):
        directory = snapshot_dirs.get(instance)
        if directory is None or not directory.is_dir():
            problems.append(f"instance {instance}: final memory snapshot missing")
            continue
        memory = load_workspace(directory, default_persistent(), capacity=capacity)
        if memory.content_hash() != expected:
            problems.append(f"instance {instance}: snapshot re-hash != memory_hash_final")
    return problems


def _parse_report(data: bytes) -> dict:
    report = json.loads(data.decode("utf-8"))
    for key in ("config", "eval_returns", "memory_hash_final", "tokens", "stage_reports"):
        if key not in report:
            raise ValueError(f"final report lacks {key!r}")
    return report


class StudyScripted:
    """``run_directional_study`` on the scripted backend, one base seed per session.

    Each session covers broadcast, isolated and zero-shot. No run directory
    is written during the session; after it, the final memories are saved
    with ``save_workspace`` so that the same re-hash check applies.
    """

    name = "study-scripted"
    batch = 4  # sessions in the fixed set that wall_s times

    def __init__(self, root: Path):
        self.config = protocol.ProtocolConfig(backend="scripted")

    def prepare(self) -> None:
        pass

    def run(self, base_seed: int, run_dir: Path, tracer=None):
        runs = []
        inner = experiments.run_protocol

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            runs.append(result)
            return result

        experiments.run_protocol = capture
        try:
            study = experiments.run_directional_study([base_seed], self.config)
        finally:
            experiments.run_protocol = inner
        return study, runs

    def check(self, raw, run_dir: Path) -> SessionCheck:
        study, runs = raw
        out = SessionCheck()
        comparisons = [dataclasses.asdict(c) for c in study.comparisons]
        out.replay["study.json"] = json.dumps(comparisons, sort_keys=True).encode("utf-8")
        digests = [hashlib.sha256(out.replay["study.json"]).hexdigest()]
        if len(runs) != 2:
            out.problems.append(f"expected 2 protocol runs per seed, saw {len(runs)}")
        for k, result in enumerate(runs):
            name = f"run{k}"
            out.replay[f"{name}/final_report.json"] = result.report.to_json().encode("utf-8")
            report = _parse_report(out.replay[f"{name}/final_report.json"])
            snapshot_dirs = {}
            for state in result.population:
                directory = run_dir / name / f"instance_{state.instance:02d}"
                for path in save_workspace(state.memory, directory):
                    out.replay[path.relative_to(run_dir).as_posix()] = path.read_bytes()
                snapshot_dirs[str(state.instance)] = directory
            out.problems.extend(_rehash_problems(report, snapshot_dirs))
            digests.append(behaviour_digest(report))
        out.digest = _combine(digests)
        return out


class _RunDirWorkload:
    """A ``forge run`` session: one ``run_protocol`` call writing a run directory."""

    def __init__(self, root: Path):
        self.config_path = root / CONFIG
        self.config = protocol.load_config(self.config_path)

    def prepare(self) -> None:
        pass

    def _run(self, base_seed: int, run_dir: Path, connector=None):
        # Looked up through the module so that a traced run sees the call.
        return protocol.run_protocol(
            replace(self.config, base_seed=base_seed),
            run_dir=run_dir,
            connector=connector,
            config_source=self.config_path,
        )

    def _check_run_dir(self, run_dir: Path) -> tuple[SessionCheck, dict]:
        out = SessionCheck()
        out.replay["final_report.json"] = (run_dir / "final_report.json").read_bytes()
        for path in sorted((run_dir / "workspaces").glob("instance_*/stage_*/memory/*.yaml")):
            out.replay[path.relative_to(run_dir).as_posix()] = path.read_bytes()
        report = _parse_report(out.replay["final_report.json"])
        last_stage = f"stage_{report['config']['stages']:02d}"
        workspaces = run_dir / "workspaces"
        snapshot_dirs = {
            instance: workspaces / f"instance_{int(instance):02d}" / last_stage / "memory"
            for instance in report["memory_hash_final"]
        }
        out.problems.extend(_rehash_problems(report, snapshot_dirs))
        out.digest = behaviour_digest(report)
        return out, report


class RunMock(_RunDirWorkload):
    """``configs/forge.yaml`` with ``backend: mock`` and ``representation: mixed``."""

    name = "run-mock"
    batch = 2

    def __init__(self, root: Path):
        super().__init__(root)
        self.config = replace(
            self.config, backend="mock", representation=Representation.MIXED
        )

    def run(self, base_seed: int, run_dir: Path, tracer=None):
        return self._run(base_seed, run_dir)

    def check(self, raw, run_dir: Path) -> SessionCheck:
        out, report = self._check_run_dir(run_dir)
        logged = TokenLedger.read(run_dir / "token_usage.log")
        for phase in PHASES:
            usage = logged.totals(phase=phase)
            expected = {"prompt": usage.prompt_tokens, "completion": usage.completion_tokens}
            if report["tokens"][phase] != expected:
                out.problems.append(f"{phase} tokens in report != token_usage.log sums")
        out.prompt_tokens = sum(report["tokens"][phase]["prompt"] for phase in PHASES)
        return out


class SimulatedProvider:
    """In-process chat provider for ``HttpConnector``: ``mock_responder`` after a delay.

    It is called from the protocol's worker threads; ``list.append`` keeps
    the usage record without a lock.
    """

    def __init__(self, delay: float):
        self.delay = delay
        self.usage: list[tuple[int, int]] = []

    def __call__(self, url: str, headers: dict, payload: dict) -> tuple[int, dict]:
        request = ChatRequest(
            model=payload["model"],
            messages=tuple(ChatMessage(m["role"], m["content"]) for m in payload["messages"]),
            temperature=payload["temperature"],
            max_output_tokens=payload["max_tokens"],
        )
        content = mock_responder(request)
        time.sleep(self.delay)
        prompt = sum(approx_tokens(m.content) for m in request.messages)
        completion = approx_tokens(content)
        self.usage.append((prompt, completion))
        body = {
            "choices": [{"message": {"content": content}}],
            "usage": {"prompt_tokens": prompt, "completion_tokens": completion},
        }
        return 200, body


class RunHttp(_RunDirWorkload):
    """``configs/forge.yaml`` (rules) over ``HttpConnector`` and a simulated provider.

    ``run_protocol(connector=...)`` does not route the connector's usage into
    the run's own ledger, so tokens are counted in a ledger the benchmark
    hands to ``HttpConnector``.
    """

    name = "run-http"
    batch = 2

    def __init__(self, root: Path):
        super().__init__(root)
        self.delay = HTTP_DELAY_S

    def connector(self, tracer=None) -> tuple[HttpConnector, SimulatedProvider]:
        provider = SimulatedProvider(self.delay)
        transport = provider if tracer is None else tracer.wrap(provider, "llm_connector.transport")
        # The injected transport answers in process; the URL is never contacted.
        connector = HttpConnector(
            "http://provider.invalid/v1", transport=transport, ledger=TokenLedger()
        )
        return connector, provider

    def prepare(self) -> None:
        self.connector()

    def run(self, base_seed: int, run_dir: Path, tracer=None):
        connector, provider = self.connector(tracer)
        self._run(base_seed, run_dir, connector=connector)
        return connector, provider

    def check(self, raw, run_dir: Path) -> SessionCheck:
        connector, provider = raw
        out, report = self._check_run_dir(run_dir)
        sent = (sum(p for p, _ in provider.usage), sum(c for _, c in provider.usage))
        total = connector.ledger.totals()
        if (total.prompt_tokens, total.completion_tokens) != sent:
            out.problems.append("connector ledger != tokens the provider reported")
        for phase in PHASES:
            usage = connector.ledger.totals(phase=phase)
            counted = {"prompt": usage.prompt_tokens, "completion": usage.completion_tokens}
            # Zero is the known gap: the run's ledger never sees this connector.
            if report["tokens"][phase] not in ({"prompt": 0, "completion": 0}, counted):
                out.problems.append(f"{phase} tokens in report match neither 0 nor the connector")
        out.prompt_tokens = total.prompt_tokens
        return out


WORKLOADS = {w.name: w for w in (StudyScripted, RunMock, RunHttp)}


def make(name: str, root: Path):
    return WORKLOADS[name](root)
