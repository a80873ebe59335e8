"""Chat-completion transport plus a deterministic offline mock.

The mock answers each request with a pure function of it, so equal requests
get equal replies with no cache or recorded fixtures. Every completion, real
or mocked, reports token usage; the shared :class:`TokenLedger` is the single
source of truth for token accounting and feeds both the usage log and the
run report totals.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable

logger = logging.getLogger(__name__)


class ConnectorError(RuntimeError):
    """Transport failed after exhausting retries."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    max_output_tokens: int = 10_000

    def content_hash(self) -> str:
        payload = json.dumps(
            {
                "model": self.model,
                "messages": [(m.role, m.content) for m in self.messages],
                "temperature": self.temperature,
                "max_output_tokens": self.max_output_tokens,
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class ChatResponse:
    content: str
    usage: TokenUsage
    provider_latency: float = 0.0
    retries: int = 0


@dataclass(frozen=True)
class RequestMeta:
    """Accounting coordinates attached to each completion call."""

    instance: int
    role: str
    phase: str  # "adaptation" | "evaluation"


@dataclass(frozen=True, slots=True)
class TokenLogEntry:
    instance: int
    role: str
    phase: str
    prompt_tokens: int
    completion_tokens: int

    def format(self) -> str:
        return (
            f"instance={self.instance}"
            f" role={self.role}"
            f" phase={self.phase}"
            f" prompt_tokens={self.prompt_tokens}"
            f" completion_tokens={self.completion_tokens}"
        )

    @classmethod
    def parse(cls, line: str) -> "TokenLogEntry":
        fields = dict(part.split("=", 1) for part in line.split())
        return cls(
            instance=int(fields["instance"]),
            role=fields["role"],
            phase=fields["phase"],
            prompt_tokens=int(fields["prompt_tokens"]),
            completion_tokens=int(fields["completion_tokens"]),
        )


class TokenLedger:
    """Thread-safe token accounting.

    Entries are appended as calls complete; :meth:`sort_by_instance` puts
    the ones a pool of jobs just added back in instance order. Beside the
    entries it keeps running ``[prompt, completion]`` sums per ``(phase,
    instance)``, so :meth:`totals` adds up a few buckets instead of
    rescanning every entry.
    """

    def __init__(self) -> None:
        self._entries: list[TokenLogEntry] = []
        self._sums: dict[tuple[str, int], list[int]] = {}
        self._lock = threading.Lock()

    def _add(self, entry: TokenLogEntry) -> None:
        """Append one entry; the caller holds the lock or owns the ledger alone."""
        self._entries.append(entry)
        bucket = self._sums.setdefault((entry.phase, entry.instance), [0, 0])
        bucket[0] += entry.prompt_tokens
        bucket[1] += entry.completion_tokens

    def record(self, meta: RequestMeta, usage: TokenUsage) -> None:
        entry = TokenLogEntry(
            instance=meta.instance,
            role=meta.role,
            phase=meta.phase,
            prompt_tokens=usage.prompt_tokens,
            completion_tokens=usage.completion_tokens,
        )
        with self._lock:
            self._add(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> list[TokenLogEntry]:
        with self._lock:
            return list(self._entries)

    def sort_by_instance(self, start: int = 0) -> None:
        """Stable-sort the entries from index ``start`` on by instance.

        Each instance's entries keep their order; the running sums do not
        depend on the order, so they stay as they are.
        """
        with self._lock:
            self._entries[start:] = sorted(self._entries[start:], key=attrgetter("instance"))

    def totals(self, phase: str | None = None, instance: int | None = None) -> TokenUsage:
        prompt = completion = 0
        with self._lock:
            for (p, i), (bucket_prompt, bucket_completion) in self._sums.items():
                if (phase is None or p == phase) and (instance is None or i == instance):
                    prompt += bucket_prompt
                    completion += bucket_completion
        return TokenUsage(prompt, completion)

    def write(self, path: str | Path) -> None:
        path = Path(path)
        lines = [e.format() for e in self.entries()]
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    @classmethod
    def read(cls, path: str | Path) -> "TokenLedger":
        ledger = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                ledger._add(TokenLogEntry.parse(line))
        return ledger


def approx_tokens(text: str) -> int:
    """Whitespace token approximation used for mock-mode accounting."""
    return len(text.split())


Responder = Callable[[ChatRequest], str]


class MockConnector:
    """Deterministic offline connector: the reply is a pure function of the request.

    Each call asks ``responder`` for the reply text and reports whitespace
    token counts of the prompt and the reply as its usage.

    Within an attempt a caller's memory is frozen, so it sends the same
    system prompt again and again. The count of the last system prompt of
    each ``(instance, role)`` is kept and reused while the text is equal;
    each entry holds its own text, so a lost update between threads can
    only cost a recount.
    """

    def __init__(self, responder: Responder):
        self.responder = responder
        self._system_tokens: dict[tuple[int, str], tuple[str, int]] = {}

    def _prompt_tokens(self, request: ChatRequest, meta: RequestMeta | None) -> int:
        messages = request.messages
        if meta is None or not messages or messages[0].role != "system":
            return sum(approx_tokens(m.content) for m in messages)
        system = messages[0].content
        key = (meta.instance, meta.role)
        cached = self._system_tokens.get(key)
        if cached is not None and cached[0] == system:
            count = cached[1]
        else:
            count = approx_tokens(system)
            self._system_tokens[key] = (system, count)
        return count + sum(approx_tokens(m.content) for m in messages[1:])

    def complete(self, request: ChatRequest, meta: RequestMeta | None = None) -> ChatResponse:
        content = self.responder(request)
        usage = TokenUsage(
            prompt_tokens=self._prompt_tokens(request, meta),
            completion_tokens=approx_tokens(content),
        )
        return ChatResponse(content=content, usage=usage, provider_latency=0.0)


# transport(url, headers, payload) -> (status_code, parsed_json)
Transport = Callable[[str, dict, dict], tuple[int, dict]]


def _requests_transport(url: str, headers: dict, payload: dict) -> tuple[int, dict]:
    import requests

    response = requests.post(url, headers=headers, json=payload, timeout=120)
    try:
        body = response.json()
    except ValueError:
        body = {}
    return response.status_code, body


class HttpConnector:
    """Provider-agnostic chat-completion client with bounded retries."""

    MAX_ATTEMPTS = 3
    BACKOFF_SECONDS = 0.5

    def __init__(
        self,
        base_url: str,
        api_key: str = "",
        transport: Transport | None = None,
        ledger: TokenLedger | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.transport = transport or _requests_transport
        self.ledger = ledger
        self.sleep = sleep

    def complete(self, request: ChatRequest, meta: RequestMeta | None = None) -> ChatResponse:
        url = f"{self.base_url}/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": request.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        last_status: int | None = None
        for attempt in range(self.MAX_ATTEMPTS):
            if attempt:  # back off before a retry; an exhausted call raises at once
                self.sleep(self.BACKOFF_SECONDS * 2 ** (attempt - 1))
            started = time.monotonic()
            try:
                status, body = self.transport(url, headers, payload)
            except OSError as exc:
                last_status = None
                logger.warning("connector transport error (attempt %d): %s", attempt + 1, exc)
                continue
            if 500 <= status < 600 or status == 429:
                last_status = status
                logger.warning("connector got status %d (attempt %d)", status, attempt + 1)
                continue
            if status != 200:
                raise ConnectorError(f"provider returned status {status}", status=status)
            latency = time.monotonic() - started
            try:
                content = body["choices"][0]["message"]["content"]
                usage_raw = body.get("usage", {})
                usage = TokenUsage(
                    prompt_tokens=int(usage_raw.get("prompt_tokens", 0)),
                    completion_tokens=int(usage_raw.get("completion_tokens", 0)),
                )
            except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
                raise ConnectorError(f"malformed provider reply: {exc!r}", status=200) from exc
            if not isinstance(content, str):
                raise ConnectorError("provider reply content is not text", status=200)
            if self.ledger is not None and meta is not None:
                self.ledger.record(meta, usage)
            if attempt:
                logger.info("connector recovered after %d retries", attempt)
            return ChatResponse(
                content=content, usage=usage, provider_latency=latency, retries=attempt
            )
        raise ConnectorError(
            f"provider unavailable after {self.MAX_ATTEMPTS} attempts", status=last_status
        )
