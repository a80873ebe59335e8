from __future__ import annotations

import sys
import threading

import pytest

from forge.llm_connector import (
    ChatMessage,
    ChatRequest,
    ConnectorError,
    HttpConnector,
    MockConnector,
    RequestMeta,
    TokenLedger,
    TokenLogEntry,
    TokenUsage,
    approx_tokens,
)


def request(text: str = "hello world") -> ChatRequest:
    return ChatRequest(model="m", messages=(ChatMessage("user", text),))


META = RequestMeta(instance=1, role="planner", phase="adaptation")


class TestMock:
    def test_same_request_twice_identical(self):
        connector = MockConnector(responder=lambda r: "ok " + r.content_hash()[:6])
        first = connector.complete(request(), META)
        second = connector.complete(request(), META)
        assert first == second

    def test_responder_records_usage_by_whitespace_tokens(self):
        connector = MockConnector(responder=lambda r: "three word reply")
        response = connector.complete(request("two words"), META)
        assert response.usage == TokenUsage(prompt_tokens=2, completion_tokens=3)

    def test_ledger_receives_usage(self):
        ledger = TokenLedger()
        connector = MockConnector(responder=lambda r: "a b", ledger=ledger)
        connector.complete(request("one two three"), META)
        assert ledger.totals() == TokenUsage(3, 2)

    def test_usage_equals_uncounted_sums_as_system_prompts_alternate(self):
        ledger = TokenLedger()
        connector = MockConnector(responder=lambda r: f"reply {len(r.messages)}", ledger=ledger)
        # Equal texts of different lengths in tokens, rebuilt on each call so
        # that equal prompts are distinct objects.
        systems = ["You are the Planner. a b c", "You are the Planner.  abc d e f"]
        metas = [
            META,
            RequestMeta(instance=2, role="planner", phase="adaptation"),
            RequestMeta(instance=1, role="analyst", phase="evaluation"),
            None,
        ]
        expected = TokenUsage()
        for k in range(24):
            system = "".join(systems[(k // 3) % 2])
            messages = (ChatMessage("system", system), ChatMessage("user", "obs " * k))
            if k % 5 == 4:  # a conversation that does not open with a system prompt
                messages = messages[::-1]
            meta = metas[k % len(metas)]
            response = connector.complete(ChatRequest(model="m", messages=messages), meta)
            usage = TokenUsage(
                sum(approx_tokens(m.content) for m in messages), approx_tokens(response.content)
            )
            assert response.usage == usage
            if meta is not None:
                expected += usage
        assert ledger.totals() == expected

    def test_kept_counts_survive_racing_threads(self):
        connector = MockConnector(responder=lambda r: "ok")
        systems = ["a b c", "a b c d e"]
        wrong = []

        def call(worker: int) -> None:
            # Two workers share each (instance, role) and send it alternating
            # prompts, so their updates of its entry race.
            meta = RequestMeta(instance=worker % 4, role="planner", phase="adaptation")
            for i in range(300):
                system = systems[(i + worker) % 2]
                messages = (ChatMessage("system", system), ChatMessage("user", "x"))
                usage = connector.complete(ChatRequest(model="m", messages=messages), meta).usage
                if usage.prompt_tokens != approx_tokens(system) + 1:
                    wrong.append((worker, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


def http_with_script(script):
    calls = {"i": 0}

    def transport(url, headers, payload):
        result = script[min(calls["i"], len(script) - 1)]
        calls["i"] += 1
        if isinstance(result, Exception):
            raise result
        return result

    return HttpConnector(
        base_url="http://example", transport=transport, sleep=lambda s: None
    )


def ok_body(content="Answer: Monitor"):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"prompt_tokens": 11, "completion_tokens": 3},
    }


class TestHttp:
    def test_success_parses_content_and_usage(self):
        connector = http_with_script([(200, ok_body())])
        response = connector.complete(request(), META)
        assert response.content == "Answer: Monitor"
        assert response.usage == TokenUsage(11, 3)
        assert response.retries == 0

    def test_transient_5xx_then_success(self):
        connector = http_with_script([(500, {}), (200, ok_body())])
        response = connector.complete(request(), META)
        assert response.content == "Answer: Monitor"
        assert response.retries == 1

    def test_exhausted_retries_raise(self):
        connector = http_with_script([(503, {})])
        with pytest.raises(ConnectorError) as err:
            connector.complete(request(), META)
        assert err.value.status == 503

    def test_non_retryable_status_fails_fast(self):
        connector = http_with_script([(401, {}), (200, ok_body())])
        with pytest.raises(ConnectorError) as err:
            connector.complete(request(), META)
        assert err.value.status == 401

    def test_connection_errors_retry(self):
        connector = http_with_script([OSError("boom"), (200, ok_body())])
        response = connector.complete(request(), META)
        assert response.retries == 1

    @pytest.mark.parametrize(
        "body",
        [
            {},
            [],
            {"choices": []},
            {"choices": [{}]},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": 7}}]},
            {**ok_body(), "usage": None},
            {**ok_body(), "usage": {"prompt_tokens": "many"}},
        ],
    )
    def test_malformed_success_body_is_a_connector_error(self, body):
        ledger = TokenLedger()
        connector = http_with_script([(200, body), (200, ok_body())])
        connector.ledger = ledger
        with pytest.raises(ConnectorError) as err:
            connector.complete(request(), META)
        assert err.value.status == 200
        assert ledger.entries() == []


class TestLedger:
    def test_totals_split_by_phase_and_instance(self):
        ledger = TokenLedger()
        ledger.record(RequestMeta(1, "planner", "adaptation"), TokenUsage(10, 1))
        ledger.record(RequestMeta(1, "planner", "evaluation"), TokenUsage(20, 2))
        ledger.record(RequestMeta(2, "analyst", "adaptation"), TokenUsage(40, 4))
        assert ledger.totals(phase="adaptation") == TokenUsage(50, 5)
        assert ledger.totals(phase="evaluation") == TokenUsage(20, 2)
        assert ledger.totals(instance=1) == TokenUsage(30, 3)
        assert ledger.totals() == TokenUsage(70, 7)

    def test_totals_accumulate_monotonically(self):
        ledger = TokenLedger()
        previous = 0
        for i in range(5):
            ledger.record(META, TokenUsage(i, i))
            total = ledger.totals()
            assert total.prompt_tokens >= previous
            previous = total.prompt_tokens

    def test_log_file_round_trip(self, tmp_path):
        ledger = TokenLedger()
        ledger.record(RequestMeta(3, "reflector", "adaptation"), TokenUsage(7, 9))
        path = tmp_path / "token_usage.log"
        ledger.write(path)
        loaded = TokenLedger.read(path)
        assert loaded.totals() == ledger.totals()
        entry = loaded.entries()[0]
        assert (entry.instance, entry.role, entry.phase) == (3, "reflector", "adaptation")

    def test_running_sums_match_a_full_scan(self, tmp_path):
        ledger = TokenLedger()
        phases = ("adaptation", "evaluation")

        def record(worker: int) -> None:
            for i in range(300):
                meta = RequestMeta(instance=i % 4, role="planner", phase=phases[(i + worker) % 2])
                ledger.record(meta, TokenUsage(worker + i, 1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=record, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(ledger.entries()) == 8 * 300

        path = tmp_path / "token_usage.log"
        ledger.write(path)
        for checked in (ledger, TokenLedger.read(path)):
            entries = checked.entries()
            for phase in (None, *phases):
                for instance in (None, 0, 1, 2, 3, 4):
                    matching = [
                        e for e in entries
                        if phase in (None, e.phase) and instance in (None, e.instance)
                    ]
                    assert checked.totals(phase=phase, instance=instance) == TokenUsage(
                        sum(e.prompt_tokens for e in matching),
                        sum(e.completion_tokens for e in matching),
                    )

    def test_log_line_format(self):
        entry = TokenLogEntry(1.5, 2, "planner", "evaluation", 10, 4)
        line = entry.format()
        assert line.split() == [
            "timestamp=1.500000",
            "instance=2",
            "role=planner",
            "phase=evaluation",
            "prompt_tokens=10",
            "completion_tokens=4",
        ]
        assert TokenLogEntry.parse(line) == entry


def test_approx_tokens_counts_whitespace_words():
    assert approx_tokens("") == 0
    assert approx_tokens("one two  three\nfour") == 4
