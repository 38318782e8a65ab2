from __future__ import annotations

import base64
import json
import random
import socket
import threading

import pytest
from mock_backend import MockBackendServer, StubBackend

from ritkit.client import (
    BackendError,
    Connection,
    HttpBackend,
    StubAdjudicator,
    TokenBucket,
    backoff_base_delay,
    complete,
)
from ritkit.config import BackendConfig

NO_SLEEP = lambda _t: None  # noqa: E731


def config(endpoint: str, **kwargs) -> BackendConfig:
    defaults = dict(model="test-model", timeout=5.0, max_retries=4, backoff_base=0.25)
    defaults.update(kwargs)
    return BackendConfig(endpoint=endpoint, **defaults)


class TestDefaults:
    def test_generation_parameter_defaults(self):
        cfg = BackendConfig(endpoint="http://localhost", model="m")
        assert cfg.temperature == 0.2
        assert cfg.top_p == 0.95
        assert cfg.max_output_tokens == 2048

    def test_validation(self):
        with pytest.raises(ValueError):
            BackendConfig(endpoint="e", model="m", temperature=-1)
        with pytest.raises(ValueError):
            BackendConfig(endpoint="e", model="m", top_p=0)
        with pytest.raises(ValueError):
            BackendConfig(endpoint="e", model="m", max_output_tokens=0)


class TestRetrySequences:
    def test_rate_limited_twice_then_success(self):
        with MockBackendServer([(429, None), (429, None), (200, "WAC")]) as server:
            text, record = complete(config(server.endpoint), "prompt", sleep=NO_SLEEP)
        assert text == "WAC"
        assert record.attempts[-1].error_class is None
        assert [a.status for a in record.attempts] == [429, 429, 200]
        assert [a.error_class for a in record.attempts] == ["rate-limited", "rate-limited", None]

    def test_blank_body_is_a_failed_attempt_then_retry(self):
        with MockBackendServer([(200, ""), (200, "STC")]) as server:
            text, record = complete(config(server.endpoint), "prompt", sleep=NO_SLEEP)
        assert text == "STC"
        assert [a.error_class for a in record.attempts] == ["blank", None]
        assert len(record.attempts) == 2

    def test_auth_failure_is_immediate(self):
        with MockBackendServer([(401, None)]) as server:
            with pytest.raises(BackendError) as exc_info:
                complete(config(server.endpoint), "prompt", sleep=NO_SLEEP)
        record = exc_info.value.record
        assert exc_info.value.error_class == "auth"
        assert [a.error_class for a in record.attempts] == ["auth"]

    def test_service_unavailable_retries(self):
        with MockBackendServer([(503, None), (200, "SCC")]) as server:
            text, record = complete(config(server.endpoint), "prompt", sleep=NO_SLEEP)
        assert text == "SCC"
        assert [a.error_class for a in record.attempts] == ["unavailable", None]

    def test_other_client_errors_do_not_retry(self):
        with MockBackendServer([(404, None)]) as server:
            with pytest.raises(BackendError) as exc_info:
                complete(config(server.endpoint), "prompt", sleep=NO_SLEEP)
        assert exc_info.value.error_class == "invalid-request"
        assert len(exc_info.value.record.attempts) == 1

    def test_malformed_body_retries_then_succeeds(self):
        with MockBackendServer([("raw", "definitely } not json"), (200, "WCC")]) as server:
            text, record = complete(config(server.endpoint), "prompt", sleep=NO_SLEEP)
        assert text == "WCC"
        assert [a.error_class for a in record.attempts] == ["malformed-response", None]

    def test_no_retry_storm_on_persistent_rate_limit(self):
        with MockBackendServer([(429, None)] * 10) as server:
            with pytest.raises(BackendError) as exc_info:
                complete(config(server.endpoint, max_retries=3), "prompt", sleep=NO_SLEEP)
        assert len(exc_info.value.record.attempts) == 4  # max_retries + 1
        assert exc_info.value.error_class == "rate-limited"

    def test_request_carries_generation_parameters(self):
        with MockBackendServer([(200, "ok")]) as server:
            complete(config(server.endpoint), "the prompt", sleep=NO_SLEEP)
            sent = server.requests[0]
        assert sent["model"] == "test-model"
        assert sent["temperature"] == 0.2
        assert sent["top_p"] == 0.95
        assert sent["max_tokens"] == 2048
        assert sent["messages"] == [{"role": "user", "content": "the prompt"}]

    def test_api_key_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("RITKIT_API_KEY", "sk-test")
        captured = {}

        class RefusingConnection:
            def post(self, body, headers):
                captured.update(headers)
                raise ConnectionRefusedError("stop here")

        with pytest.raises(BackendError):
            complete(config("http://example.invalid", max_retries=0), "p", connection=RefusingConnection(), sleep=NO_SLEEP)
        assert captured.get("Authorization") == "Bearer sk-test"


class _TimeoutConnection:
    def __init__(self, failures: int, text: str):
        self.failures = failures
        self.text = text

    def post(self, body, headers):
        if self.failures > 0:
            self.failures -= 1
            raise TimeoutError("simulated")
        return 200, json.dumps({"choices": [{"message": {"content": self.text}}]}).encode()


class TestBackoff:
    def test_timeouts_are_retried(self):
        text, record = complete(
            config("http://example.invalid"), "p", connection=_TimeoutConnection(2, "ok"), sleep=NO_SLEEP
        )
        assert text == "ok"
        assert [a.error_class for a in record.attempts] == ["timeout", "timeout", None]

    def test_delays_grow_and_jitter_is_bounded(self):
        delays: list[float] = []
        cfg = config("http://example.invalid", max_retries=4)
        with pytest.raises(BackendError):
            complete(cfg, "p", connection=_TimeoutConnection(99, "x"), sleep=delays.append, rng=random.Random(5))
        assert len(delays) == 4  # no sleep after the final attempt
        for attempt, delay in enumerate(delays):
            base = backoff_base_delay(cfg, attempt)
            assert base <= delay <= 2 * base
        for attempt in range(1, len(delays)):
            assert delays[attempt] >= backoff_base_delay(cfg, attempt - 1)


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture
def clean_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


class TestTransport:
    def test_calls_through_one_backend_share_one_connection(self):
        with MockBackendServer([(200, f"answer {i}") for i in range(5)], keep_alive=True) as server:
            backend = HttpBackend(config(server.endpoint))
            answers = [backend.complete(f"prompt {i}") for i in range(5)]
            backend.close()
        assert answers == [f"answer {i}" for i in range(5)]
        assert server.connections == 1
        assert [r["messages"][0]["content"] for r in server.requests] == [f"prompt {i}" for i in range(5)]

    def test_connection_dropped_while_idle_is_reopened_within_the_attempt(self):
        sleeps: list[float] = []
        with MockBackendServer([(200, "WAC")] * 4, keep_alive=True, drop_after_reply=True) as server:
            connection = Connection(server.endpoint, 5.0)
            records = [complete(config(server.endpoint), "p", connection=connection, sleep=sleeps.append)[1]
                       for _ in range(4)]
            connection.close()
        assert [[a.error_class for a in r.attempts] for r in records] == [[None]] * 4
        assert sleeps == []
        assert server.connections == 4
        assert len(server.requests) == 4

    def test_fresh_connection_dropped_before_a_reply_is_unavailable(self):
        accepted = []
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(5)

            def hang_up() -> None:
                for _ in range(2):
                    conn, _ = listener.accept()
                    conn.recv(65536)
                    conn.close()
                    accepted.append(conn)

            thread = threading.Thread(target=hang_up, daemon=True)
            thread.start()
            port = listener.getsockname()[1]
            with pytest.raises(BackendError) as exc_info:
                complete(config(f"http://127.0.0.1:{port}/v1", max_retries=1), "p", sleep=NO_SLEEP)
            thread.join(5)
        assert not thread.is_alive()
        assert exc_info.value.error_class == "unavailable"
        assert [(a.status, a.error_class) for a in exc_info.value.record.attempts] == [(None, "unavailable")] * 2
        assert len(accepted) == 2  # no resend on a connection that was fresh

    def test_server_slower_than_the_timeout_times_out_and_is_retried(self):
        sleeps: list[float] = []
        with MockBackendServer([("slow", 1.0, "late"), (200, "WAC")], keep_alive=True) as server:
            text, record = complete(config(server.endpoint, timeout=0.2), "p", sleep=sleeps.append)
        assert text == "WAC"
        assert [(a.status, a.error_class) for a in record.attempts] == [(None, "timeout"), (200, None)]
        assert len(sleeps) == 1

    def test_closed_port_is_unavailable(self):
        with pytest.raises(BackendError) as exc_info:
            complete(config(f"http://127.0.0.1:{closed_port()}/v1", max_retries=1), "p", sleep=NO_SLEEP)
        assert exc_info.value.error_class == "unavailable"
        assert [(a.status, a.error_class) for a in exc_info.value.record.attempts] == [(None, "unavailable")] * 2

    def test_non_utf8_body_is_malformed(self):
        script = [("raw", b'{"choices": [{"message": {"content": "\xff"}}]}'), (200, "WAC")]
        with MockBackendServer(script) as server:
            text, record = complete(config(server.endpoint), "p", sleep=NO_SLEEP)
        assert text == "WAC"
        assert [a.error_class for a in record.attempts] == ["malformed-response", None]

    def test_http_proxy_gets_the_absolute_uri(self, clean_proxy_env):
        with MockBackendServer([(200, "WAC")]) as server:
            host, port = server.server.server_address
            clean_proxy_env.setenv("HTTP_PROXY", f"http://user:pa%20ss@{host}:{port}")
            text, _ = complete(config("http://example.invalid/v1/chat/completions?x=1"), "p", sleep=NO_SLEEP)
        assert text == "WAC"
        assert server.paths == ["http://example.invalid/v1/chat/completions?x=1"]
        assert server.request_headers[0]["Host"] == "example.invalid"
        assert server.request_headers[0]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pa ss").decode()

    def test_https_endpoint_tunnels_through_its_proxy(self, clean_proxy_env):
        with MockBackendServer([]) as server:
            host, port = server.server.server_address
            clean_proxy_env.setenv("HTTPS_PROXY", f"http://user:pw@{host}:{port}")
            with pytest.raises(BackendError) as exc_info:
                complete(config("https://example.invalid/v1", max_retries=0), "p", sleep=NO_SLEEP)
        assert exc_info.value.error_class == "unavailable"  # the mock speaks no TLS after CONNECT
        assert server.paths == ["example.invalid:443"]
        assert server.request_headers[0]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()
        assert server.requests == []

    def test_no_proxy_bypasses_the_proxy(self, clean_proxy_env):
        clean_proxy_env.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port()}")
        clean_proxy_env.setenv("NO_PROXY", "127.0.0.1")
        with MockBackendServer([(200, "WAC")]) as server:
            text, _ = complete(config(server.endpoint), "p", sleep=NO_SLEEP)
        assert text == "WAC"
        assert server.paths == ["/v1/chat/completions"]


class TestTokenBucket:
    def test_caps_request_rate(self):
        clock = {"now": 0.0}
        waits: list[float] = []

        def sleep(t: float) -> None:
            waits.append(t)
            clock["now"] += t

        bucket = TokenBucket(rate_per_sec=2.0, clock=lambda: clock["now"])
        for _ in range(4):
            bucket.acquire(sleep)
        assert sum(waits) >= 1.0  # 4 requests at 2/s need at least ~1.5s of waiting


class TestStubs:
    def test_stub_backend_is_deterministic(self):
        one = StubBackend(constant="WAC").complete("x")
        two = StubBackend(constant="WAC").complete("x")
        assert one == two == "WAC"

    def test_stub_adjudicator_policies(self):
        assert StubAdjudicator("accept-all").answer_subtask("k", "s", "p")[0] is True
        assert StubAdjudicator("reject-all").answer_subtask("k", "s", "p")[0] is False
        table = StubAdjudicator("table", table={"k": False})
        assert table.answer_subtask("k", "s", "p")[0] is False
        with pytest.raises(ValueError):
            StubAdjudicator("sometimes")
