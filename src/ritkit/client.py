"""Adjudicator backends: a chat-completions HTTP client and a stub adjudicator.

The client needs nothing outside the standard library. Each `HttpBackend`
talks to its endpoint over a pool of kept-alive `http.client` connections,
one for each call in flight: plain for `http://` endpoints, TLS verified
against the system CA store for `https://` ones. A connection opens on its
first call, serves later calls and reopens when the server closes it or it
drops; a request that a reused connection loses before any status line
arrives is sent once more on a fresh connection, within the same attempt.
`HTTP_PROXY`, `HTTPS_PROXY`, `ALL_PROXY` and `NO_PROXY` are honoured. The
HTTP modules load on the first call, so offline subcommands never import
them.

The client retries 429/503 responses, transport timeouts, refused or dropped
connections and blank or malformed bodies with exponential backoff plus
bounded jitter; other 4xx statuses terminate immediately. A call that gives
up raises `prompts.BackendError`, the LLM stage's outage signal. API keys
come only from environment variables.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from typing import TYPE_CHECKING, Callable, NamedTuple

from .prompts import BackendError

if TYPE_CHECKING:
    import http.client

    from .config import BackendConfig

RETRYABLE_STATUSES = {429, 503}

ERROR_RATE_LIMITED = "rate-limited"
ERROR_UNAVAILABLE = "unavailable"
ERROR_TIMEOUT = "timeout"
ERROR_MALFORMED = "malformed-response"
ERROR_BLANK = "blank"
ERROR_AUTH = "auth"
ERROR_INVALID_REQUEST = "invalid-request"

_NON_RETRYABLE = {ERROR_AUTH, ERROR_INVALID_REQUEST}


class Attempt(NamedTuple):
    status: int | None
    latency: float
    error_class: str | None


class CallRecord(NamedTuple):
    attempts: tuple[Attempt, ...] = ()


class TokenBucket:
    """Request-rate cap that threads share; one token per request."""

    def __init__(self, rate_per_sec: float, clock: Callable[[], float] = time.monotonic):
        self.rate = rate_per_sec
        self.capacity = max(1.0, rate_per_sec)
        self.tokens = self.capacity
        self.updated = clock()
        self.clock = clock
        self.lock = threading.Lock()

    def acquire(self, sleep: Callable[[float], None] = time.sleep) -> None:
        while True:
            with self.lock:
                now = self.clock()
                self.tokens = min(self.capacity, self.tokens + (now - self.updated) * self.rate)
                self.updated = now
                if self.tokens >= 1:
                    self.tokens -= 1
                    return
                wait = (1 - self.tokens) / self.rate
            sleep(wait)


class Connection:
    """One kept-alive connection to a chat-completions endpoint.

    Opens on the first `post`, is reused by every later one and reopens
    after the server closes it or it drops. A request goes through the proxy
    that the environment names for the endpoint's scheme, unless `NO_PROXY`
    exempts its host: `http` calls carry the absolute URI to the proxy,
    `https` calls tunnel through it with CONNECT.
    """

    def __init__(self, endpoint: str, timeout: float) -> None:
        import base64
        import http.client  # here, so that offline subcommands never load the HTTP stack
        import ssl
        import urllib.parse
        import urllib.request

        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"backend endpoint is not an http:// or https:// URL: {endpoint!r}")
        proxy = None
        if not urllib.request.proxy_bypass(url.hostname):
            proxies = urllib.request.getproxies()
            proxy = proxies.get(url.scheme) or proxies.get("all")
        host, port, proxy_auth = url.hostname, url.port, {}
        if proxy:
            via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if via.scheme != "http" or not via.hostname:
                raise ValueError(f"proxy for {endpoint!r} is not an http:// URL: {proxy!r}")
            if via.username is not None:
                userinfo = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password or '')}"
                proxy_auth["Proxy-Authorization"] = "Basic " + base64.b64encode(userinfo.encode()).decode()
            host, port = via.hostname, via.port
        self.target = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        self.headers: dict[str, str] = {}  # added to every request
        self.conn: http.client.HTTPConnection
        if url.scheme == "https":
            self.conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=ssl.create_default_context())
            if proxy:
                self.conn.set_tunnel(url.hostname, url.port, headers=proxy_auth)
        else:
            self.conn = http.client.HTTPConnection(host, port, timeout=timeout)
            if proxy:
                self.target, self.headers = urllib.parse.urlunsplit(url._replace(fragment="")), proxy_auth

    def post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """Status and body of one POST of `body`.

        A request that a reused connection loses before the status line
        (the server closed it while idle) is sent once more on a fresh
        connection; the same loss on a fresh connection raises. Any other
        failure closes the connection, so the next call starts afresh.
        """
        headers = {**headers, **self.headers}
        try:
            reused = self.conn.sock is not None
            try:
                response = self._send(body, headers)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is a ConnectionResetError
                if not reused:
                    raise
                self.conn.close()
                response = self._send(body, headers)
            return response.status, response.read()
        except BaseException:
            self.conn.close()
            raise

    def _send(self, body: bytes, headers: dict[str, str]) -> http.client.HTTPResponse:
        # `body` is bytes, so headers and body leave in one write: a request
        # split over two writes meets the server's delayed ACK on a kept-alive
        # connection and stalls.
        self.conn.request("POST", self.target, body, headers)
        return self.conn.getresponse()

    def close(self) -> None:
        self.conn.close()


def _extract_content(body: bytes) -> tuple[str | None, str | None]:
    """(content, error_class) from a chat-completions response body."""
    try:
        payload = json.loads(body)
        content = payload["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, IndexError, TypeError):
        return None, ERROR_MALFORMED
    if not isinstance(content, str) or not content.strip():
        return None, ERROR_BLANK
    return content, None


def backoff_base_delay(config: BackendConfig, attempt: int) -> float:
    """Delay before the retry that follows `attempt`, jitter not included."""
    return config.backoff_base * (2**attempt)


def complete(
    config: BackendConfig,
    prompt: str,
    *,
    connection: Connection | None = None,
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
    limiter: TokenBucket | None = None,
) -> tuple[str, CallRecord]:
    """One adjudication call; raises BackendError once attempts run out.

    Without a `connection` the call opens one of its own and closes it.
    """
    import http.client

    attempts: list[Attempt] = []
    own_connection = connection is None
    if connection is None:
        connection = Connection(config.endpoint, config.timeout)
    rng = rng or random.Random()
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_output_tokens,
    }
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(config.api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    try:
        for attempt in range(config.max_retries + 1):
            if limiter is not None:
                limiter.acquire(sleep)
            start = time.monotonic()
            error_class: str | None
            status: int | None = None
            content: str | None = None
            try:
                status, data = connection.post(body, headers)
                if status == 200:
                    content, error_class = _extract_content(data)
                elif status == 429:
                    error_class = ERROR_RATE_LIMITED
                elif status in (401, 403):
                    error_class = ERROR_AUTH
                elif 400 <= status < 500:
                    error_class = ERROR_INVALID_REQUEST
                else:
                    error_class = ERROR_UNAVAILABLE
            except TimeoutError:
                error_class = ERROR_TIMEOUT
            except (OSError, http.client.HTTPException):
                error_class = ERROR_UNAVAILABLE

            attempts.append(Attempt(status, time.monotonic() - start, error_class))
            if content is not None:
                return content, CallRecord(tuple(attempts))

            retryable = error_class not in _NON_RETRYABLE and (
                status in RETRYABLE_STATUSES
                or error_class in (ERROR_TIMEOUT, ERROR_BLANK, ERROR_MALFORMED)
                or (error_class == ERROR_UNAVAILABLE and status is None)
            )
            if not retryable or attempt == config.max_retries:
                error_class = ERROR_MALFORMED if error_class == ERROR_BLANK else error_class
                raise BackendError(error_class, CallRecord(tuple(attempts)))

            # Exponential backoff with jitter bounded by the base delay, so
            # attempt k+1's scheduled delay never undercuts attempt k's base.
            base = backoff_base_delay(config, attempt)
            sleep(base + rng.uniform(0, base))
        raise AssertionError("unreachable")  # pragma: no cover
    finally:
        if own_connection:
            connection.close()


class HttpBackend:
    """Adapter giving `complete(config, prompt)` a single-argument surface.

    Calls may come from several threads at once. Each takes an idle pooled
    connection, or opens a new one when none is idle, and puts it back when
    done, so a connection serves one call at a time and the pool holds as
    many as the most calls that ran at once. All calls share one rate
    limiter. `close()` closes every pooled connection.
    """

    def __init__(self, config: BackendConfig):
        self.config = config
        self.idle = [Connection(config.endpoint, config.timeout)]  # checks the endpoint now
        self.lock = threading.Lock()
        limiter = None
        if config.rate_limit_per_sec:
            limiter = TokenBucket(config.rate_limit_per_sec)
        self.limiter = limiter

    def complete(self, prompt: str) -> str:
        with self.lock:
            connection = self.idle.pop() if self.idle else Connection(self.config.endpoint, self.config.timeout)
        try:
            text, _ = complete(self.config, prompt, connection=connection, limiter=self.limiter)
        finally:
            with self.lock:
                self.idle.append(connection)
        return text

    def close(self) -> None:
        with self.lock:
            for connection in self.idle:
                connection.close()


class StubAdjudicator:
    """Subtask adjudicator with a fixed policy.

    Policies: "accept-all", "reject-all", or "table" with a mapping from
    `<finding-key>` (or `<finding-key>::<subtask-kind>`) to a boolean uphold
    decision. A table lookup miss is an explicit error.
    """

    def __init__(self, policy: str, table: dict[str, bool] | None = None):
        if policy not in ("accept-all", "reject-all", "table"):
            raise ValueError(f"unknown stub policy: {policy}")
        if policy == "table" and table is None:
            raise ValueError("table policy needs a mapping")
        self.policy = policy
        self.table = table or {}

    def answer_subtask(self, finding_key: str, subtask_kind: str, payload: str) -> tuple[bool, str]:
        if self.policy == "accept-all":
            return True, "stub: accept-all"
        if self.policy == "reject-all":
            return False, "stub: reject-all"
        scoped = f"{finding_key}::{subtask_kind}"
        if scoped in self.table:
            return self.table[scoped], "stub: table"
        if finding_key in self.table:
            return self.table[finding_key], "stub: table"
        raise KeyError(f"table stub has no entry for {scoped!r} or {finding_key!r}")
