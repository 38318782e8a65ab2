"""Adjudicator backends: a chat-completions HTTP client and offline stubs.

The HTTP client retries 429/503 responses, transport timeouts and blank or
malformed bodies with exponential backoff plus bounded jitter; other 4xx
statuses terminate immediately. API keys come only from environment
variables.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import requests

RETRYABLE_STATUSES = {429, 503}

ERROR_RATE_LIMITED = "rate-limited"
ERROR_UNAVAILABLE = "unavailable"
ERROR_TIMEOUT = "timeout"
ERROR_MALFORMED = "malformed-response"
ERROR_BLANK = "blank"
ERROR_AUTH = "auth"
ERROR_INVALID_REQUEST = "invalid-request"

_NON_RETRYABLE = {ERROR_AUTH, ERROR_INVALID_REQUEST}

_request_counter = itertools.count(1)


class BackendError(Exception):
    """All retry attempts consumed (or a non-retryable failure)."""

    def __init__(self, error_class: str, record: "CallRecord"):
        super().__init__(f"backend exhausted: {error_class}")
        self.error_class = error_class
        self.record = record


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str
    model: str
    api_key_env: str = "RITKIT_API_KEY"
    temperature: float = 0.2
    top_p: float = 0.95
    max_output_tokens: int = 2048
    timeout: float = 60.0
    max_retries: int = 4
    backoff_base: float = 0.5
    rate_limit_per_sec: float | None = None

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass(frozen=True)
class Attempt:
    status: int | None
    latency: float
    error_class: str | None


@dataclass
class CallRecord:
    request_id: int
    attempts: list[Attempt] = field(default_factory=list)
    final_status: str = "pending"  # "ok" | "exhausted"
    final_error_class: str | None = None


class TokenBucket:
    """Thread-safe request-rate cap; one token per request."""

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


def _extract_content(body: str) -> tuple[str | None, str | None]:
    """(content, error_class) from a chat-completions response body."""
    try:
        payload = json.loads(body)
        content = payload["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError):
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
    session: requests.Session | None = None,
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
    limiter: TokenBucket | None = None,
) -> tuple[str, CallRecord]:
    """One adjudication call; raises BackendError once attempts run out."""
    import requests  # here, so that offline subcommands never load the HTTP stack

    record = CallRecord(request_id=next(_request_counter))
    own_session = session is None
    session = session or requests.Session()
    rng = rng or random.Random()
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_output_tokens,
    }
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
                response = session.post(config.endpoint, json=payload, headers=headers, timeout=config.timeout)
                status = response.status_code
                if status == 200:
                    content, error_class = _extract_content(response.text)
                elif status == 429:
                    error_class = ERROR_RATE_LIMITED
                elif status in (401, 403):
                    error_class = ERROR_AUTH
                elif 400 <= status < 500:
                    error_class = ERROR_INVALID_REQUEST
                else:
                    error_class = ERROR_UNAVAILABLE
            except requests.Timeout:
                error_class = ERROR_TIMEOUT
            except requests.ConnectionError:
                error_class = ERROR_UNAVAILABLE

            record.attempts.append(Attempt(status, time.monotonic() - start, error_class))
            if content is not None:
                record.final_status = "ok"
                return content, record

            retryable = error_class not in _NON_RETRYABLE and (
                status in RETRYABLE_STATUSES
                or error_class in (ERROR_TIMEOUT, ERROR_BLANK, ERROR_MALFORMED)
                or (error_class == ERROR_UNAVAILABLE and status is None)
            )
            if not retryable or attempt == config.max_retries:
                terminal = ERROR_MALFORMED if error_class == ERROR_BLANK else error_class
                record.final_status = "exhausted"
                record.final_error_class = terminal
                raise BackendError(terminal, record)

            # Exponential backoff with jitter bounded by the base delay, so
            # attempt k+1's scheduled delay never undercuts attempt k's base.
            base = backoff_base_delay(config, attempt)
            sleep(base + rng.uniform(0, base))
        raise AssertionError("unreachable")  # pragma: no cover
    finally:
        if own_session:
            session.close()


# ---------------------------------------------------------------------------
# Deterministic offline stubs


class StubBackend:
    """Text backend returning scripted responses, for offline pipelines."""

    def __init__(self, responses: list[str] | None = None, constant: str | None = None):
        self.responses = list(responses or [])
        self.constant = constant
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        if self.responses:
            return self.responses.pop(0)
        if self.constant is not None:
            return self.constant
        raise BackendError(ERROR_UNAVAILABLE, CallRecord(request_id=0))


class HttpBackend:
    """Adapter giving `complete(config, prompt)` a single-argument surface."""

    def __init__(self, config: BackendConfig, **kwargs):
        self.config = config
        self.kwargs = kwargs
        limiter = None
        if config.rate_limit_per_sec:
            limiter = TokenBucket(config.rate_limit_per_sec)
        self.limiter = limiter

    def complete(self, prompt: str) -> str:
        text, _ = complete(self.config, prompt, limiter=self.limiter, **self.kwargs)
        return text


class AdjudicatorUnavailable(Exception):
    """Raised by adjudicators when their backend is exhausted."""


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
