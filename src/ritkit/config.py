"""The tool configuration file (JSON): the HTTP backend, unknown keys rejected.

The file holds one key, `backend`. In it, `endpoint`, `model` and
`api_key_env` are strings, `max_output_tokens` and `max_retries` integers,
and the other fields numbers; a boolean is not a number, and neither is NaN
or an infinity. `timeout` must be positive and `rate_limit_per_sec` null, 0
(both: no limit) or positive. A violation is a `ConfigError`. Every other
run setting is a flag.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple


class ConfigError(ValueError):
    pass


def _is_number(value: object, integral: bool = False) -> bool:
    return isinstance(value, int if integral else (int, float)) and not isinstance(value, bool) and math.isfinite(value)


class _BackendFields(NamedTuple):
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


class BackendConfig(_BackendFields):
    """The backend fields, checked when built: a bad value is a ValueError."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> BackendConfig:
        self = super().__new__(cls, *args, **kwargs)
        for name in ("endpoint", "model", "api_key_env"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        for name in ("temperature", "top_p", "timeout", "backoff_base"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number")
        for name in ("max_output_tokens", "max_retries"):
            if not _is_number(getattr(self, name), integral=True):
                raise ValueError(f"{name} must be an integer")
        if self.rate_limit_per_sec is not None and not _is_number(self.rate_limit_per_sec):
            raise ValueError("rate_limit_per_sec must be null or a number")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.rate_limit_per_sec is not None and self.rate_limit_per_sec < 0:
            raise ValueError("rate_limit_per_sec must be null, 0 or positive")
        return self


class ToolConfig(NamedTuple):
    backend: BackendConfig | None = None


def load_config(path: str | Path) -> ToolConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")

    unknown = set(data) - set(ToolConfig._fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    raw = data.get("backend")
    if raw is None:
        return ToolConfig()
    if not isinstance(raw, dict):
        raise ConfigError("backend must be a JSON object")
    bad = set(raw) - set(BackendConfig._fields)
    if bad:
        raise ConfigError(f"unknown backend keys: {', '.join(sorted(bad))}")
    missing = [name for name in ("endpoint", "model") if name not in raw]
    if missing:
        raise ConfigError(f"bad backend config: missing {' and '.join(missing)}")
    try:
        return ToolConfig(BackendConfig(**raw))
    except ValueError as exc:
        raise ConfigError(f"bad backend config: {exc}") from exc
