"""The tool configuration file (JSON): the HTTP backend, unknown keys rejected.

The file holds one key, `backend`, read by `records.from_json` from the
field types below. `timeout` must be positive and `rate_limit_per_sec` null, 0
(both: no limit) or positive. A violation is a `ConfigError`. Every other run
setting is a flag.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .records import loads


class ConfigError(ValueError):
    pass


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
    """The backend fields; building one checks their ranges (a bad one is a ValueError), reading one their types."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> BackendConfig:
        self = super().__new__(cls, *args, **kwargs)
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
        return loads(Path(path).read_text(encoding="utf-8"), ToolConfig, closed=True)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
