"""Shared tool configuration file (JSON), with unknown keys rejected."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .client import BackendConfig
from .detector import FineCategory


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ToolConfig:
    strict_event_matching: bool = True
    routed_set: tuple[str, ...] = ("WAC", "WTC")
    backend: BackendConfig | None = None
    format: str = "text"  # "text" | "structured"

    def __post_init__(self) -> None:
        for name in self.routed_set:
            try:
                FineCategory(name)
            except ValueError:
                raise ConfigError(f"unknown category in routed_set: {name!r}") from None
        if self.format not in ("text", "structured"):
            raise ConfigError("format must be 'text' or 'structured'")


_TOOL_KEYS = {f.name for f in fields(ToolConfig)}
_BACKEND_KEYS = {f.name for f in fields(BackendConfig)}


def load_config(path: str | Path) -> ToolConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")

    unknown = set(data) - _TOOL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    backend = None
    if "backend" in data and data["backend"] is not None:
        raw = data["backend"]
        if not isinstance(raw, dict):
            raise ConfigError("backend must be a JSON object")
        bad = set(raw) - _BACKEND_KEYS
        if bad:
            raise ConfigError(f"unknown backend keys: {', '.join(sorted(bad))}")
        try:
            backend = BackendConfig(**raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad backend config: {exc}") from exc

    kwargs = {k: v for k, v in data.items() if k != "backend"}
    if "routed_set" in kwargs:
        kwargs["routed_set"] = tuple(kwargs["routed_set"])
    try:
        return ToolConfig(backend=backend, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
