"""Source file handling: content and line index."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class SourceFile:
    path: str
    content: str
    line_offsets: tuple[int, ...] = field(default=())

    @staticmethod
    def from_text(content: str, path: str = "<memory>") -> "SourceFile":
        offsets = (0, *(m.end() for m in re.finditer("\n", content)))
        return SourceFile(path=path, content=content, line_offsets=offsets)

    @staticmethod
    def from_path(path: str | Path) -> "SourceFile":
        text = Path(path).read_text(encoding="utf-8")
        return SourceFile.from_text(text, path=str(path))
