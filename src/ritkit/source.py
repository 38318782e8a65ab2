"""Source file handling: a file's path and content."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class SourceFile:
    path: str
    content: str

    @staticmethod
    def from_text(content: str, path: str = "<memory>") -> "SourceFile":
        return SourceFile(path=path, content=content)

    @staticmethod
    def from_path(path: str | Path) -> "SourceFile":
        text = Path(path).read_text(encoding="utf-8")
        return SourceFile.from_text(text, path=str(path))
