"""Source file handling: a file's path and content."""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple


class SourceFile(NamedTuple):
    path: str
    content: str

    @staticmethod
    def from_text(content: str, path: str = "<memory>") -> "SourceFile":
        return SourceFile(path=path, content=content)

    @staticmethod
    def from_path(path: str | Path) -> "SourceFile":
        text = Path(path).read_text(encoding="utf-8")
        return SourceFile.from_text(text, path=str(path))
