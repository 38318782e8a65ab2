"""The JSON-lines format of every flat record file.

Mutation manifests, ground truth, predictions, per-instance logs and audit
logs each hold one record (a `NamedTuple`) per line: a JSON object whose keys
are the field names, sorted. Reading skips blank lines and ignores keys the
record does not have; an absent optional key takes its field's default, a
JSON array value becomes a tuple, and a field annotated `str`, `str | None`
or `bool` must hold a string, a string or null, or a boolean.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, TypeVar

R = TypeVar("R")

# Field annotation -> the JSON values it accepts, and how to name them.
_CHECKED = {"str": (str, "a string"), "str | None": ((str, type(None)), "a string"), "bool": (bool, "true or false")}


def dump_records(records: Iterable) -> str:
    return "".join(json.dumps(r._asdict(), sort_keys=True) + "\n" for r in records)


def read_records(path: str | Path, cls: type[R]) -> list[R]:
    """The records of one file, in order.

    A line that is not a JSON object, lacks a required key, holds a value
    of the wrong type in a checked field, or whose record raises ValueError
    raises ValueError("line N: ...").
    """
    required = [name for name in cls._fields if name not in cls._field_defaults]
    declared = next(k for k in cls.__mro__ if tuple in k.__bases__)  # made by typing.NamedTuple, with ForwardRefs
    annotations = {name: getattr(t, "__forward_arg__", t) for name, t in declared.__annotations__.items()}
    checked = {name: _CHECKED[t] for name, t in annotations.items() if t in _CHECKED}
    out = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)  # json.JSONDecodeError is a ValueError
            if not isinstance(obj, dict):
                raise ValueError("not a JSON object")
            missing = [name for name in required if name not in obj]
            if missing:
                raise ValueError(f"missing key {missing[0]!r}")
            for name, (types, described) in checked.items():
                if name in obj and not isinstance(obj[name], types):
                    raise ValueError(f"{name} must be {described}")
            out.append(cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items() if k in cls._fields}))
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from exc
    return out
