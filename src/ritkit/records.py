"""The one reader of outside JSON, and the JSON-lines format of every flat record file.

Reports, configs, table stubs and record files are all read through
`from_json`. Mutation manifests, ground truth, predictions, per-instance logs
and audit logs each hold one record (a `NamedTuple`) per line: a JSON object
whose keys are the field names, sorted. Reading skips blank lines.
"""

from __future__ import annotations

import functools
import json
import math
from enum import Enum
from pathlib import Path
from types import UnionType
from typing import Any, Iterable, Literal, TypeVar, Union, get_args, get_origin, get_type_hints

R = TypeVar("R")

# A scalar type -> how it is named, and the JSON values it takes.
_SCALARS = {
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)),
}

_hints = functools.cache(get_type_hints)  # a record's field types, resolved once per class


def from_json(value: Any, kind: Any, path: str = "", closed: bool = False) -> Any:
    """A value of type `kind` built from decoded JSON.

    `kind` is `str`, `bool`, `int` (not a bool), `float` (a finite int or
    float, not a bool), a `Literal`, an `Enum` (built from its value),
    `X | None`, `tuple[X, ...]`, `tuple[X, Y]`, `dict[str, X]` or a
    `NamedTuple` of these. A record's absent optional key takes its default;
    an unknown key is ignored, or refused when `closed`. Any other mismatch
    is a ValueError `<path> must be <kind>` or `<path>: missing key 'k'`
    (`unknown key 'k'`), where `path` is a key path such as
    `findings[1].rule_b.name`; a ValueError from a record's own `__new__`
    gets `<path>: ` in front.
    """
    origin, args = get_origin(kind), get_args(kind)
    if origin in (Union, UnionType):  # X | None, named by X
        return None if value is None else from_json(value, next(a for a in args if a is not type(None)), path, closed)
    if kind in _SCALARS:
        name, fits = _SCALARS[kind]
        if fits(value):
            return value
    elif origin is Literal:
        name = " or ".join(map(repr, args))
        if any(type(value) is type(arg) and value == arg for arg in args):
            return value
    elif isinstance(kind, type) and issubclass(kind, Enum):
        name = "one of " + ", ".join(member.value for member in kind)
        if any(value == member.value for member in kind):
            return kind(value)
    elif origin is tuple:
        name = "a list" if args[-1] is Ellipsis else f"a list of {len(args)} values"
        kinds = args[:1] * len(value) if args[-1] is Ellipsis and isinstance(value, list) else args
        if isinstance(value, list) and len(value) == len(kinds):
            return tuple(from_json(item, k, f"{path}[{i}]", closed) for i, (item, k) in enumerate(zip(value, kinds)))
    elif not isinstance(value, dict):
        name = "a JSON object"
    elif origin is dict:
        return {key: from_json(item, args[1], f"{path}[{json.dumps(key)}]", closed) for key, item in value.items()}
    else:  # a NamedTuple
        at, hints = f"{path}: " if path else "", _hints(kind)
        unknown = sorted(key for key in value if key not in hints) if closed else ()
        if unknown:
            raise ValueError(f"{at}unknown key {unknown[0]!r}")
        fields = {}
        for field, hint in hints.items():  # in declared order, so the first field is checked first
            if field in value:
                fields[field] = from_json(value[field], hint, f"{path}.{field}" if path else field, closed)
            elif field not in kind._field_defaults:
                raise ValueError(f"{at}missing key {field!r}")
        try:
            return kind(**fields)
        except ValueError as exc:
            raise ValueError(f"{at}{exc}") from exc
    raise ValueError(f"{path} must be {name}" if path else f"not {name}")


def loads(text: str, kind: type[R], closed: bool = False) -> R:
    """`from_json` of a JSON text; text that is not JSON is a `json.JSONDecodeError` (a ValueError)."""
    return from_json(json.loads(text), kind, closed=closed)


def dump_records(records: Iterable) -> str:
    return "".join(json.dumps(r._asdict(), sort_keys=True) + "\n" for r in records)


def read_records(path: str | Path, cls: type[R]) -> list[R]:
    """The records of one file, in order; a bad line raises ValueError("line N: ...")."""
    out = []
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        if line.strip():
            try:
                out.append(loads(line, cls))
            except ValueError as exc:
                raise ValueError(f"line {n}: {exc}") from exc
    return out
