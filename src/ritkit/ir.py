"""Normalized rule IR: values, triggers, conditions, actions and rulesets.

Every record is an immutable `NamedTuple`. Ids follow the ``rN`` / ``rNtM``
/ ``rNcM`` / ``rNaM`` scheme where ``N`` is the 1-based rule position in
file order and ``M`` restarts at 1 inside each rule.
"""

from __future__ import annotations

import re
from decimal import Decimal
from enum import Enum
from typing import NamedTuple


class ValueKind(Enum):
    SWITCH = "switch"
    OPEN_CLOSED = "open-closed"
    UP_DOWN = "up-down"
    NUMBER = "number"
    OPAQUE = "opaque"


_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")

# Antonym-pair literals, case-folded on input.  CLOSE canonicalizes to CLOSED.
_SWITCH = {"ON": "ON", "OFF": "OFF"}
_OPEN_CLOSED = {"OPEN": "OPEN", "CLOSED": "CLOSED", "CLOSE": "CLOSED"}
_UP_DOWN = {"UP": "UP", "DOWN": "DOWN"}


class Value(NamedTuple):
    """A command/state value in canonical form.

    ``raw`` keeps the source lexeme (quotes included for string literals) so
    reports and mutants can render values the way they were written.
    """

    kind: ValueKind
    text: str
    raw: str
    number: Decimal | None = None

    def __repr__(self) -> str:  # compact, used in test failure output
        return f"Value({self.kind.value}:{self.text})"


def make_value(raw: str) -> Value:
    """Canonicalize a value lexeme (possibly quoted) into a Value."""
    inner = raw[1:-1] if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"' else raw
    folded = inner.upper()
    if folded in _SWITCH:
        return Value(ValueKind.SWITCH, _SWITCH[folded], raw)
    if folded in _OPEN_CLOSED:
        return Value(ValueKind.OPEN_CLOSED, _OPEN_CLOSED[folded], raw)
    if folded in _UP_DOWN:
        return Value(ValueKind.UP_DOWN, _UP_DOWN[folded], raw)
    if _NUMBER_RE.match(inner):
        return Value(ValueKind.NUMBER, inner, raw, number=Decimal(inner))
    return Value(ValueKind.OPAQUE, inner, raw)


def number_value(num: Decimal | int) -> Value:
    dec = Decimal(num)
    return Value(ValueKind.NUMBER, str(dec), str(dec), number=dec)


def values_equal(a: Value | None, b: Value | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if a.kind is ValueKind.NUMBER and b.kind is ValueKind.NUMBER:
        return a.number == b.number
    return a.kind is b.kind and a.text == b.text


class TriggerKind(Enum):
    ITEM_CHANGED = "item-changed"
    ITEM_COMMAND = "item-command"
    ITEM_UPDATE = "item-update"
    CRON = "cron"
    SYSTEM_STARTED = "system-started"
    STATE_COMPARISON = "state-comparison"


class CronSpec(NamedTuple):
    """A quartz-style cron expression, split into whitespace fields."""

    raw: str
    fields: tuple[str, ...]

    @staticmethod
    def parse(raw: str) -> "CronSpec":
        return CronSpec(raw, tuple(raw.split()))

    def fixed_minute_hour(self) -> tuple[int, int] | None:
        """(minute, hour) when both fields are plain integers, else None."""
        if len(self.fields) < 3:
            return None
        minute, hour = self.fields[1], self.fields[2]
        if minute.isdigit() and hour.isdigit():
            return (int(minute), int(hour))
        return None


class Trigger(NamedTuple):
    id: str
    kind: TriggerKind
    item: str | None = None
    from_value: Value | None = None
    to_value: Value | None = None
    command_value: Value | None = None
    cron: CronSpec | None = None
    op: str | None = None
    value: Value | None = None


class ConditionKind(Enum):
    ITEM_COMPARISON = "item-comparison"
    TIME_WINDOW = "time-window"


DAY_START = 0
DAY_END = 23 * 60 + 59


class Condition(NamedTuple):
    id: str
    kind: ConditionKind
    item: str | None = None
    op: str | None = None
    value: Value | None = None
    window: tuple[int, int] | None = None  # minutes since midnight, inclusive


class ActionKind(Enum):
    SEND_COMMAND = "send-command"
    POST_UPDATE = "post-update"


# The call that writes each kind of action in .rules source.
ACTION_CALLS = {ActionKind.SEND_COMMAND: "sendCommand", ActionKind.POST_UPDATE: "postUpdate"}


class Action(NamedTuple):
    id: str
    kind: ActionKind
    item: str
    value: Value


class GuardedAction(NamedTuple):
    action: Action
    guards: tuple[Condition, ...] = ()


class Rule(NamedTuple):
    id: str
    name: str
    triggers: tuple[Trigger, ...]
    guarded_actions: tuple[GuardedAction, ...] = ()
    conditions: tuple[Condition, ...] = ()  # rule-level (when-clause) conditions
    span: tuple[int, int] = (0, 0)  # character offsets of the block in its file, end exclusive

    @property
    def index(self) -> int:  # hides tuple.index
        return int(self.id[1:])

    def all_conditions(self) -> tuple[Condition, ...]:
        """Rule-level conditions plus every distinct action guard, in order."""
        seen: dict[str, Condition] = {}
        for cond in self.conditions:
            seen.setdefault(cond.id, cond)
        for ga in self.guarded_actions:
            for cond in ga.guards:
                seen.setdefault(cond.id, cond)
        return tuple(seen.values())


def effective_guards(rule: Rule, ga: GuardedAction) -> tuple[Condition, ...]:
    """Guards of an action merged with its rule's rule-level conditions."""
    return rule.conditions + ga.guards


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    code: str
    message: str
    line: int = 1  # 1-based position of the token it reports
    col: int = 1


class RuleSet(NamedTuple):
    file_id: str
    rules: tuple[Rule, ...] = ()
    diagnostics: tuple[Diagnostic, ...] = ()

    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")


# ---------------------------------------------------------------------------
# Source-style rendering, shared by the report layout and the mutator.


def _minutes_text(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def trigger_text(t: Trigger) -> str:
    if t.kind is TriggerKind.CRON:
        return f'Time cron "{t.cron.raw}"'
    if t.kind is TriggerKind.SYSTEM_STARTED:
        return "System started"
    if t.kind is TriggerKind.ITEM_CHANGED:
        parts = [f"Item {t.item} changed"]
        if t.from_value is not None:
            parts.append(f"from {t.from_value.raw}")
        if t.to_value is not None:
            parts.append(f"to {t.to_value.raw}")
        return " ".join(parts)
    if t.kind is TriggerKind.ITEM_COMMAND:
        base = f"Item {t.item} received command"
        return f"{base} {t.command_value.raw}" if t.command_value is not None else base
    if t.kind is TriggerKind.ITEM_UPDATE:
        return f"Item {t.item} received update"
    return f"{t.item}.state {t.op} {t.value.raw}"


def condition_expr_text(c: Condition) -> str:
    if c.kind is ConditionKind.ITEM_COMPARISON:
        return f"{c.item} {c.op} {c.value.raw}"
    start, end = c.window
    if start == DAY_START:
        return f"time <= {_minutes_text(end)}"
    if end == DAY_END:
        return f"time >= {_minutes_text(start)}"
    return f"time >= {_minutes_text(start)} && time <= {_minutes_text(end)}"


def condition_text(c: Condition) -> str:
    return f"if ({condition_expr_text(c)})"


def action_text(a: Action) -> str:
    return f"{a.item}.{ACTION_CALLS[a.kind]}({a.value.raw})"


def rule_source(rule: Rule) -> str:
    """Render a rule back to parseable .rules source."""
    when_parts = [trigger_text(t) for t in rule.triggers]
    clause = " or ".join(when_parts)
    for cond in rule.conditions:
        clause += f" && {condition_expr_text(cond)}"
    lines = [f'rule "{rule.name}"', "when", f"    {clause}", "then"]
    i = 0
    gas = rule.guarded_actions
    while i < len(gas):
        ga = gas[i]
        if not ga.guards:
            lines.append(f"    {_call_text(ga.action)}")
            i += 1
            continue
        # Group consecutive actions sharing the identical guard list.
        j = i
        while j < len(gas) and gas[j].guards == ga.guards:
            j += 1
        expr = " && ".join(condition_expr_text(c) for c in ga.guards)
        lines.append(f"    if ({expr}) {{")
        for k in range(i, j):
            lines.append(f"        {_call_text(gas[k].action)}")
        lines.append("    }")
        i = j
    lines.append("end")
    return "\n".join(lines)


def _call_text(a: Action) -> str:
    return f"{ACTION_CALLS[a.kind]}({a.item}, {a.value.raw})"

