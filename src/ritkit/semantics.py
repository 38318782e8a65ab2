"""The semantic relations the threat taxonomy is defined over.

Trigger overlap is conservative: any pair overlaps unless one of three
disjointness proofs applies (fixed-time crons at different minutes/hours,
same-item changed-to with different target values, same-item state
comparisons with an empty intersection). Condition satisfiability is a
per-item interval/equality check; items are independent.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Iterable

from .ir import (
    Action,
    ActionKind,
    Condition,
    ConditionKind,
    Trigger,
    TriggerKind,
    Value,
    ValueKind,
    values_equal,
)


def value_conflicts(v1: Value, v2: Value) -> bool:
    """Canonically different values conflict (ON/OFF, 20/25, off_r/on_r)."""
    return not values_equal(v1, v2)


def triggers_overlap(a: Trigger, b: Trigger) -> bool:
    """Conservative, symmetric, reflexive trigger-concurrency check."""
    if a.kind is not b.kind:
        return True
    if a.kind is TriggerKind.CRON:
        fa, fb = a.cron.fixed_minute_hour(), b.cron.fixed_minute_hour()
        return fa is None or fb is None or fa == fb
    if a.item != b.item:
        return True
    if a.kind is TriggerKind.ITEM_CHANGED:
        return a.to_value is None or b.to_value is None or not value_conflicts(a.to_value, b.to_value)
    if a.kind is TriggerKind.STATE_COMPARISON:
        ca = Condition("", ConditionKind.ITEM_COMPARISON, item=a.item, op=a.op, value=a.value)
        cb = Condition("", ConditionKind.ITEM_COMPARISON, item=b.item, op=b.op, value=b.value)
        return conditions_overlap([ca], [cb])
    return True


# ---------------------------------------------------------------------------
# Condition satisfiability


class _ItemConstraints:
    """Equalities, inequalities and numeric bounds on one item."""

    def __init__(self) -> None:
        self.pins: list[Value] = []
        self.forbids: list[Value] = []
        self.lo: Decimal | None = None
        self.hi: Decimal | None = None
        self.lo_strict = self.hi_strict = False

    def add_bound(self, op: str, number: Decimal) -> None:
        if op in (">", ">="):
            strict = op == ">"
            if self.lo is None or number > self.lo or (number == self.lo and strict):
                self.lo, self.lo_strict = number, strict
        else:
            strict = op == "<"
            if self.hi is None or number < self.hi or (number == self.hi and strict):
                self.hi, self.hi_strict = number, strict

    def satisfiable(self) -> bool:
        for i, pin in enumerate(self.pins):
            for other in self.pins[i + 1 :]:
                if not values_equal(pin, other):
                    return False
        has_bounds = self.lo is not None or self.hi is not None
        for pin in self.pins:
            if any(values_equal(pin, f) for f in self.forbids):
                return False
            if pin.kind is ValueKind.NUMBER:
                if not self._number_in_range(pin.number):
                    return False
            elif has_bounds:
                # A discrete state cannot satisfy a numeric bound.
                return False
        if not self.pins and self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                return False
            if self.lo == self.hi:
                if self.lo_strict or self.hi_strict:
                    return False
                point = self.lo
                if any(f.kind is ValueKind.NUMBER and f.number == point for f in self.forbids):
                    return False
        return True

    def _number_in_range(self, n: Decimal) -> bool:
        if self.lo is not None and (n < self.lo or (n == self.lo and self.lo_strict)):
            return False
        if self.hi is not None and (n > self.hi or (n == self.hi and self.hi_strict)):
            return False
        return True


def _satisfiable(conditions: Iterable[Condition]) -> bool:
    window_lo, window_hi = 0, 24 * 60
    per_item: dict[str, _ItemConstraints] = {}
    for cond in conditions:
        if cond.kind is ConditionKind.TIME_WINDOW:
            window_lo = max(window_lo, cond.window[0])
            window_hi = min(window_hi, cond.window[1])
            continue
        cons = per_item.setdefault(cond.item, _ItemConstraints())
        value = cond.value
        if cond.op == "==":
            cons.pins.append(value)
        elif cond.op == "!=":
            cons.forbids.append(value)
        elif value.kind is ValueKind.NUMBER:
            cons.add_bound(cond.op, value.number)
        # Ordered comparison against a non-numeric value cannot be decided;
        # stay conservative and ignore it.
    if window_lo > window_hi:
        return False
    return all(cons.satisfiable() for cons in per_item.values())


def conditions_overlap(g1: Iterable[Condition], g2: Iterable[Condition]) -> bool:
    """True iff the conjunction of both guard sets is satisfiable."""
    return _satisfiable(list(g1) + list(g2))


# ---------------------------------------------------------------------------
# Action relations


def actions_contradict(a: Action, b: Action) -> bool:
    return a.item == b.item and value_conflicts(a.value, b.value)


def action_matches_trigger(action: Action, trigger: Trigger, strict: bool = True) -> bool:
    """Can executing `action` fire `trigger`?

    Strict matching mirrors command/update event channels exactly; lenient
    mode additionally lets a postUpdate fire received-command triggers.
    """
    if trigger.item is None or trigger.item != action.item:
        return False
    if trigger.kind is TriggerKind.ITEM_UPDATE:
        return True
    if trigger.kind is TriggerKind.ITEM_CHANGED:
        return trigger.to_value is None or values_equal(trigger.to_value, action.value)
    if trigger.kind is TriggerKind.ITEM_COMMAND:
        if action.kind is ActionKind.POST_UPDATE and strict:
            return False
        return trigger.command_value is None or values_equal(trigger.command_value, action.value)
    return False


def evaluate_comparison(value: Value, op: str, against: Value) -> bool:
    """Evaluate `value op against`; ordered ops require two numbers."""
    if op == "==":
        return values_equal(value, against)
    if op == "!=":
        return not values_equal(value, against)
    if value.kind is not ValueKind.NUMBER or against.kind is not ValueKind.NUMBER:
        return False
    if op == "<":
        return value.number < against.number
    if op == "<=":
        return value.number <= against.number
    if op == ">":
        return value.number > against.number
    if op == ">=":
        return value.number >= against.number
    return False


def action_enables_condition(action: Action, condition: Condition) -> bool:
    """Does the action's assigned value make the guard comparison true?"""
    if condition.kind is not ConditionKind.ITEM_COMPARISON:
        return False
    if condition.item != action.item:
        return False
    return evaluate_comparison(action.value, condition.op, condition.value)
