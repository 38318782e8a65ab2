from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from ritkit.ir import (
    Action,
    ActionKind,
    Condition,
    ConditionKind,
    CronSpec,
    Trigger,
    TriggerKind,
    make_value,
    number_value,
)
from ritkit.semantics import (
    action_enables_condition,
    action_matches_trigger,
    actions_contradict,
    conditions_overlap,
    triggers_overlap,
    value_conflicts,
)


def cron(expr: str) -> Trigger:
    return Trigger("t", TriggerKind.CRON, cron=CronSpec.parse(expr))


def changed(item: str, to: str | None = None) -> Trigger:
    return Trigger("t", TriggerKind.ITEM_CHANGED, item=item, to_value=make_value(to) if to else None)


def comparison(item: str, op: str, value: str) -> Condition:
    return Condition("c", ConditionKind.ITEM_COMPARISON, item=item, op=op, value=make_value(value))


def send(item: str, value: str) -> Action:
    return Action("a", ActionKind.SEND_COMMAND, item, make_value(value))


def update(item: str, value: str) -> Action:
    return Action("a", ActionKind.POST_UPDATE, item, make_value(value))


class TestTriggersOverlap:
    def test_cron_vs_state_comparison_defaults_to_overlap(self):
        state = Trigger("t", TriggerKind.STATE_COMPARISON, item="Temperature", op=">=", value=number_value(25))
        assert triggers_overlap(cron("0 00 18 * * ?"), state) is True

    def test_distinct_fixed_crons_are_disjoint(self):
        assert triggers_overlap(cron("0 30 08 * * ?"), cron("0 30 22 * * ?")) is False

    def test_same_item_changed_to_different_values_is_disjoint(self):
        assert triggers_overlap(changed("Foyer_Light", "ON"), changed("Foyer_Light", "OFF")) is False

    def test_state_comparisons_with_empty_intersection(self):
        lo = Trigger("t", TriggerKind.STATE_COMPARISON, item="temp", op="<", value=number_value(10))
        hi = Trigger("t", TriggerKind.STATE_COMPARISON, item="temp", op=">=", value=number_value(25))
        assert triggers_overlap(lo, hi) is False

    def test_wildcard_cron_overlaps_fixed(self):
        assert triggers_overlap(cron("0 * * * * ?"), cron("0 30 08 * * ?")) is True

    @given(st.integers(0, 10_000))
    def test_symmetric_and_reflexive(self, seed):
        rng = random.Random(seed)
        t1, t2 = oracle._random_trigger(rng), oracle._random_trigger(rng)
        assert triggers_overlap(t1, t2) == triggers_overlap(t2, t1)
        assert triggers_overlap(t1, t1) is True

    @given(st.integers(0, 10_000))
    def test_disjointness_is_confirmed_by_enumeration(self, seed):
        rng = random.Random(seed)
        t1, t2 = oracle._random_trigger(rng), oracle._random_trigger(rng)
        if not triggers_overlap(t1, t2):
            assert not oracle.oracle_triggers_overlap(t1, t2)


class TestConditionsOverlap:
    def test_contradictory_equalities(self):
        assert not conditions_overlap([comparison("x", "==", "ON")], [comparison("x", "==", "OFF")])

    def test_numeric_interval_intersection(self):
        g1 = [comparison("temp", ">=", "57")]
        g2 = [comparison("temp", ">=", "25")]
        assert conditions_overlap(g1, g2)
        # Independent interval oracle: [57, inf) and [25, inf) intersect.
        assert max(Fraction(57), Fraction(25)) < Fraction("1e9")

    def test_empty_guard_overlaps_everything(self):
        assert conditions_overlap([], [comparison("x", "==", "ON")])
        assert conditions_overlap([], [])

    def test_disjoint_time_windows(self):
        morning = Condition("c", ConditionKind.TIME_WINDOW, window=(8 * 60, 9 * 60))
        night = Condition("c", ConditionKind.TIME_WINDOW, window=(22 * 60, 23 * 60))
        assert not conditions_overlap([morning], [night])
        assert conditions_overlap([morning], [Condition("c", ConditionKind.TIME_WINDOW, window=(0, 24 * 60 - 1))])

    def test_degenerate_interval_with_exclusion(self):
        g1 = [comparison("n", ">=", "5"), comparison("n", "<=", "5")]
        assert conditions_overlap(g1, [])
        assert not conditions_overlap(g1, [comparison("n", "!=", "5")])

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=300)
    def test_monotone_under_condition_removal(self, seed, n1, n2):
        rng = random.Random(seed)
        g1 = [oracle.random_condition(rng) for _ in range(n1)]
        g2 = [oracle.random_condition(rng) for _ in range(n2)]
        if conditions_overlap(g1, g2):
            assert conditions_overlap(g1[1:], g2)
            assert conditions_overlap(g1, g2[:-1] if g2 else g2)

    @given(st.integers(0, 10_000), st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=300)
    def test_agrees_with_enumeration_oracle(self, seed, n1, n2):
        rng = random.Random(seed)
        g1 = [oracle.random_condition(rng) for _ in range(n1)]
        g2 = [oracle.random_condition(rng) for _ in range(n2)]
        assert conditions_overlap(g1, g2) == oracle.oracle_conditions_overlap(g1, g2)


class TestActionsAndValues:
    def test_window_lock_on_off_contradict(self):
        assert actions_contradict(send("Window_Lock", "ON"), send("Window_Lock", "OFF"))

    def test_opaque_unequal_values_conflict(self):
        assert actions_contradict(send("wtrvalvefront", "off_r"), send("wtrvalvefront", "on_r"))

    def test_different_items_never_contradict(self):
        assert not actions_contradict(send("Kitchen_Light", "ON"), send("Foyer_Light", "OFF"))

    def test_value_conflicts_examples(self):
        assert value_conflicts(make_value("ON"), make_value("OFF"))
        assert not value_conflicts(make_value("ON"), make_value("on"))
        assert value_conflicts(number_value(20), number_value(25))
        assert not value_conflicts(make_value("20"), make_value("20.0"))
        assert not value_conflicts(make_value("CLOSE"), make_value("CLOSED"))

    @given(st.integers(0, 10_000))
    def test_conflict_symmetric_irreflexive(self, seed):
        rng = random.Random(seed)
        v1, v2 = oracle._random_value(rng), oracle._random_value(rng)
        assert value_conflicts(v1, v2) == value_conflicts(v2, v1)
        assert not value_conflicts(v1, v1)
        assert value_conflicts(v1, v2) == oracle.oracle_value_conflicts(v1, v2)


class TestActionMatchesTrigger:
    def test_send_matches_changed_to_same_value(self):
        assert action_matches_trigger(send("Foyer_Light", "ON"), changed("Foyer_Light", "ON"), strict=True)

    def test_update_does_not_match_command_when_strict(self):
        trig = Trigger("t", TriggerKind.ITEM_COMMAND, item="X")
        assert not action_matches_trigger(update("X", "ON"), trig, strict=True)
        assert action_matches_trigger(update("X", "ON"), trig, strict=False)

    def test_different_items_never_match(self):
        assert not action_matches_trigger(send("X", "ON"), changed("Y", "ON"), strict=False)

    def test_changed_without_target_value_matches_any(self):
        assert action_matches_trigger(send("X", "OFF"), changed("X"), strict=True)

    def test_changed_to_other_value_does_not_match(self):
        assert not action_matches_trigger(send("X", "OFF"), changed("X", "ON"), strict=True)

    def test_command_value_must_agree(self):
        trig = Trigger("t", TriggerKind.ITEM_COMMAND, item="X", command_value=make_value("ON"))
        assert action_matches_trigger(send("X", "on"), trig)
        assert not action_matches_trigger(send("X", "OFF"), trig)


class TestActionEnablesCondition:
    def test_equality_enabled_by_matching_write(self):
        assert action_enables_condition(send("window_Lock", "OFF"), comparison("window_Lock", "==", "OFF"))

    def test_equality_not_enabled_by_other_value(self):
        assert not action_enables_condition(send("window_Lock", "ON"), comparison("window_Lock", "==", "OFF"))

    def test_numeric_threshold(self):
        cond = comparison("Temp", ">=", "57")
        assert action_enables_condition(send("Temp", "60"), cond)
        assert Fraction(60) >= Fraction(57)
        assert not action_enables_condition(send("Temp", "50"), cond)

    def test_time_windows_are_never_enabled(self):
        window = Condition("c", ConditionKind.TIME_WINDOW, window=(0, 100))
        assert not action_enables_condition(send("x", "ON"), window)

    @given(st.integers(0, 10_000))
    @settings(max_examples=300)
    def test_enablement_implies_guard_satisfiable_with_write(self, seed):
        rng = random.Random(seed)
        cond = oracle.random_condition(rng)
        action = Action("a", ActionKind.SEND_COMMAND, cond.item or "x", oracle._random_value(rng))
        if action_enables_condition(action, cond):
            as_equality = comparison(action.item, "==", action.value.raw)
            assert conditions_overlap([cond], [as_equality])
