"""Independent enumeration oracle for the detector and its relations.

Deliberately written from scratch against the documented contracts, with no
imports from ritkit.semantics or ritkit.detector logic: satisfiability is
decided by enumerating candidate assignments, trigger disjointness by
enumerating firing instants/states, and the pair classification by applying
the category requirements literally. Used by equivalence and soundness
tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ritkit.ir import (
    Action,
    ActionKind,
    Condition,
    ConditionKind,
    CronSpec,
    GuardedAction,
    Rule,
    RuleSet,
    Trigger,
    TriggerKind,
    Value,
    make_value,
    number_value,
)

OTHER = object()  # a state distinct from every mentioned value


# ---------------------------------------------------------------------------
# Value canonicalization, redone via plain tables


_CANON = {
    "on": ("switch", "ON"),
    "off": ("switch", "OFF"),
    "open": ("open", "OPEN"),
    "close": ("open", "CLOSED"),
    "closed": ("open", "CLOSED"),
    "up": ("updown", "UP"),
    "down": ("updown", "DOWN"),
}


def canon(value: Value):
    if value.number is not None:
        return ("number", Fraction(value.number))
    folded = value.text.lower()
    if folded in _CANON:
        return _CANON[folded]
    return ("opaque", value.text)


def oracle_value_conflicts(v1: Value, v2: Value) -> bool:
    return canon(v1) != canon(v2)


# ---------------------------------------------------------------------------
# Condition satisfiability by assignment enumeration


def _candidates(conditions: list[Condition], item: str):
    numbers: set[Fraction] = set()
    discrete: list = []
    for cond in conditions:
        if cond.item != item or cond.value is None:
            continue
        kind, payload = canon(cond.value)
        if kind == "number":
            numbers.add(payload)
        elif payload not in [d[1] for d in discrete]:
            discrete.append((kind, payload))
    points: list[Fraction] = []
    ordered = sorted(numbers)
    for i, v in enumerate(ordered):
        if i == 0:
            points.append(v - 1)
        points.append(v)
        if i + 1 < len(ordered):
            points.append((v + ordered[i + 1]) / 2)
        else:
            points.append(v + 1)
    return [("number", p) for p in points] + discrete + [OTHER]


def _holds(cond: Condition, state) -> bool:
    kind, payload = canon(cond.value)
    if cond.op == "==":
        return state is not OTHER and state == (kind, payload)
    if cond.op == "!=":
        return state is OTHER or state != (kind, payload)
    # Ordered comparison: undecidable against a non-numeric bound, and a
    # non-numeric state never satisfies a numeric bound.
    if kind != "number":
        return True
    if state is OTHER or state[0] != "number":
        return False
    lhs = state[1]
    return {
        "<": lhs < payload,
        "<=": lhs <= payload,
        ">": lhs > payload,
        ">=": lhs >= payload,
    }[cond.op]


def oracle_conditions_satisfiable(conditions: list[Condition]) -> bool:
    """Per-item assignment enumeration; items and time are independent."""
    lo, hi = 0, 24 * 60 - 1
    for cond in conditions:
        if cond.kind is ConditionKind.TIME_WINDOW:
            lo, hi = max(lo, cond.window[0]), min(hi, cond.window[1])
    if lo > hi:
        return False
    items = {c.item for c in conditions if c.kind is ConditionKind.ITEM_COMPARISON}
    for item in items:
        mine = [c for c in conditions if c.kind is ConditionKind.ITEM_COMPARISON and c.item == item]
        if not any(all(_holds(c, state) for c in mine) for state in _candidates(mine, item)):
            return False
    return True


def oracle_conditions_overlap(g1, g2) -> bool:
    return oracle_conditions_satisfiable(list(g1) + list(g2))


# ---------------------------------------------------------------------------
# Trigger overlap by witness enumeration


def _fixed_minute_hour(cron: CronSpec):
    parts = cron.raw.split()
    if len(parts) < 3:
        return None
    try:
        return (int(parts[1]), int(parts[2]))
    except ValueError:
        return None


def _as_condition(trigger: Trigger) -> Condition:
    return Condition("", ConditionKind.ITEM_COMPARISON, item=trigger.item, op=trigger.op, value=trigger.value)


def _identical(a: Trigger, b: Trigger) -> bool:
    def sig(t: Trigger):
        return (
            t.kind,
            t.item,
            canon(t.from_value) if t.from_value else None,
            canon(t.to_value) if t.to_value else None,
            canon(t.command_value) if t.command_value else None,
            tuple(t.cron.raw.split()) if t.cron else None,
            t.op,
            canon(t.value) if t.value else None,
        )

    return sig(a) == sig(b)


def oracle_triggers_overlap(a: Trigger, b: Trigger) -> bool:
    if _identical(a, b):
        return True
    if a.kind is TriggerKind.CRON and b.kind is TriggerKind.CRON:
        fa, fb = _fixed_minute_hour(a.cron), _fixed_minute_hour(b.cron)
        if fa is not None and fb is not None:
            # Enumerate the single firing instant each fixed schedule has.
            return any(ia == ib for ia in [fa] for ib in [fb])
    if a.kind is TriggerKind.ITEM_CHANGED and b.kind is TriggerKind.ITEM_CHANGED and a.item == b.item:
        if a.to_value is not None and b.to_value is not None:
            # One change event lands on exactly one post-state.
            posts = [canon(a.to_value), canon(b.to_value)]
            return any(p == canon(a.to_value) and p == canon(b.to_value) for p in posts)
    if a.kind is TriggerKind.STATE_COMPARISON and b.kind is TriggerKind.STATE_COMPARISON and a.item == b.item:
        return oracle_conditions_satisfiable([_as_condition(a), _as_condition(b)])
    return True


# ---------------------------------------------------------------------------
# Event matching and enablement, redone as lookup tables


def oracle_action_matches_trigger(action: Action, trigger: Trigger, strict: bool) -> bool:
    if trigger.item is None or action.item != trigger.item:
        return False
    sends = action.kind is ActionKind.SEND_COMMAND
    if trigger.kind is TriggerKind.ITEM_UPDATE:
        return True
    if trigger.kind is TriggerKind.ITEM_CHANGED:
        return trigger.to_value is None or canon(trigger.to_value) == canon(action.value)
    if trigger.kind is TriggerKind.ITEM_COMMAND:
        if not sends and strict:
            return False
        return trigger.command_value is None or canon(trigger.command_value) == canon(action.value)
    return False


def oracle_action_enables(action: Action, cond: Condition) -> bool:
    if cond.kind is not ConditionKind.ITEM_COMPARISON or cond.item != action.item:
        return False
    av, cv = canon(action.value), canon(cond.value)
    if cond.op == "==":
        return av == cv
    if cond.op == "!=":
        return av != cv
    if av[0] != "number" or cv[0] != "number":
        return False
    return {
        "<": av[1] < cv[1],
        "<=": av[1] <= cv[1],
        ">": av[1] > cv[1],
        ">=": av[1] >= cv[1],
    }[cond.op]


# ---------------------------------------------------------------------------
# Whole-file classification from the category requirements


def _guards_of(rule: Rule, ga: GuardedAction) -> tuple[Condition, ...]:
    return tuple(rule.conditions) + tuple(ga.guards)


def _rule_conditions(rule: Rule) -> list[Condition]:
    seen = {}
    for c in rule.conditions:
        seen[c.id] = c
    for ga in rule.guarded_actions:
        for c in ga.guards:
            seen.setdefault(c.id, c)
    return list(seen.values())


def _overlapping(a: Rule, b: Rule) -> bool:
    return any(oracle_triggers_overlap(ta, tb) for ta in a.triggers for tb in b.triggers)


def _cc_identities(a: Rule, b: Rule) -> list[tuple]:
    """(category, a_id, b_id, threat_pair) for cascades a -> b."""
    out = []
    if not (_rule_conditions(a) and _rule_conditions(b) and _overlapping(a, b)):
        return out
    seen_guard_sets = []
    for gb in b.guarded_actions:
        guards = _guards_of(b, gb)
        key = tuple(c.id for c in guards)
        if guards and key not in [tuple(c.id for c in g) for g in seen_guard_sets]:
            seen_guard_sets.append(guards)
    for ga in a.guarded_actions:
        for guards in seen_guard_sets:
            enabled = [c for c in guards if oracle_action_enables(ga.action, c)]
            if not enabled:
                continue
            category = "SCC" if len(enabled) == len(guards) else "WCC"
            pair = (ga.action.id, "+".join(c.id for c in guards))
            out.append((category, a.id, b.id, pair))
    return out


def oracle_detect_file(ruleset: RuleSet, strict: bool = True) -> list[tuple]:
    """Multiset of (category, rule_a, rule_b, threat_pair) identity tuples."""
    found: list[tuple] = []
    rules = ruleset.rules
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
            a, b = rules[i], rules[j]
            cc = _cc_identities(a, b) + _cc_identities(b, a)
            scc_edges = {
                (pair[0], pair[1]) for (cat, _, _, pair) in cc if cat == "SCC"
            }

            # Action contradictions (order-insensitive, a before b).
            if _overlapping(a, b):
                for ga in a.guarded_actions:
                    for gb in b.guarded_actions:
                        if ga.action.item != gb.action.item:
                            continue
                        if not oracle_value_conflicts(ga.action.value, gb.action.value):
                            continue
                        guards_a, guards_b = _guards_of(a, ga), _guards_of(b, gb)
                        if not oracle_conditions_overlap(guards_a, guards_b):
                            continue
                        if (ga.action.id, "+".join(c.id for c in guards_b)) in scc_edges:
                            continue
                        if (gb.action.id, "+".join(c.id for c in guards_a)) in scc_edges:
                            continue
                        category = "SAC" if not guards_a and not guards_b else "WAC"
                        found.append((category, a.id, b.id, (ga.action.id, gb.action.id)))

            # Trigger cascades, both directions.
            for src, dst in ((a, b), (b, a)):
                dst_conditions = _rule_conditions(dst)
                for ga in src.guarded_actions:
                    guards = _guards_of(src, ga)
                    for trig in dst.triggers:
                        if not oracle_action_matches_trigger(ga.action, trig, strict):
                            continue
                        if not guards and not dst_conditions:
                            found.append(("STC", src.id, dst.id, (ga.action.id, trig.id)))
                        elif oracle_conditions_overlap(guards, dst_conditions):
                            found.append(("WTC", src.id, dst.id, (ga.action.id, trig.id)))

            found.extend(cc)
    return found


# ---------------------------------------------------------------------------
# Random small-ruleset generator (3-item universe)


ITEMS = ("dev_a", "dev_b", "dev_c")
_VALUES = ("ON", "OFF", "OPEN", "CLOSED", "UP", "DOWN", "7", "12", "alpha_mode")
_CRONS = ("0 00 08 * * ?", "0 30 08 * * ?", "0 00 20 * * ?", "0 * * * * ?")
_OPS = ("==", "!=", "<", "<=", ">", ">=")
_WINDOWS = ((8 * 60, 9 * 60), (6 * 60, 22 * 60), (21 * 60, 21 * 60 + 30))


def _random_value(rng: random.Random) -> Value:
    text = rng.choice(_VALUES)
    return make_value(text)


def _random_trigger(rng: random.Random) -> Trigger:
    kind = rng.choice(list(TriggerKind))
    item = rng.choice(ITEMS)
    if kind is TriggerKind.CRON:
        return Trigger("t", kind, cron=CronSpec.parse(rng.choice(_CRONS)))
    if kind is TriggerKind.SYSTEM_STARTED:
        return Trigger("t", kind)
    if kind is TriggerKind.ITEM_CHANGED:
        return Trigger(
            "t",
            kind,
            item=item,
            from_value=_random_value(rng) if rng.random() < 0.3 else None,
            to_value=_random_value(rng) if rng.random() < 0.7 else None,
        )
    if kind is TriggerKind.ITEM_COMMAND:
        return Trigger("t", kind, item=item, command_value=_random_value(rng) if rng.random() < 0.6 else None)
    if kind is TriggerKind.ITEM_UPDATE:
        return Trigger("t", kind, item=item)
    return Trigger("t", kind, item=item, op=rng.choice(_OPS[2:]), value=number_value(rng.choice((5, 10, 25))))


def random_condition(rng: random.Random) -> Condition:
    if rng.random() < 0.25:
        return Condition("c", ConditionKind.TIME_WINDOW, window=rng.choice(_WINDOWS))
    return Condition(
        "c",
        ConditionKind.ITEM_COMPARISON,
        item=rng.choice(ITEMS),
        op=rng.choice(_OPS),
        value=_random_value(rng),
    )


def renumber(rules: list[Rule], file_id: str) -> RuleSet:
    """Reassign r/t/c/a ids by position, preserving structure.

    For rules built or reordered outside the parser, so id invariants keep
    holding; the parser mints its own ids.
    """
    out: list[Rule] = []
    for n, rule in enumerate(rules, start=1):
        rid = f"r{n}"
        triggers = tuple(
            t._replace(id=f"{rid}t{m}") for m, t in enumerate(rule.triggers, start=1)
        )
        cond_counter = 0
        cond_ids: dict[int, Condition] = {}

        def fresh(cond: Condition) -> Condition:
            nonlocal cond_counter
            key = id(cond)
            if key not in cond_ids:
                cond_counter += 1
                cond_ids[key] = cond._replace(id=f"{rid}c{cond_counter}")
            return cond_ids[key]

        conditions = tuple(fresh(c) for c in rule.conditions)
        gas: list[GuardedAction] = []
        for m, ga in enumerate(rule.guarded_actions, start=1):
            action = ga.action._replace(id=f"{rid}a{m}")
            gas.append(GuardedAction(action, tuple(fresh(c) for c in ga.guards)))
        out.append(
            rule._replace(id=rid, triggers=triggers, conditions=conditions, guarded_actions=tuple(gas))
        )
    return RuleSet(file_id=file_id, rules=tuple(out))


def random_ruleset(rng: random.Random, max_rules: int = 4) -> RuleSet:
    rules = []
    for n in range(rng.randint(1, max_rules)):
        triggers = tuple(_random_trigger(rng) for _ in range(rng.randint(1, 2)))
        conditions = tuple(random_condition(rng) for _ in range(rng.randint(0, 1)))
        gas = []
        for _ in range(rng.randint(0, 2)):
            action = Action(
                "a",
                rng.choice((ActionKind.SEND_COMMAND, ActionKind.POST_UPDATE)),
                rng.choice(ITEMS),
                _random_value(rng),
            )
            guards = tuple(random_condition(rng) for _ in range(rng.choices((0, 1, 2), weights=(5, 3, 1))[0]))
            gas.append(GuardedAction(action, guards))
        rules.append(Rule("r", f"generated rule {n + 1}", triggers, tuple(gas), conditions))
    return renumber(rules, file_id="<generated>")


def detector_identities(report) -> list[tuple]:
    return [(f.category.value, f.rule_a.id, f.rule_b.id, f.threat_pair) for f in report.findings]
