"""Grammar-aware mutation operators that inject one threat per mutant.

Each operator rewrites one eligible rule pair of a benign seed ruleset so the
detector finds exactly the targeted category on that pair. Rewrites happen on
the IR, are rendered back to source, and spliced into the seed text so the
mutant differs from the seed only within the selected pair.

Every emitted mutant is validated without parsing or detecting the whole
file again. Its two rewritten rule blocks must each re-parse cleanly on their
own, as the rules of their positions. Every other rule of the seed is reused,
moved by the change in length when it comes after a rewritten block. Only
the pairs that include a rewritten rule and share an item with it are
detected again: every other pair is a pair of the seed's and keeps the
seed's findings. All new findings must sit on the mutated pair, and the
detector must recover the target category. postUpdate cascade variants are expected to be missed under strict
event matching; such misses carry the `strict-event-matching` cause tag.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .detector import (
    CATEGORY_ORDER,
    CoarseCategory,
    DetectorConfig,
    FineCategory,
    aggregate,
    detect_file,
    detect_pair,
    detect_pairs_touching,
)
from .ir import (
    Action,
    ActionKind,
    Condition,
    ConditionKind,
    GuardedAction,
    Rule,
    RuleSet,
    Trigger,
    TriggerKind,
    Value,
    ValueKind,
    effective_guards,
    make_value,
    number_value,
    rule_source,
)
from .parser import parse_rule_block, parse_ruleset
from .records import dump_records, read_records
from .semantics import triggers_overlap, value_conflicts
from .source import SourceFile

DEFAULT_WINDOW = (8 * 60, 20 * 60)

MISS_STRICT_MATCHING = "strict-event-matching"


class MutationError(Exception):
    pass


class Seed(NamedTuple):
    path: str
    text: str
    ruleset: RuleSet
    finding_keys: frozenset[tuple]  # identities of the seed's own findings

    @staticmethod
    def load(path: str | Path) -> "Seed":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise MutationError(f"cannot read {path}: {exc}") from exc
        return Seed.from_text(text, str(path))

    @staticmethod
    def from_text(text: str, path: str = "<seed>") -> "Seed":
        ruleset = parse_ruleset(SourceFile.from_text(text, path))
        if ruleset.errors():
            raise MutationError(f"seed {path} does not parse cleanly: {ruleset.errors()[0].message}")
        # Strict whatever the default: validation takes these as the strict findings of the pairs it skips.
        report = detect_file(ruleset, DetectorConfig(strict_event_matching=True))
        return Seed(path, text, ruleset, frozenset(_finding_identity(f) for f in report.findings))


class _MutantFields(NamedTuple):
    mutant_id: str
    seed_file: str
    operator: str
    rule_a: str
    rule_b: str
    injected: dict[str, str]
    output_path: str
    miss_cause: str | None = None


class MutantRecord(_MutantFields):
    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> MutantRecord:
        self = super().__new__(cls, *args, **kwargs)
        FineCategory(self.operator)  # a ValueError names an unknown operator
        return self


class MutantManifest(NamedTuple):
    records: list[MutantRecord]

    def totals(self) -> dict[str, int]:
        out = {cat.value: 0 for cat in CATEGORY_ORDER}
        for rec in self.records:
            out[rec.operator] += 1
        return out

    @staticmethod
    def load(path: str | Path) -> "MutantManifest":
        return MutantManifest(read_records(path, MutantRecord))


# ---------------------------------------------------------------------------
# Vocabulary and value synthesis


def _vocabulary(*rules: Rule) -> tuple[list[str], list[Value]]:
    """Items and values the rules name, each once, in order of appearance."""
    items: dict[str, None] = {}
    values: dict[str, Value] = {}
    for rule in rules:
        for t in rule.triggers:
            if t.item:
                items.setdefault(t.item)
            for v in (t.from_value, t.to_value, t.command_value, t.value):
                if v is not None:
                    values.setdefault(f"{v.kind.value}:{v.text}", v)
        for c in rule.all_conditions():
            if c.item:
                items.setdefault(c.item)
            if c.value is not None:
                values.setdefault(f"{c.value.kind.value}:{c.value.text}", c.value)
        for ga in rule.guarded_actions:
            items.setdefault(ga.action.item)
            v = ga.action.value
            values.setdefault(f"{v.kind.value}:{v.text}", v)
    return list(items), list(values.values())


def conflicting_value(value: Value, vocabulary: Iterable[Value] = ()) -> Value:
    """A value that conflicts with `value`, preferring the pair's own terms."""
    if value.kind is ValueKind.SWITCH:
        return make_value("OFF" if value.text == "ON" else "ON")
    if value.kind is ValueKind.OPEN_CLOSED:
        return make_value("CLOSED" if value.text == "OPEN" else "OPEN")
    if value.kind is ValueKind.UP_DOWN:
        return make_value("DOWN" if value.text == "UP" else "UP")
    for cand in vocabulary:
        if cand.kind is value.kind and value_conflicts(cand, value):
            return cand
    if value.kind is ValueKind.NUMBER:
        return number_value(value.number + 1)
    return make_value(f"{value.text}_alt")


def _enabler_value(cond: Condition, vocabulary: Iterable[Value]) -> Value | None:
    """A value that satisfies `item op value` by substitution, or None."""
    op, val = cond.op, cond.value
    if op in ("==", ">=", "<="):
        return val
    if op == "!=":
        return conflicting_value(val, vocabulary)
    if val.kind is not ValueKind.NUMBER:
        return None
    if op == ">":
        return number_value(val.number + 1)
    if op == "<":
        return number_value(val.number - 1)
    return None


def _fresh_item(base: str, taken: set[str]) -> str:
    name = base
    n = 1
    while name in taken:
        n += 1
        name = f"{base}_{n}"
    return name


def _all_item_names(rs: RuleSet) -> set[str]:
    return set(_vocabulary(*rs.rules)[0])


# ---------------------------------------------------------------------------
# Transforms. Each returns (new_a, new_b, injected-evidence) or raises.


def _strip_conditions(rule: Rule) -> Rule:
    return rule._replace(
        conditions=(),
        guarded_actions=tuple(GuardedAction(ga.action, ()) for ga in rule.guarded_actions),
    )


def _align_triggers(a: Rule, b: Rule) -> Rule:
    """Give b a trigger provably overlapping a's when none overlaps."""
    if any(triggers_overlap(ta, tb) for ta in a.triggers for tb in b.triggers):
        return b
    return b._replace(triggers=(a.triggers[0],))


def _set_first_action(rule: Rule, action: Action, guards: tuple[Condition, ...]) -> Rule:
    return rule._replace(guarded_actions=(GuardedAction(action, guards),) + rule.guarded_actions[1:])


def _on_guard(item: str) -> Condition:
    return Condition("c0", ConditionKind.ITEM_COMPARISON, item=item, op="==", value=make_value("ON"))


def _new_action(kind: ActionKind, item: str, value: Value) -> Action:
    return Action("a0", kind, item, value)


class TransformContext(NamedTuple):
    ruleset: RuleSet
    fresh: bool
    post_update: bool  # trigger cascades fire through postUpdate

    def guard_item(self, a: Rule, b: Rule, avoid: set[str]) -> str:
        """An item to hang an injected guard on."""
        if not self.fresh:
            items, _ = _vocabulary(a, b)
            for item in items:
                if item not in avoid:
                    return item
        return _fresh_item("mut_guard_proxy", _all_item_names(self.ruleset) | avoid)

    def cascade_item(self, current: str) -> str:
        if not self.fresh:
            return current
        return _fresh_item(f"{current}_mut", _all_item_names(self.ruleset))


def _action_contradiction(ctx: TransformContext, a: Rule, b: Rule, weak: bool) -> tuple[Rule, Rule, dict]:
    """Rule B commands a value conflicting with rule A's first action; WAC guards it."""
    x = a.guarded_actions[0].action
    item = ctx.cascade_item(x.item)
    _, vocab = _vocabulary(a, b)
    counter = conflicting_value(x.value, vocab)
    injected = {"item": item, "value_a": x.value.text, "value_b": counter.text}
    if weak:
        guard_items = {c.item for c in a.all_conditions() if c.item}
        guard = _on_guard(ctx.guard_item(a, b, avoid={item} | guard_items))
        guards = (guard,)
        injected["condition_added"] = f"{guard.item} == ON"
    else:
        a, b, guards = _strip_conditions(a), _strip_conditions(b), ()
    new_a = _set_first_action(a, x._replace(item=item), a.guarded_actions[0].guards)
    new_b = _set_first_action(b, _new_action(ActionKind.SEND_COMMAND, item, counter), guards)
    return new_a, _align_triggers(new_a, new_b), injected


def transform_sac(ctx: TransformContext, a: Rule, b: Rule) -> tuple[Rule, Rule, dict]:
    return _action_contradiction(ctx, a, b, weak=False)


def transform_wac(ctx: TransformContext, a: Rule, b: Rule) -> tuple[Rule, Rule, dict]:
    return _action_contradiction(ctx, a, b, weak=True)


def _cascade_action(ctx: TransformContext, a: Rule) -> tuple[Action, dict]:
    """Rule A's first action, re-issued as the cascade's command or update."""
    x = a.guarded_actions[0].action
    kind = ActionKind.POST_UPDATE if ctx.post_update else ActionKind.SEND_COMMAND
    action = _new_action(kind, ctx.cascade_item(x.item), x.value)
    cascade = "postUpdate" if ctx.post_update else "sendCommand"
    return action, {"item": action.item, "value": action.value.text, "cascade": cascade}


def transform_stc(ctx: TransformContext, a: Rule, b: Rule) -> tuple[Rule, Rule, dict]:
    action, injected = _cascade_action(ctx, a)
    trigger = Trigger("t0", TriggerKind.ITEM_COMMAND, item=action.item, command_value=action.value)
    new_a = _strip_conditions(_set_first_action(a, action, ()))
    new_b = _strip_conditions(b._replace(triggers=(trigger,)))
    return new_a, new_b, injected


def transform_wtc(ctx: TransformContext, a: Rule, b: Rule) -> tuple[Rule, Rule, dict]:
    action, injected = _cascade_action(ctx, a)
    if ctx.post_update:
        # The command-channel trigger is what strict matching rejects.
        trigger = Trigger("t0", TriggerKind.ITEM_COMMAND, item=action.item, command_value=action.value)
    else:
        trigger = Trigger("t0", TriggerKind.ITEM_CHANGED, item=action.item, to_value=action.value)
    guards_x = effective_guards(a, a.guarded_actions[0])
    window = next((c.window for c in guards_x if c.kind is ConditionKind.TIME_WINDOW), DEFAULT_WINDOW)
    tw = Condition("c0", ConditionKind.TIME_WINDOW, window=window)
    new_a = _set_first_action(a, action, a.guarded_actions[0].guards)
    new_b = b._replace(triggers=(trigger,))
    if new_b.guarded_actions:
        new_b = new_b._replace(
            guarded_actions=tuple(GuardedAction(ga.action, ga.guards + (tw,)) for ga in new_b.guarded_actions),
        )
    else:
        new_b = new_b._replace(conditions=new_b.conditions + (tw,))
    injected["condition_added"] = f"time window {window[0] // 60:02d}:{window[0] % 60:02d}-{window[1] // 60:02d}:{window[1] % 60:02d}"
    return new_a, new_b, injected


def _pick_enablable_guard(ctx: TransformContext, a: Rule, b: Rule, y: GuardedAction) -> tuple[Condition, Value]:
    _, vocab = _vocabulary(a, b)
    for cond in y.guards:
        if cond.kind is ConditionKind.ITEM_COMPARISON:
            item = ctx.cascade_item(cond.item)
            cond = cond._replace(item=item) if item != cond.item else cond
            value = _enabler_value(cond, vocab)
            if value is not None:
                return cond, value
            return cond._replace(op="=="), cond.value
    cond = _on_guard(ctx.guard_item(a, b, avoid=set()))
    return cond, cond.value


def _ensure_rule_a_condition(ctx: TransformContext, a: Rule, enabler: GuardedAction, avoid: set[str]) -> GuardedAction:
    """CC requires a condition on rule A; guard the injected enabler if needed."""
    if a.all_conditions():
        return enabler
    return GuardedAction(enabler.action, (_on_guard(ctx.guard_item(a, a, avoid=avoid)),))


def _first_guarded_index(rule: Rule) -> int:
    for i, ga in enumerate(rule.guarded_actions):
        if ga.guards:
            return i
    raise MutationError("no guarded action on rule B")


def _condition_cascade(ctx: TransformContext, a: Rule, b: Rule, weak: bool) -> tuple[Rule, Rule, dict]:
    """Rule A enables the guard of rule B's first guarded action; WCC adds a blocker."""
    yi = _first_guarded_index(b)
    y = b.guarded_actions[yi]
    cond, value = _pick_enablable_guard(ctx, a, b, y)
    enabler = GuardedAction(_new_action(ActionKind.SEND_COMMAND, cond.item, value), ())
    enabler = _ensure_rule_a_condition(ctx, a, enabler, avoid={cond.item})
    new_a = a._replace(guarded_actions=a.guarded_actions + (enabler,))
    injected = {
        "item": cond.item,
        "value": value.text,
        "condition": f"{cond.item} {cond.op} {cond.value.text}",
    }
    if weak:
        guards = (cond, Condition("c0", ConditionKind.TIME_WINDOW, window=DEFAULT_WINDOW))
        injected["blocker"] = "time window"
    else:
        guards, b = (cond,), b._replace(conditions=())
    gas = list(b.guarded_actions)
    gas[yi] = GuardedAction(y.action, guards)
    new_b = b._replace(guarded_actions=tuple(gas))
    return new_a, _align_triggers(new_a, new_b), injected


def transform_scc(ctx: TransformContext, a: Rule, b: Rule) -> tuple[Rule, Rule, dict]:
    return _condition_cascade(ctx, a, b, weak=False)


def transform_wcc(ctx: TransformContext, a: Rule, b: Rule) -> tuple[Rule, Rule, dict]:
    return _condition_cascade(ctx, a, b, weak=True)


# ---------------------------------------------------------------------------
# Operators


class MutationOperator(NamedTuple):
    target: FineCategory
    ordered_pairs: bool
    precondition: Callable[[Rule, Rule], bool]
    transform: Callable[[TransformContext, Rule, Rule], tuple[Rule, Rule, dict]]

    @property
    def trigger_cascade(self) -> bool:
        """Trigger cascades are the operators with a postUpdate variant."""
        return aggregate(self.target) is CoarseCategory.TC

    def eligible(self, a: Rule, b: Rule) -> bool:
        """Whether the operator can rewrite the pair (a, b) of one ruleset."""
        return a is not b and self.precondition(a, b) and (self.ordered_pairs or a.index < b.index)


def _both_act(a: Rule, b: Rule) -> bool:
    return bool(a.guarded_actions) and bool(b.guarded_actions)


def _first_acts(a: Rule, b: Rule) -> bool:
    return bool(a.guarded_actions)


def _second_has_guard(a: Rule, b: Rule) -> bool:
    return any(ga.guards for ga in b.guarded_actions)


OPERATORS: dict[FineCategory, MutationOperator] = {
    op.target: op
    for op in (
        MutationOperator(FineCategory.SAC, False, _both_act, transform_sac),
        MutationOperator(FineCategory.WAC, False, _both_act, transform_wac),
        MutationOperator(FineCategory.STC, True, _first_acts, transform_stc),
        MutationOperator(FineCategory.WTC, True, _first_acts, transform_wtc),
        MutationOperator(FineCategory.SCC, True, _second_has_guard, transform_scc),
        MutationOperator(FineCategory.WCC, True, _second_has_guard, transform_wcc),
    )
}


def enumerate_eligible_pairs(ruleset: RuleSet, operator: MutationOperator) -> list[tuple[str, str]]:
    """Rule-id pairs the operator can rewrite, in deterministic order."""
    return [(a.id, b.id) for a in ruleset.rules for b in ruleset.rules if operator.eligible(a, b)]


# ---------------------------------------------------------------------------
# Application and validation


def _splice(seed: Seed, blocks: dict[str, str]) -> str:
    """The seed text with the block of each rule id in `blocks` replaced in place."""
    text = seed.text
    for rule in reversed(seed.ruleset.rules):  # later blocks first, so earlier spans stay valid
        if rule.id in blocks:
            start, end = rule.span
            text = text[:start] + blocks[rule.id] + text[end:]
    return text


# An operator rewrites a rule the same way for each partner it pairs it with,
# so about half the blocks that validation parses repeat one parsed before.
@lru_cache(maxsize=256)
def _parse_block(block: str, rule_id: str) -> Rule:
    """A rewritten rule block parsed alone, with its span relative to `block`."""
    parsed, diagnostics = parse_rule_block(block, rule_id)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise MutationError(f"mutant does not parse: {errors[0].message}")
    return parsed


def _mutant_rules(seed: Seed, blocks: dict[str, str]) -> tuple[Rule, ...]:
    """The rules that `parse_ruleset` gives for `_splice(seed, blocks)`.

    Each new block is parsed alone as the rule of its position. The rules
    after it move by the change in length; every other rule is reused.
    """
    rules: list[Rule] = []
    shift = 0
    for rule in seed.ruleset.rules:
        start, end = rule.span
        block = blocks.get(rule.id)
        if block is None:
            rules.append(rule._replace(span=(start + shift, end + shift)) if shift else rule)
            continue
        parsed = _parse_block(block, rule.id)
        offset = start + shift
        rules.append(parsed._replace(span=(parsed.span[0] + offset, parsed.span[1] + offset)))
        shift += len(block) - (end - start)
    return tuple(rules)


def _validate(seed: Seed, blocks: dict[str, str], target: FineCategory, expect_strict_miss: bool) -> str | None:
    """Validate the mutant that rewrites the pair of rule ids in `blocks`.

    Returns the miss cause tag (or None); raises MutationError when invalid.
    Only pairs that include a rewritten rule are detected: the others are
    pairs of the seed's, whose findings are in `seed.finding_keys`.
    """
    rules = _mutant_rules(seed, blocks)
    pair = set(blocks)
    rewritten = [k for k, rule in enumerate(rules) if rule.id in pair]
    strict_cats = set()
    for f in detect_pairs_touching(rules, rewritten, DetectorConfig(strict_event_matching=True)):
        if {f.rule_a.id, f.rule_b.id} == pair:
            strict_cats.add(f.category)
        elif _finding_identity(f) not in seed.finding_keys:
            raise MutationError(
                f"injection leaked outside the pair: {f.category.value} on ({f.rule_a.id}, {f.rule_b.id})"
            )

    if target in strict_cats:
        if expect_strict_miss:
            raise MutationError("postUpdate variant was unexpectedly recovered under strict matching")
        return None
    a, b = (rules[k] for k in rewritten)  # in file order, as detect_file passes them
    if target in {f.category for f in detect_pair(a, b, DetectorConfig(strict_event_matching=False))}:
        return MISS_STRICT_MATCHING
    raise MutationError(f"detector does not recover {target.value} on the mutated pair")


def _finding_identity(f) -> tuple:
    return (f.category.value, f.rule_a.id, f.rule_b.id, f.threat_pair)


def apply_operator(
    seed: Seed,
    pair: tuple[str, str],
    operator: MutationOperator,
    post_update_variant: bool = False,
    mutant_id: str | None = None,
    output_path: str = "",
) -> tuple[str, MutantRecord]:
    """Rewrite one pair; returns mutant source text plus its record."""
    by_id = {r.id: r for r in seed.ruleset.rules}
    a, b = by_id.get(pair[0]), by_id.get(pair[1])
    if a is None or b is None or not operator.eligible(a, b):
        raise MutationError(f"pair {pair} is not eligible for {operator.target.value}")
    post_update = post_update_variant and operator.trigger_cascade

    last_error: MutationError | None = None
    for fresh in (False, True):
        ctx = TransformContext(seed.ruleset, fresh, post_update)
        try:
            new_a, new_b, injected = operator.transform(ctx, a, b)
            blocks = {a.id: rule_source(new_a), b.id: rule_source(new_b)}
            miss = _validate(seed, blocks, operator.target, expect_strict_miss=post_update)
        except MutationError as exc:
            last_error = exc
            continue
        record = MutantRecord(
            mutant_id=mutant_id or f"{Path(seed.path).stem}__{operator.target.value}__{pair[0]}-{pair[1]}",
            seed_file=seed.path,
            operator=operator.target.value,
            rule_a=pair[0],
            rule_b=pair[1],
            injected={k: str(v) for k, v in injected.items()},
            output_path=output_path,
            miss_cause=miss,
        )
        return _splice(seed, blocks), record
    raise MutationError(f"transform inapplicable for {operator.target.value} on {pair}: {last_error}")


# ---------------------------------------------------------------------------
# Corpus generation


class Exhaustive(NamedTuple):
    """Every eligible pair."""


class Sample(NamedTuple):
    n: int
    rng_seed: int


def generate_corpus(
    seeds: list[Seed],
    strategy: Exhaustive | Sample,
    out_dir: str | Path,
    operators: Iterable[FineCategory] = CATEGORY_ORDER,
    post_update_cascades: bool = False,
) -> MutantManifest:
    """Write mutant files plus a line-delimited manifest; returns the manifest.

    A run that fails part-way removes every file it wrote before re-raising.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise MutationError(f"cannot create output directory {out}: {exc}") from exc
    if not os.access(out, os.W_OK):
        raise MutationError(f"output directory is not writable: {out}")

    jobs = [
        (seed, OPERATORS[cat], pair)
        for seed in seeds
        for cat in operators
        for pair in enumerate_eligible_pairs(seed.ruleset, OPERATORS[cat])
    ]
    if isinstance(strategy, Sample):
        if strategy.n > len(jobs):
            raise MutationError(f"sample size {strategy.n} exceeds {len(jobs)} eligible combinations")
        rng = random.Random(strategy.rng_seed)
        jobs = rng.sample(jobs, strategy.n)

    manifest = MutantManifest([])
    written: list[Path] = []
    try:
        for k, (seed, op, pair) in enumerate(jobs, start=1):
            suffix = "__pu" if post_update_cascades and op.trigger_cascade else ""
            mutant_id = f"m{k:04d}__{Path(seed.path).stem}__{op.target.value}__{pair[0]}-{pair[1]}{suffix}"
            path = out / f"{mutant_id}.rules"
            text, record = apply_operator(
                seed,
                pair,
                op,
                post_update_variant=post_update_cascades,
                mutant_id=mutant_id,
                output_path=str(path),
            )
            written.append(path)
            path.write_text(text, encoding="utf-8")
            manifest.records.append(record)
        manifest_path = out / "manifest.jsonl"
        written.append(manifest_path)
        manifest_path.write_text(dump_records(manifest.records), encoding="utf-8")
    except BaseException:
        # A failed run leaves no half-written corpus behind.
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return manifest


def bundled_seed_paths() -> list[Path]:
    """The benign seed rulesets shipped with the package."""
    seeds_dir = Path(__file__).parent / "seeds"
    return sorted(seeds_dir.glob("*.rules"))
