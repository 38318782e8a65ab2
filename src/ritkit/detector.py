"""Pairwise classification of rules into the six threat categories.

`detect_file` indexes each rule's items once per ruleset: a rule writes its
action items and reads its trigger items and the items its item-comparison
conditions test. It visits a rule pair only when one rule writes an item
that the other writes or reads, in file order; every relation below needs
an action of one rule on an item of the other, so no other pair can yield a
finding. `detect_pairs_touching` visits only those of these pairs that
include given rules, for re-checking a ruleset in which only those rules
changed. For each visited pair the detector checks three families:

* action contradiction (WAC/SAC): contradictory actions, overlapping
  triggers, co-satisfiable guards; strong when both guard sets are empty;
* trigger cascade (WTC/STC): an action of one rule fires a trigger of the
  other; strong when neither side involves conditions;
* condition cascade (WCC/SCC): an action of one rule enables the guards on
  an action of the other; strong when every guard is enabled.

`detect_pair` makes one pass per pair. It checks trigger overlap once for
each trigger of one rule against each trigger of the other, and both
directions of all three families share that scan. Cascade families are
evaluated in both directions, action contradiction once. A finding's
evidence is rendered only when the finding is emitted, and a direction's
overlapping triggers only once, for its first finding. Guards of an action
are always merged with its rule's when-clause conditions.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Callable, Iterable, NamedTuple

from .ir import (
    Action,
    Condition,
    ConditionKind,
    Rule,
    RuleSet,
    action_text,
    condition_text,
    effective_guards,
    trigger_text,
)
from .semantics import (
    action_enables_condition,
    action_matches_trigger,
    actions_contradict,
    conditions_overlap,
    triggers_overlap,
)


class FineCategory(Enum):
    WAC = "WAC"
    SAC = "SAC"
    WTC = "WTC"
    STC = "STC"
    WCC = "WCC"
    SCC = "SCC"


class CoarseCategory(Enum):
    AC = "AC"
    TC = "TC"
    CC = "CC"


# A fine category is W (weak) or S (strong) followed by its family.
_COARSE = {fine: CoarseCategory(fine.value[1:]) for fine in FineCategory}

# Fixed order used for report count lines and corpus enumeration.
CATEGORY_ORDER = (
    FineCategory.SAC,
    FineCategory.WAC,
    FineCategory.STC,
    FineCategory.WTC,
    FineCategory.SCC,
    FineCategory.WCC,
)

AC_DESCRIPTION = (
    "IF OVERLAPPING SETS OF TRIGGERS AND CONDITIONS ARE CONCURRENTLY ACTIVATED\n"
    "CONTRADICTORY ACTION EXECUTION COULD OCCUR IN ANY ORDER\n"
    "WHICH MAY RESULT IN AN INDETERMINATE DEVICE STATE."
)
TC_DESCRIPTION = (
    "ONE RULE'S ACTION CAN FIRE THE OTHER RULE'S TRIGGER\n"
    "CAUSING A CASCADE OF RULE EXECUTIONS THAT MAY RUN\n"
    "WITHOUT THE USER INTENDING OR NOTICING THE CHAIN."
)
CC_DESCRIPTION = (
    "ONE RULE'S ACTION CAN ENABLE CONDITIONS GUARDING THE OTHER RULE'S ACTION\n"
    "ALLOWING OTHERWISE GUARDED BEHAVIOUR TO PROCEED\n"
    "WHEN BOTH RULES ARE TRIGGERED IN PARALLEL."
)

def aggregate(fine: FineCategory) -> CoarseCategory:
    return _COARSE[fine]


class EvidenceRef(NamedTuple):
    """An IR node id plus its source-style rendering, for reports."""

    id: str
    text: str


class RuleRef(NamedTuple):
    id: str
    name: str


class Finding(NamedTuple):
    category: FineCategory
    rule_a: RuleRef
    rule_b: RuleRef
    threat_pair: tuple[str, str]
    triggers_a: tuple[EvidenceRef, ...]
    triggers_b: tuple[EvidenceRef, ...]
    conditions_a: tuple[EvidenceRef, ...]
    conditions_b: tuple[EvidenceRef, ...]
    description: str
    action_a: EvidenceRef | None = None
    action_b: EvidenceRef | None = None  # AC only
    trigger_b: EvidenceRef | None = None  # TC only
    enabled_conditions_b: tuple[EvidenceRef, ...] = ()  # CC only

    @property
    def coarse(self) -> CoarseCategory:
        return aggregate(self.category)


def finding_key(f: Finding) -> str:
    """Stable identity used by the table stub, fail-open flags and audit logs."""
    return f"{f.category.value}:{f.rule_a.id}:{f.rule_b.id}:{f.threat_pair[0]}:{f.threat_pair[1]}"


class FindingReport(NamedTuple):
    file: str
    findings: tuple[Finding, ...]

    @property
    def counts(self) -> dict[str, int]:
        """Findings per fine category, in `CATEGORY_ORDER`."""
        counts = {cat.value: 0 for cat in CATEGORY_ORDER}
        for f in self.findings:
            counts[f.category.value] += 1
        return counts

    @property
    def total(self) -> int:
        return len(self.findings)


class _Direction:
    """Rule a into rule b, with the positions (i, j) of every overlapping
    trigger pair a.triggers[i], b.triggers[j], in (i, j) order.
    """

    def __init__(self, a: Rule, b: Rule, overlaps: list[tuple[int, int]]):
        self.a, self.b, self.overlaps = a, b, overlaps
        self.triggers: tuple[tuple[EvidenceRef, ...], tuple[EvidenceRef, ...]] | None = None

    def finding(
        self,
        category: FineCategory,
        threat_pair: tuple[str, str],
        action_a: Action,
        conditions_a: tuple[Condition, ...],
        conditions_b: tuple[Condition, ...],
        description: str,
        **evidence: object,
    ) -> Finding:
        """Build a finding of this direction; its overlapping triggers are
        rendered for the first one and reused after."""
        if self.triggers is None:
            self.triggers = (
                _refs([self.a.triggers[i] for i in dict.fromkeys(i for i, _ in self.overlaps)], trigger_text),
                _refs([self.b.triggers[j] for j in dict.fromkeys(j for _, j in self.overlaps)], trigger_text),
            )
        return Finding(
            category=category,
            rule_a=RuleRef(self.a.id, self.a.name),
            rule_b=RuleRef(self.b.id, self.b.name),
            threat_pair=threat_pair,
            triggers_a=self.triggers[0],
            triggers_b=self.triggers[1],
            conditions_a=_refs(conditions_a, condition_text),
            conditions_b=_refs(conditions_b, condition_text),
            description=description,
            action_a=EvidenceRef(action_a.id, action_text(action_a)),
            **evidence,
        )


def _refs(nodes: Iterable, render: Callable[..., str]) -> tuple[EvidenceRef, ...]:
    return tuple(EvidenceRef(node.id, render(node)) for node in nodes)


def detect_pair(a: Rule, b: Rule, strict: bool = True) -> list[Finding]:
    """All findings for one rule pair, in the order AC, TC a→b, TC b→a,
    CC a→b, CC b→a; AC findings name the rule with the lower index first.
    `strict` is event matching's switch (see `action_matches_trigger`).
    """
    if a.id == b.id:
        raise ValueError("detect_pair requires two distinct rules")
    overlaps = [
        (i, j) for i, ta in enumerate(a.triggers) for j, tb in enumerate(b.triggers) if triggers_overlap(ta, tb)
    ]
    forward = _Direction(a, b, overlaps)
    backward = _Direction(b, a, sorted((j, i) for i, j in overlaps))

    # Condition cascades, keyed per (enabler action, distinct guard set):
    # actions of rule b that share one guard set yield a single finding.
    cascades: list[Finding] = []
    if overlaps and a.all_conditions() and b.all_conditions():
        for d in (forward, backward):
            guard_sets: dict[tuple[str, ...], tuple[Condition, ...]] = {}
            for gb in d.b.guarded_actions:
                guards = effective_guards(d.b, gb)
                if guards:
                    guard_sets.setdefault(tuple(c.id for c in guards), guards)
            for ga in d.a.guarded_actions:
                for guards in guard_sets.values():
                    enabled = tuple(c for c in guards if action_enables_condition(ga.action, c))
                    if enabled:
                        category = FineCategory.SCC if len(enabled) == len(guards) else FineCategory.WCC
                        threat_pair = (ga.action.id, "+".join(c.id for c in guards))
                        cascades.append(d.finding(
                            category, threat_pair, ga.action, effective_guards(d.a, ga), guards, CC_DESCRIPTION,
                            enabled_conditions_b=_refs(enabled, condition_text),
                        ))

    # Action contradictions. An action pair whose relationship is already a
    # strong condition cascade (one action's write satisfies the other's
    # entire guard set) is the cascade's enabling edge, not an independent
    # contradiction, and is skipped; SCC threat pairs name those edges.
    strong = {f.threat_pair for f in cascades if f.category is FineCategory.SCC}
    d = backward if a.index > b.index else forward
    findings: list[Finding] = []
    for ga in (d.a.guarded_actions if overlaps else ()):
        guards_a = effective_guards(d.a, ga)
        for gb in d.b.guarded_actions:
            if not actions_contradict(ga.action, gb.action):
                continue
            guards_b = effective_guards(d.b, gb)
            if not conditions_overlap(guards_a, guards_b):
                continue
            if (ga.action.id, "+".join(c.id for c in guards_b)) in strong:
                continue
            if (gb.action.id, "+".join(c.id for c in guards_a)) in strong:
                continue
            category = FineCategory.SAC if not guards_a and not guards_b else FineCategory.WAC
            findings.append(d.finding(
                category, (ga.action.id, gb.action.id), ga.action, guards_a, guards_b, AC_DESCRIPTION,
                action_b=EvidenceRef(gb.action.id, action_text(gb.action)),
            ))

    # Trigger cascades, which need no trigger overlap.
    for d in (forward, backward):
        conditions_b = d.b.all_conditions()
        for ga in d.a.guarded_actions:
            guards_a = effective_guards(d.a, ga)
            for trig in d.b.triggers:
                if not action_matches_trigger(ga.action, trig, strict):
                    continue
                if not guards_a and not conditions_b:
                    category = FineCategory.STC
                elif conditions_overlap(guards_a, conditions_b):
                    category = FineCategory.WTC
                else:
                    continue
                findings.append(d.finding(
                    category, (ga.action.id, trig.id), ga.action, guards_a, conditions_b, TC_DESCRIPTION,
                    trigger_b=EvidenceRef(trig.id, trigger_text(trig)),
                ))
    return findings + cascades


def _item_neighbours(rules: tuple[Rule, ...]) -> list[set[int]]:
    """For each rule position, the positions of the rules it shares an item
    with: one of the two writes an item that the other writes or reads.

    Only such pairs can yield a finding: `actions_contradict`,
    `action_matches_trigger` and `action_enables_condition` all compare
    `action.item` with an item of the other rule.
    """
    writers: dict[str, set[int]] = defaultdict(set)
    readers: dict[str, set[int]] = defaultdict(set)
    for k, rule in enumerate(rules):
        for ga in rule.guarded_actions:
            writers[ga.action.item].add(k)
        for trig in rule.triggers:
            if trig.item is not None:
                readers[trig.item].add(k)
        for cond in rule.all_conditions():
            if cond.kind is ConditionKind.ITEM_COMPARISON:
                readers[cond.item].add(k)
    neighbours: list[set[int]] = [set() for _ in rules]
    for item, written_by in writers.items():
        read_by = readers.get(item, set())
        touching = written_by | read_by
        for k in written_by:
            neighbours[k] |= touching
        for k in read_by:
            neighbours[k] |= written_by
    return neighbours


def detect_pairs_touching(rules: tuple[Rule, ...], positions: Iterable[int], strict: bool = True) -> list[Finding]:
    """Classify every unordered pair of rules sharing an item that includes
    a rule at one of `positions`, in file order; other pairs are not visited."""
    neighbours = _item_neighbours(rules)
    pairs = sorted({(min(p, k), max(p, k)) for p in positions for k in neighbours[p] if k != p})
    return [f for i, j in pairs for f in detect_pair(rules[i], rules[j], strict)]


def detect_file(ruleset: RuleSet, strict: bool = True) -> FindingReport:
    """Classify every unordered pair of rules sharing an item, in file order."""
    findings = detect_pairs_touching(ruleset.rules, range(len(ruleset.rules)), strict)
    return FindingReport(file=ruleset.file_id, findings=tuple(findings))
