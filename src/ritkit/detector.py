"""Pairwise classification of rules into the six threat categories.

For every unordered rule pair the detector checks three families:

* action contradiction (WAC/SAC): contradictory actions, overlapping
  triggers, co-satisfiable guards; strong when both guard sets are empty;
* trigger cascade (WTC/STC): an action of one rule fires a trigger of the
  other; strong when neither side involves conditions;
* condition cascade (WCC/SCC): an action of one rule enables the guards on
  an action of the other; strong when every guard is enabled.

Cascade families are evaluated in both directions. Guards of an action are
always merged with its rule's when-clause conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .ir import (
    Condition,
    GuardedAction,
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


_COARSE = {
    FineCategory.WAC: CoarseCategory.AC,
    FineCategory.SAC: CoarseCategory.AC,
    FineCategory.WTC: CoarseCategory.TC,
    FineCategory.STC: CoarseCategory.TC,
    FineCategory.WCC: CoarseCategory.CC,
    FineCategory.SCC: CoarseCategory.CC,
}

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


@dataclass(frozen=True)
class DetectorConfig:
    strict_event_matching: bool = True


@dataclass(frozen=True)
class EvidenceRef:
    """An IR node id plus its source-style rendering, for reports."""

    id: str
    text: str


@dataclass(frozen=True)
class RuleRef:
    id: str
    name: str


@dataclass(frozen=True)
class Finding:
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
    """Stable identity used by routing, verdict merge and audit logs."""
    return f"{f.category.value}:{f.rule_a.id}:{f.rule_b.id}:{f.threat_pair[0]}:{f.threat_pair[1]}"


@dataclass(frozen=True)
class FindingReport:
    file: str
    findings: tuple[Finding, ...]
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        counts = {cat.value: 0 for cat in CATEGORY_ORDER}
        for f in self.findings:
            counts[f.category.value] += 1
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return len(self.findings)

    def coarse_counts(self) -> dict[str, int]:
        out = {cat.value: 0 for cat in CoarseCategory}
        for f in self.findings:
            out[f.coarse.value] += 1
        return out


# ---------------------------------------------------------------------------
# Evidence assembly helpers


def _trigger_refs(pairs: list[tuple]) -> tuple[tuple[EvidenceRef, ...], tuple[EvidenceRef, ...]]:
    seen_a: dict[str, EvidenceRef] = {}
    seen_b: dict[str, EvidenceRef] = {}
    for ta, tb in pairs:
        seen_a.setdefault(ta.id, EvidenceRef(ta.id, trigger_text(ta)))
        seen_b.setdefault(tb.id, EvidenceRef(tb.id, trigger_text(tb)))
    return tuple(seen_a.values()), tuple(seen_b.values())


def _condition_refs(conds: tuple[Condition, ...]) -> tuple[EvidenceRef, ...]:
    return tuple(EvidenceRef(c.id, condition_text(c)) for c in conds)


def _action_ref(ga: GuardedAction) -> EvidenceRef:
    return EvidenceRef(ga.action.id, action_text(ga.action))


def _overlapping_trigger_pairs(a: Rule, b: Rule) -> list[tuple]:
    return [
        (ta, tb)
        for ta in a.triggers
        for tb in b.triggers
        if triggers_overlap(ta, tb).overlap
    ]


# ---------------------------------------------------------------------------
# Classifiers


def _scc_edges(findings: list[Finding]) -> set[tuple[str, tuple[str, ...]]]:
    """(enabler action id, enabled guard ids) for every SCC finding."""
    return {
        (f.action_a.id, tuple(ref.id for ref in f.enabled_conditions_b))
        for f in findings
        if f.category is FineCategory.SCC
    }


def classify_action_contradiction(
    a: Rule, b: Rule, scc_edges: set[tuple[str, tuple[str, ...]]] = frozenset()
) -> list[Finding]:
    """WAC/SAC findings, canonicalized so rule_a precedes rule_b.

    An action pair whose relationship is already reported as a strong
    condition cascade (one action's write satisfies the other's entire guard
    set) is the cascade's enabling edge, not an independent contradiction,
    and is skipped.
    """
    if a.index > b.index:
        a, b = b, a
    overlap_pairs = _overlapping_trigger_pairs(a, b)
    if not overlap_pairs:
        return []
    triggers_a, triggers_b = _trigger_refs(overlap_pairs)
    findings: list[Finding] = []
    for ga in a.guarded_actions:
        guards_a = effective_guards(a, ga)
        for gb in b.guarded_actions:
            if not actions_contradict(ga.action, gb.action):
                continue
            guards_b = effective_guards(b, gb)
            if not conditions_overlap(guards_a, guards_b):
                continue
            if (ga.action.id, tuple(c.id for c in guards_b)) in scc_edges:
                continue
            if (gb.action.id, tuple(c.id for c in guards_a)) in scc_edges:
                continue
            category = FineCategory.SAC if not guards_a and not guards_b else FineCategory.WAC
            findings.append(
                Finding(
                    category=category,
                    rule_a=RuleRef(a.id, a.name),
                    rule_b=RuleRef(b.id, b.name),
                    threat_pair=(ga.action.id, gb.action.id),
                    triggers_a=triggers_a,
                    triggers_b=triggers_b,
                    conditions_a=_condition_refs(guards_a),
                    conditions_b=_condition_refs(guards_b),
                    description=AC_DESCRIPTION,
                    action_a=_action_ref(ga),
                    action_b=_action_ref(gb),
                )
            )
    return findings


def classify_trigger_cascade(a: Rule, b: Rule, strict: bool = True) -> list[Finding]:
    """WTC/STC findings for cascades from rule a into rule b."""
    conditions_b = b.all_conditions()
    overlap_pairs = _overlapping_trigger_pairs(a, b)
    triggers_a, triggers_b = _trigger_refs(overlap_pairs)
    findings: list[Finding] = []
    for ga in a.guarded_actions:
        guards_a = effective_guards(a, ga)
        for trig in b.triggers:
            if not action_matches_trigger(ga.action, trig, strict):
                continue
            if not guards_a and not conditions_b:
                category = FineCategory.STC
            elif conditions_overlap(guards_a, conditions_b):
                category = FineCategory.WTC
            else:
                continue
            findings.append(
                Finding(
                    category=category,
                    rule_a=RuleRef(a.id, a.name),
                    rule_b=RuleRef(b.id, b.name),
                    threat_pair=(ga.action.id, trig.id),
                    triggers_a=triggers_a,
                    triggers_b=triggers_b,
                    conditions_a=_condition_refs(guards_a),
                    conditions_b=_condition_refs(conditions_b),
                    description=TC_DESCRIPTION,
                    action_a=_action_ref(ga),
                    trigger_b=EvidenceRef(trig.id, trigger_text(trig)),
                )
            )
    return findings


def classify_condition_cascade(a: Rule, b: Rule) -> list[Finding]:
    """WCC/SCC findings for rule a enabling guards in rule b.

    Findings are keyed per (enabler action, distinct guard set): actions in
    rule b sharing one guard set yield a single finding.
    """
    if not a.all_conditions() or not b.all_conditions():
        return []
    overlap_pairs = _overlapping_trigger_pairs(a, b)
    if not overlap_pairs:
        return []
    triggers_a, triggers_b = _trigger_refs(overlap_pairs)

    guard_sets: list[tuple[Condition, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for gb in b.guarded_actions:
        guards = effective_guards(b, gb)
        key = tuple(c.id for c in guards)
        if guards and key not in seen:
            seen.add(key)
            guard_sets.append(guards)

    findings: list[Finding] = []
    for ga in a.guarded_actions:
        guards_a = effective_guards(a, ga)
        for guards in guard_sets:
            enabled = tuple(c for c in guards if action_enables_condition(ga.action, c))
            if not enabled:
                continue
            category = FineCategory.SCC if len(enabled) == len(guards) else FineCategory.WCC
            findings.append(
                Finding(
                    category=category,
                    rule_a=RuleRef(a.id, a.name),
                    rule_b=RuleRef(b.id, b.name),
                    threat_pair=(ga.action.id, "+".join(c.id for c in guards)),
                    triggers_a=triggers_a,
                    triggers_b=triggers_b,
                    conditions_a=_condition_refs(guards_a),
                    conditions_b=_condition_refs(guards),
                    description=CC_DESCRIPTION,
                    action_a=_action_ref(ga),
                    enabled_conditions_b=tuple(EvidenceRef(c.id, condition_text(c)) for c in enabled),
                )
            )
    return findings


def detect_pair(a: Rule, b: Rule, config: DetectorConfig = DetectorConfig()) -> list[Finding]:
    """All findings for one rule pair; cascades run in both directions."""
    if a.id == b.id:
        raise ValueError("detect_pair requires two distinct rules")
    strict = config.strict_event_matching
    cascades = classify_condition_cascade(a, b) + classify_condition_cascade(b, a)
    findings = classify_action_contradiction(a, b, _scc_edges(cascades))
    findings += classify_trigger_cascade(a, b, strict)
    findings += classify_trigger_cascade(b, a, strict)
    findings += cascades
    return findings


def detect_file(ruleset: RuleSet, config: DetectorConfig = DetectorConfig()) -> FindingReport:
    """Classify every unordered distinct rule pair in file order."""
    findings: list[Finding] = []
    rules = ruleset.rules
    for i in range(len(rules)):
        for j in range(i + 1, len(rules)):
            findings.extend(detect_pair(rules[i], rules[j], config))
    return FindingReport(file=ruleset.file_id, findings=tuple(findings))
