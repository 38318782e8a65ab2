"""Reconciliation workflow: route findings, adjudicate, synthesize the report.

Unambiguous categories pass straight through; context-dependent ones
(default WAC and WTC) are decomposed into subtasks a pluggable adjudicator
answers independently. A finding survives only if every subtask upholds it.
Adjudicator outages fail open: the finding is kept and flagged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Protocol

from .client import AdjudicatorUnavailable, BackendError
from .detector import CoarseCategory, FineCategory, Finding, FindingReport, finding_key
from .prompts import ParseFailure, PromptTemplate, build_prompt, parse_model_response, scan_labels

DEFAULT_ROUTED_SET = frozenset({FineCategory.WAC, FineCategory.WTC})


class Route(Enum):
    PASS_THROUGH = "pass-through"
    NEEDS_ADJUDICATION = "needs-adjudication"


@dataclass(frozen=True)
class RoutingDecision:
    finding_ref: str
    route: Route


def route(finding: Finding, routed_set: frozenset[FineCategory] = DEFAULT_ROUTED_SET) -> RoutingDecision:
    """Membership test on the fine category."""
    selected = Route.NEEDS_ADJUDICATION if finding.category in routed_set else Route.PASS_THROUGH
    return RoutingDecision(finding_key(finding), selected)


class SubtaskKind(Enum):
    TRIGGER_OVERLAP = "trigger-overlap"
    CASCADE_SAFETY = "cascade-safety"
    ACTION_CONFLICT = "action-conflict"


@dataclass(frozen=True)
class AdjudicationSubtask:
    kind: SubtaskKind
    finding_ref: str
    payload: str  # the question text handed to the adjudicator


_SUBTASK_QUESTIONS = {
    SubtaskKind.TRIGGER_OVERLAP: (
        "TRIGGER-OVERLAP ANALYSIS\n"
        "Considering what the item names and schedules mean in a real home, can the two "
        "triggers below activate at the same moment? Answer YES if they can genuinely "
        "overlap, NO if common sense says they never coincide."
    ),
    SubtaskKind.CASCADE_SAFETY: (
        "TRIGGER-CASCADE SAFETY\n"
        "One rule's action fires the other rule's trigger. Judging intent from the rule "
        "names and devices, is this chain a hazard rather than a sequence the user "
        "designed on purpose? Answer YES if it is a genuine threat, NO if it looks intended."
    ),
    SubtaskKind.ACTION_CONFLICT: (
        "ACTION-CONFLICT CHECK\n"
        "Do the two actions below assign incompatible values to the same device attribute? "
        "Answer YES if they genuinely conflict, NO otherwise."
    ),
}

_FAMILY_SUBTASKS = {
    CoarseCategory.AC: (SubtaskKind.TRIGGER_OVERLAP, SubtaskKind.ACTION_CONFLICT),
    CoarseCategory.TC: (SubtaskKind.CASCADE_SAFETY,),
    CoarseCategory.CC: (SubtaskKind.TRIGGER_OVERLAP,),
}


def _payload(kind: SubtaskKind, finding: Finding) -> str:
    lines = [_SUBTASK_QUESTIONS[kind], ""]
    lines.append(f'RULE_A [{finding.rule_a.id}]: ("{finding.rule_a.name}")')
    lines.append(f'RULE_B [{finding.rule_b.id}]: ("{finding.rule_b.name}")')
    if kind is SubtaskKind.TRIGGER_OVERLAP:
        lines.append("TRIGGERS_A: " + "; ".join(ref.text for ref in finding.triggers_a))
        lines.append("TRIGGERS_B: " + "; ".join(ref.text for ref in finding.triggers_b))
    elif kind is SubtaskKind.CASCADE_SAFETY:
        lines.append(f"ACTION_A: {finding.action_a.text}")
        lines.append(f"TRIGGER_B: {finding.trigger_b.text}")
    else:
        lines.append(f"ACTION_A: {finding.action_a.text}")
        lines.append(f"ACTION_B: {finding.action_b.text}")
    lines.append("")
    lines.append("Answer with a single word, YES or NO, on the last line.")
    return "\n".join(lines)


def subtasks_for(finding: Finding) -> tuple[AdjudicationSubtask, ...]:
    ref = finding_key(finding)
    return tuple(
        AdjudicationSubtask(kind, ref, _payload(kind, finding))
        for kind in _FAMILY_SUBTASKS[finding.coarse]
    )


class Decision(Enum):
    CONFIRMED = "confirmed"
    DISCARDED = "discarded"


@dataclass(frozen=True)
class Verdict:
    finding_ref: str
    decision: Decision
    rationale: str | None


@dataclass(frozen=True)
class AuditRecord:
    finding_ref: str
    subtask: str
    raw_response: str
    uphold: bool

    def to_json(self) -> dict:
        return {
            "finding": self.finding_ref,
            "subtask": self.subtask,
            "raw_response": self.raw_response,
            "uphold": self.uphold,
        }


class SubtaskAdjudicator(Protocol):
    def answer_subtask(self, finding_key: str, subtask_kind: str, payload: str) -> tuple[bool, str]: ...


class ModelAdjudicator:
    """Answers subtasks through a text backend; YES upholds the threat."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def answer_subtask(self, finding_key: str, subtask_kind: str, payload: str) -> tuple[bool, str]:
        try:
            response = self.backend.complete(payload)
        except BackendError as exc:
            raise AdjudicatorUnavailable(str(exc)) from exc
        # Only a clear NO discards; an unreadable or ambiguous answer keeps the
        # finding (the symbolic phase's recall wins).
        return scan_labels(response, ("YES", "NO"), multi_allowed=False) != ("NO",), response


def adjudicate(
    finding: Finding,
    subtasks: tuple[AdjudicationSubtask, ...],
    adjudicator: SubtaskAdjudicator,
    audit: list[AuditRecord] | None = None,
) -> Verdict:
    """Answer every subtask; confirmed only when all uphold the threat.

    Raises AdjudicatorUnavailable when the backend is exhausted, which the
    pipeline maps to a fail-open pass-through.
    """
    ref = finding_key(finding)
    upheld = True
    rationale = None
    for subtask in subtasks:
        ok, raw = adjudicator.answer_subtask(ref, subtask.kind.value, subtask.payload)
        if audit is not None:
            audit.append(AuditRecord(ref, subtask.kind.value, raw, ok))
        if not ok:
            upheld = False
            rationale = f"{subtask.kind.value} rejected"
    decision = Decision.CONFIRMED if upheld else Decision.DISCARDED
    return Verdict(ref, decision, rationale)


@dataclass(frozen=True)
class ReconciledReport:
    final: FindingReport
    discarded: tuple[Finding, ...]
    fail_open_refs: tuple[str, ...]
    verdicts: dict[str, Verdict]
    audit: tuple[AuditRecord, ...]


def reconcile(
    report: FindingReport,
    verdicts: dict[str, Verdict],
    fail_open_refs: Iterable[str] = (),
) -> ReconciledReport:
    """Pass-through plus confirmed findings; discarded kept for audit."""
    fail_open = set(fail_open_refs)
    kept: list[Finding] = []
    discarded: list[Finding] = []
    for finding in report.findings:
        ref = finding_key(finding)
        verdict = verdicts.get(ref)
        if verdict is None or ref in fail_open or verdict.decision is Decision.CONFIRMED:
            kept.append(finding)
        else:
            discarded.append(finding)
    final = FindingReport(file=report.file, findings=tuple(kept))
    return ReconciledReport(final, tuple(discarded), tuple(sorted(fail_open)), dict(verdicts), ())


def run_pipeline(
    report: FindingReport,
    adjudicator: SubtaskAdjudicator,
    routed_set: frozenset[FineCategory] = DEFAULT_ROUTED_SET,
) -> ReconciledReport:
    """Route, adjudicate and reconcile one detector report."""
    verdicts: dict[str, Verdict] = {}
    fail_open: list[str] = []
    audit: list[AuditRecord] = []
    for finding in report.findings:
        decision = route(finding, routed_set)
        if decision.route is Route.PASS_THROUGH:
            continue
        try:
            verdicts[decision.finding_ref] = adjudicate(finding, subtasks_for(finding), adjudicator, audit)
        except AdjudicatorUnavailable:
            fail_open.append(decision.finding_ref)
    result = reconcile(report, verdicts, fail_open)
    return ReconciledReport(result.final, result.discarded, result.fail_open_refs, verdicts, tuple(audit))


def audit_log_lines(records: Iterable[AuditRecord]) -> str:
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in records)


# ---------------------------------------------------------------------------
# Blind false-negative recovery


def recover_negatives(ruleset_text: str, template: PromptTemplate, backend) -> tuple[str, ...] | ParseFailure:
    """Classify a ruleset with no detector evidence attached."""
    prompt = build_prompt(template, ruleset_text)
    try:
        response = backend.complete(prompt)
    except BackendError:
        return ParseFailure("blank", "")
    return parse_model_response(response, template.taxonomy, template.multi_response)
