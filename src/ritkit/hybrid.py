"""Reconciliation workflow: adjudicate routed findings in one pass over a report.

`run_pipeline` walks the detector's findings in order. A finding whose
category is outside the routed set (default WAC and WTC) is kept as it is.
A routed one is decomposed into subtasks that a pluggable adjudicator
answers, several at once if asked to; every answer goes to the audit log in
report order, so a NO does not cut the remaining subtasks short. The finding
is kept when every subtask upholds it and discarded otherwise. An
adjudicator that raises `BackendError` fails open: the finding is kept and
its key flagged, and so is every routed finding after it, without asking the
adjudicator again. Blind recovery lets that error propagate.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Protocol

from .detector import CoarseCategory, FineCategory, Finding, FindingReport, finding_key
from .ordered import ordered_map
from .prompts import BackendError, ExperimentConfig, ParseFailure, build_prompt, parse_model_response, scan_labels

DEFAULT_ROUTED_SET = frozenset({FineCategory.WAC, FineCategory.WTC})


class SubtaskKind(Enum):
    TRIGGER_OVERLAP = "trigger-overlap"
    CASCADE_SAFETY = "cascade-safety"
    ACTION_CONFLICT = "action-conflict"


class AdjudicationSubtask(NamedTuple):
    kind: SubtaskKind
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
    return tuple(AdjudicationSubtask(kind, _payload(kind, finding)) for kind in _FAMILY_SUBTASKS[finding.coarse])


class AuditRecord(NamedTuple):
    finding: str  # the finding's key
    subtask: str
    raw_response: str
    uphold: bool


class SubtaskAdjudicator(Protocol):
    """Answers a subtask: (uphold, raw answer). Like a predictor, it signals an outage by raising `BackendError`."""

    def answer_subtask(self, finding_key: str, subtask_kind: str, payload: str) -> tuple[bool, str]: ...


class ModelAdjudicator:
    """Answers subtasks through a text backend; YES upholds the threat."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def answer_subtask(self, finding_key: str, subtask_kind: str, payload: str) -> tuple[bool, str]:
        response = self.backend.complete(payload)
        # Only a clear NO discards; an unreadable or ambiguous answer keeps the
        # finding (the symbolic phase's recall wins).
        return scan_labels(response, ("YES", "NO"), multi_allowed=False) != ("NO",), response


class ReconciledReport(NamedTuple):
    final: FindingReport
    discarded: tuple[Finding, ...]
    fail_open_refs: tuple[str, ...]  # sorted, each key once
    audit: tuple[AuditRecord, ...]


def run_pipeline(
    report: FindingReport,
    adjudicator: SubtaskAdjudicator,
    routed_set: frozenset[FineCategory] = DEFAULT_ROUTED_SET,
    jobs: int = 1,
) -> ReconciledReport:
    """Keep, discard or fail open each finding of one detector report, in order.

    Up to `jobs` subtasks are asked at once (see `ordered.ordered_map`), and
    their answers are read in report order.
    """
    asks = [
        (i, finding_key(finding), subtask)
        for i, finding in enumerate(report.findings)
        if finding.category in routed_set
        for subtask in subtasks_for(finding)
    ]
    audit: list[AuditRecord] = []
    upheld: dict[int, bool] = {}  # finding index -> every answer so far upholds it
    gave_up_at = len(report.findings)  # routed findings from this index on fail open
    try:
        answers = ordered_map(
            lambda ask: adjudicator.answer_subtask(ask[1], ask[2].kind.value, ask[2].payload), asks, jobs
        )
        for (ok, raw), (i, key, subtask) in zip(answers, asks):
            audit.append(AuditRecord(key, subtask.kind.value, raw, ok))
            upheld[i] = upheld.get(i, True) and ok
    except BackendError:
        gave_up_at = asks[len(audit)][0]

    kept: list[Finding] = []
    discarded: list[Finding] = []
    fail_open: set[str] = set()
    for i, finding in enumerate(report.findings):
        if finding.category in routed_set:
            if i >= gave_up_at:
                fail_open.add(finding_key(finding))
            elif not upheld[i]:
                discarded.append(finding)
                continue
        kept.append(finding)
    final = FindingReport(file=report.file, findings=tuple(kept))
    return ReconciledReport(final, tuple(discarded), tuple(sorted(fail_open)), tuple(audit))


# ---------------------------------------------------------------------------
# Blind false-negative recovery


def recover_negatives(ruleset_text: str, config: ExperimentConfig, backend) -> tuple[str, ...] | ParseFailure:
    """Classify a ruleset with no detector evidence attached; a backend that gives up raises `BackendError`."""
    response = backend.complete(build_prompt(config, ruleset_text))
    return parse_model_response(response, config.taxonomy, config.multi_response)
