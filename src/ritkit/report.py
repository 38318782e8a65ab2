"""Report rendering: the fixed text layout and a lossless JSON form."""

from __future__ import annotations

import json
from typing import Any, Literal, NamedTuple

from .detector import CoarseCategory, EvidenceRef, Finding, FindingReport

SCHEMA_VERSION = 1

_SEPARATOR = "-" * 48
_NO_CONDITIONS = "[c0]:   no conditions guarding action"
_NO_TRIGGERS = "[t0]:   no overlapping triggers"


def _evidence_lines(label: str, refs: tuple[EvidenceRef, ...], empty: str, joiner: str) -> list[str]:
    """`        LABEL:   [id]: text` with AND/OR continuation lines."""
    pad = " " * (15 - len(label))
    if not refs:
        return [f"        {label}:{pad}{empty}"]
    lines = [f"        {label}:{pad}[{refs[0].id}]: {refs[0].text}"]
    indent = " " * (24 - len(joiner) - 1)
    for ref in refs[1:]:
        lines.append(f"{indent}{joiner} [{ref.id}]: {ref.text}")
    return lines


def _render_finding(index: int, f: Finding) -> list[str]:
    lines = [
        f"{index}. {f.category.value} THREAT DETECTED",
        f"    THREAT PAIR: ({f.threat_pair[0]}, {f.threat_pair[1]})",
        "",
        "    RULES:",
        f'        RULE_A [{f.rule_a.id}]: ("{f.rule_a.name}")',
        f'        RULE_B [{f.rule_b.id}]: ("{f.rule_b.name}")',
        "",
        "    OVERLAPPING TRIGGERS:",
    ]
    lines += _evidence_lines("TRIGGERS_A", f.triggers_a, _NO_TRIGGERS, "OR")
    lines.append("")
    lines += _evidence_lines("TRIGGERS_B", f.triggers_b, _NO_TRIGGERS, "OR")
    lines.append("")
    lines.append("    OVERLAPPING CONDITIONS:")
    lines += _evidence_lines("CONDITIONS_A", f.conditions_a, _NO_CONDITIONS, "AND")
    lines += _evidence_lines("CONDITIONS_B", f.conditions_b, _NO_CONDITIONS, "AND")
    lines.append("")

    if f.coarse is CoarseCategory.AC:
        lines.append("    CONTRADICTORY ACTIONS:")
        lines += _evidence_lines("ACTION_A", (f.action_a,), "", "AND")
        lines += _evidence_lines("ACTION_B", (f.action_b,), "", "AND")
    elif f.coarse is CoarseCategory.TC:
        lines.append("    CASCADING ACTION:")
        lines += _evidence_lines("ACTION_A", (f.action_a,), "", "AND")
        lines += _evidence_lines("TRIGGER_B", (f.trigger_b,), "", "AND")
    else:
        lines.append("    ENABLED CONDITIONS:")
        lines += _evidence_lines("ACTION_A", (f.action_a,), "", "AND")
        lines += _evidence_lines("CONDITIONS_B", f.enabled_conditions_b, _NO_CONDITIONS, "AND")

    lines.append("")
    lines.append("    THREAT DESCRIPTION:")
    lines += [f"    {line}" for line in f.description.split("\n")]
    return lines


def render_text(report: FindingReport) -> str:
    """Deterministic text report in the fixed block layout."""
    lines = [
        f"FILE: {report.file}",
        _SEPARATOR,
        f"THREATS DETECTED: {report.total}",
        *(f"{category}: {n}" for category, n in report.counts.items()),
        _SEPARATOR,
    ]
    for i, finding in enumerate(report.findings, start=1):
        lines.append("")
        lines.extend(_render_finding(i, finding))
        lines.append("")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structured (JSON) form


# Finding keys that hold a list of evidence refs, and keys that hold one ref or null.
_REF_LISTS = ("triggers_a", "triggers_b", "conditions_a", "conditions_b", "enabled_conditions_b")
_NULLABLE_REFS = ("action_a", "action_b", "trigger_b")
# The refs that each family's text block shows: a finding of the family must have them.
_SHOWN_REFS = {"AC": ("action_a", "action_b"), "TC": ("action_a", "trigger_b"), "CC": ("action_a",)}


def finding_to_json(f: Finding) -> dict[str, Any]:
    return {
        "category": f.category.value,
        "coarse": f.coarse.value,
        "rule_a": f.rule_a._asdict(),
        "rule_b": f.rule_b._asdict(),
        "threat_pair": list(f.threat_pair),
        "description": f.description,
        **{key: [ref._asdict() for ref in getattr(f, key)] for key in _REF_LISTS},
        **{key: getattr(f, key) and getattr(f, key)._asdict() for key in _NULLABLE_REFS},
    }


def report_to_json(report: FindingReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "file": report.file,
        "counts": report.counts,
        "findings": [finding_to_json(f) for f in report.findings],
    }


def render_structured(report: FindingReport) -> str:
    """Single-document JSON rendering (lossless, sorted keys)."""
    return json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"


class _Document(NamedTuple):  # the structured form as read
    schema_version: Literal[1]  # SCHEMA_VERSION, read first; true and 1.0 equal 1 but are not version 1
    file: str
    findings: tuple[Finding, ...]


def parse_structured(text: str) -> FindingReport:
    """A report from its JSON form; a bad one is a ValueError that names the key path."""
    from .records import loads  # here, so that `detect` never loads it

    doc = loads(text, _Document)
    for i, finding in enumerate(doc.findings):
        absent = [key for key in _SHOWN_REFS[finding.coarse.value] if getattr(finding, key) is None]
        if absent:
            raise ValueError(f"findings[{i}].{absent[0]} must not be null in a {finding.category.value} finding")
    return FindingReport(doc.file, doc.findings)


def render_structured_lines(reports: list[FindingReport]) -> str:
    """Line-delimited variant: one report document per line."""
    return "".join(json.dumps(report_to_json(r), sort_keys=True) + "\n" for r in reports)
