"""Report rendering: the fixed text layout and a lossless JSON form."""

from __future__ import annotations

import json
from typing import Any

from .detector import (
    CoarseCategory,
    EvidenceRef,
    FineCategory,
    Finding,
    FindingReport,
    RuleRef,
)

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


def _ref_to_json(ref: EvidenceRef | None) -> dict[str, str] | None:
    return None if ref is None else {"id": ref.id, "text": ref.text}


def _refs_to_json(refs: tuple[EvidenceRef, ...]) -> list[dict[str, str]]:
    return [_ref_to_json(r) for r in refs]


def finding_to_json(f: Finding) -> dict[str, Any]:
    return {
        "category": f.category.value,
        "coarse": f.coarse.value,
        "rule_a": {"id": f.rule_a.id, "name": f.rule_a.name},
        "rule_b": {"id": f.rule_b.id, "name": f.rule_b.name},
        "threat_pair": list(f.threat_pair),
        "triggers_a": _refs_to_json(f.triggers_a),
        "triggers_b": _refs_to_json(f.triggers_b),
        "conditions_a": _refs_to_json(f.conditions_a),
        "conditions_b": _refs_to_json(f.conditions_b),
        "action_a": _ref_to_json(f.action_a),
        "action_b": _ref_to_json(f.action_b),
        "trigger_b": _ref_to_json(f.trigger_b),
        "enabled_conditions_b": _refs_to_json(f.enabled_conditions_b),
        "description": f.description,
    }


def _ref_from_json(obj: dict[str, str] | None) -> EvidenceRef | None:
    return None if obj is None else EvidenceRef(obj["id"], obj["text"])


def _refs_from_json(objs: list[dict[str, str]]) -> tuple[EvidenceRef, ...]:
    return tuple(_ref_from_json(o) for o in objs)


def finding_from_json(obj: dict[str, Any]) -> Finding:
    return Finding(
        category=FineCategory(obj["category"]),
        rule_a=RuleRef(obj["rule_a"]["id"], obj["rule_a"]["name"]),
        rule_b=RuleRef(obj["rule_b"]["id"], obj["rule_b"]["name"]),
        threat_pair=tuple(obj["threat_pair"]),
        triggers_a=_refs_from_json(obj["triggers_a"]),
        triggers_b=_refs_from_json(obj["triggers_b"]),
        conditions_a=_refs_from_json(obj["conditions_a"]),
        conditions_b=_refs_from_json(obj["conditions_b"]),
        description=obj["description"],
        action_a=_ref_from_json(obj["action_a"]),
        action_b=_ref_from_json(obj["action_b"]),
        trigger_b=_ref_from_json(obj["trigger_b"]),
        enabled_conditions_b=_refs_from_json(obj["enabled_conditions_b"]),
    )


def report_to_json(report: FindingReport) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "file": report.file,
        "counts": report.counts,
        "findings": [finding_to_json(f) for f in report.findings],
    }


def report_from_json(obj: dict[str, Any]) -> FindingReport:
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version: {obj.get('schema_version')!r}")
    return FindingReport(
        file=obj["file"],
        findings=tuple(finding_from_json(f) for f in obj["findings"]),
    )


def render_structured(report: FindingReport) -> str:
    """Single-document JSON rendering (lossless, sorted keys)."""
    return json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"


def parse_structured(text: str) -> FindingReport:
    return report_from_json(json.loads(text))


def render_structured_lines(reports: list[FindingReport]) -> str:
    """Line-delimited variant: one report document per line."""
    return "".join(json.dumps(report_to_json(r), sort_keys=True) + "\n" for r in reports)
