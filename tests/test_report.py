from __future__ import annotations

import random

import oracle

from ritkit.detector import (
    AC_DESCRIPTION,
    EvidenceRef,
    FineCategory,
    Finding,
    FindingReport,
    RuleRef,
    detect_file,
)
from ritkit.report import (
    parse_structured,
    render_structured,
    render_structured_lines,
    render_text,
)


def watering_wac_report() -> FindingReport:
    finding = Finding(
        category=FineCategory.WAC,
        rule_a=RuleRef("r1", "1 Watering_garden_startup"),
        rule_b=RuleRef("r7", "7 Watering_starting/stoping"),
        threat_pair=("r1a1", "r7a7"),
        triggers_a=(EvidenceRef("r1t1", "System started"),),
        triggers_b=(EvidenceRef("r7t1", "Item notification_proxy_wtr received update"),),
        conditions_a=(),
        conditions_b=(
            EvidenceRef("r7c8", 'if (msg == "START")'),
            EvidenceRef("r7c9", "if (wtrfronttime > 0)"),
        ),
        description=AC_DESCRIPTION,
        action_a=EvidenceRef("r1a1", "wtrvalvefront.sendCommand(off_r)"),
        action_b=EvidenceRef("r7a7", "wtrvalvefront.sendCommand(on_r)"),
    )
    return FindingReport(file="detect-output/oh-rules/WateringSystem.rules", findings=(finding,))


class TestTextLayout:
    def test_wac_block_matches_golden_bytes(self, golden_dir):
        golden = (golden_dir / "wac_report.txt").read_text(encoding="utf-8")
        assert render_text(watering_wac_report()) == golden

    def test_golden_contains_required_phrases(self, golden_dir):
        golden = (golden_dir / "wac_report.txt").read_text(encoding="utf-8")
        assert "no conditions guarding action" in golden
        assert "CONTRADICTORY ACTION EXECUTION COULD OCCUR IN ANY ORDER" in golden
        assert "THREAT PAIR: (r1a1, r7a7)" in golden
        assert "1. WAC THREAT DETECTED" in golden

    def test_empty_report_headers(self):
        text = render_text(FindingReport(file="empty.rules", findings=()))
        lines = text.splitlines()
        assert lines[0] == "FILE: empty.rules"
        assert lines[1] == "-" * 48
        assert lines[2] == "THREATS DETECTED: 0"
        assert lines[3:9] == ["SAC: 0", "WAC: 0", "STC: 0", "WTC: 0", "SCC: 0", "WCC: 0"]
        assert lines[9] == "-" * 48

    def test_count_lines_match_findings(self, fire_alarm_pair):
        report = detect_file(fire_alarm_pair)
        text = render_text(report)
        assert "THREATS DETECTED: 1" in text
        assert "SCC: 1" in text

    def test_rendering_is_deterministic(self, morning_pair):
        report = detect_file(morning_pair)
        assert render_text(report) == render_text(report)

    def test_tc_block_shows_cascade_evidence(self, morning_pair):
        text = render_text(detect_file(morning_pair))
        assert "CASCADING ACTION:" in text
        assert "TRIGGER_B:" in text

    def test_cc_block_shows_enabled_conditions(self, fire_alarm_pair):
        text = render_text(detect_file(fire_alarm_pair))
        assert "ENABLED CONDITIONS:" in text


class TestStructuredRoundTrip:
    def test_identity_on_fixture_reports(self, sprinkler_pair, morning_pair, fire_alarm_pair):
        for rs in (sprinkler_pair, morning_pair, fire_alarm_pair):
            report = detect_file(rs)
            assert parse_structured(render_structured(report)) == report

    def test_identity_on_fuzzed_reports(self):
        rng = random.Random(31)
        for _ in range(150):
            report = detect_file(oracle.random_ruleset(rng))
            recovered = parse_structured(render_structured(report))
            assert recovered == report
            # Evidence ids survive verbatim.
            assert [f.threat_pair for f in recovered.findings] == [f.threat_pair for f in report.findings]

    def test_counts_serialized_as_integer_map(self):
        import json

        doc = json.loads(render_structured(watering_wac_report()))
        assert doc["counts"] == {"SAC": 0, "WAC": 1, "STC": 0, "WTC": 0, "SCC": 0, "WCC": 0}
        assert doc["schema_version"] == 1

    def test_line_delimited_variant(self, sprinkler_pair, morning_pair):
        reports = [detect_file(sprinkler_pair), detect_file(morning_pair)]
        text = render_structured_lines(reports)
        assert len(text.splitlines()) == 2
        assert [parse_structured(line) for line in text.splitlines()] == reports

    def test_unknown_schema_version_rejected(self):
        import json

        import pytest

        doc = json.loads(render_structured(watering_wac_report()))
        doc["schema_version"] = 999
        with pytest.raises(ValueError):
            parse_structured(json.dumps(doc))
