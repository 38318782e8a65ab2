from __future__ import annotations

import json

import pytest
from conftest import parse_text
from mock_backend import StubBackend

from ritkit.client import AdjudicatorUnavailable, StubAdjudicator
from ritkit.detector import FineCategory, detect_file, finding_key
from ritkit.hybrid import (
    DEFAULT_ROUTED_SET,
    Decision,
    ModelAdjudicator,
    Route,
    SubtaskKind,
    adjudicate,
    audit_log_lines,
    reconcile,
    recover_negatives,
    route,
    run_pipeline,
    subtasks_for,
)
from ritkit.prompts import ParseFailure, PromptTemplate
from ritkit.report import render_text

MIXED_RULESET = """\
rule "cron on"
when
    Time cron "0 00 08 * * ?"
then
    if (mode == ON) {
        sendCommand(Heater, ON)
    }
end

rule "sunset off"
when
    Sun_Is_Setting_Event changed to ON
then
    sendCommand(Heater, OFF)
end

rule "cascade feeder"
when
    Time cron "0 00 09 * * ?"
then
    sendCommand(Feed_Light, ON)
end

rule "cascade consumer"
when
    Feed_Light changed to ON
then
    sendCommand(Feeder, ON)
end
"""


@pytest.fixture()
def mixed_report():
    return detect_file(parse_text(MIXED_RULESET))


class TestRouting:
    def test_wac_needs_adjudication(self, mixed_report):
        wac = next(f for f in mixed_report.findings if f.category is FineCategory.WAC)
        assert route(wac).route is Route.NEEDS_ADJUDICATION

    def test_strong_categories_pass_through(self, fire_alarm_pair, sprinkler_pair):
        scc = detect_file(fire_alarm_pair).findings[0]
        sac = detect_file(sprinkler_pair).findings[0]
        assert route(scc).route is Route.PASS_THROUGH
        assert route(sac).route is Route.PASS_THROUGH

    def test_stc_passes_through(self, mixed_report):
        stc = next(f for f in mixed_report.findings if f.category is FineCategory.STC)
        assert route(stc).route is Route.PASS_THROUGH

    def test_routed_set_is_configurable(self, sprinkler_pair):
        sac = detect_file(sprinkler_pair).findings[0]
        assert route(sac, frozenset({FineCategory.SAC})).route is Route.NEEDS_ADJUDICATION


class TestSubtasks:
    def test_ac_family_gets_overlap_and_conflict(self, mixed_report):
        wac = next(f for f in mixed_report.findings if f.category is FineCategory.WAC)
        kinds = [s.kind for s in subtasks_for(wac)]
        assert kinds == [SubtaskKind.TRIGGER_OVERLAP, SubtaskKind.ACTION_CONFLICT]

    def test_tc_family_gets_cascade_safety(self, mixed_report):
        stc = next(f for f in mixed_report.findings if f.category is FineCategory.STC)
        kinds = [s.kind for s in subtasks_for(stc)]
        assert kinds == [SubtaskKind.CASCADE_SAFETY]

    def test_payload_carries_evidence(self, mixed_report):
        wac = next(f for f in mixed_report.findings if f.category is FineCategory.WAC)
        overlap = subtasks_for(wac)[0]
        assert "Sun_Is_Setting_Event" in overlap.payload
        assert "cron" in overlap.payload


class TestAdjudicate:
    def test_accept_all_confirms(self, mixed_report):
        wac = next(f for f in mixed_report.findings if f.category is FineCategory.WAC)
        verdict = adjudicate(wac, subtasks_for(wac), StubAdjudicator("accept-all"))
        assert verdict.decision is Decision.CONFIRMED

    def test_overlap_rejection_discards(self, mixed_report):
        # Common-sense call: an 8am cron and a sunset event never coincide.
        wac = next(f for f in mixed_report.findings if f.category is FineCategory.WAC)
        table = {f"{finding_key(wac)}::trigger-overlap": False}
        stub = StubAdjudicator("table", table={**table, finding_key(wac): True})
        verdict = adjudicate(wac, subtasks_for(wac), stub)
        assert verdict.decision is Decision.DISCARDED
        assert "trigger-overlap" in verdict.rationale

    def test_intended_cascade_discards(self, mixed_report):
        wac_keys = {finding_key(f): True for f in mixed_report.findings}
        stc = next(f for f in mixed_report.findings if f.category is FineCategory.STC)
        stub = StubAdjudicator("table", table={**wac_keys, f"{finding_key(stc)}::cascade-safety": False})
        verdict = adjudicate(stc, subtasks_for(stc), stub)
        assert verdict.decision is Decision.DISCARDED

    def test_table_miss_is_an_error(self, mixed_report):
        wac = next(f for f in mixed_report.findings if f.category is FineCategory.WAC)
        with pytest.raises(KeyError):
            adjudicate(wac, subtasks_for(wac), StubAdjudicator("table", table={}))


class TestReconcile:
    def test_accept_all_reproduces_detector_report_exactly(self, mixed_report):
        result = run_pipeline(mixed_report, StubAdjudicator("accept-all"))
        assert result.final == mixed_report
        assert render_text(result.final) == render_text(mixed_report)
        assert result.discarded == ()

    def test_reject_all_removes_exactly_wac_and_wtc(self, mixed_report):
        result = run_pipeline(mixed_report, StubAdjudicator("reject-all"))
        kept = [f.category for f in result.final.findings]
        assert FineCategory.WAC not in kept and FineCategory.WTC not in kept
        expected = tuple(f for f in mixed_report.findings if f.category not in DEFAULT_ROUTED_SET)
        assert result.final.findings == expected

    def test_conservation(self, mixed_report):
        result = run_pipeline(mixed_report, StubAdjudicator("reject-all"))
        assert len(result.final.findings) + len(result.discarded) == len(mixed_report.findings)

    def test_pass_through_findings_are_identical_objects(self, mixed_report):
        result = run_pipeline(mixed_report, StubAdjudicator("reject-all"))
        for finding in result.final.findings:
            assert finding in mixed_report.findings

    def test_no_routed_findings_is_identity(self, fire_alarm_pair):
        report = detect_file(fire_alarm_pair)  # single SCC, never routed
        result = run_pipeline(report, StubAdjudicator("reject-all"))
        assert result.final == report and not result.verdicts

    def test_mixed_verdict_arithmetic(self, mixed_report):
        wacs = [f for f in mixed_report.findings if f.category is FineCategory.WAC]
        table = {finding_key(f): (i % 2 == 0) for i, f in enumerate(wacs)}
        result = run_pipeline(mixed_report, StubAdjudicator("table", table=table))
        discarded = sum(1 for v in result.verdicts.values() if v.decision is Decision.DISCARDED)
        assert len(result.final.findings) == len(mixed_report.findings) - discarded


class _FlakyAdjudicator:
    def answer_subtask(self, finding_key: str, subtask_kind: str, payload: str):
        raise AdjudicatorUnavailable("backend exhausted")


class TestFailOpen:
    def test_outage_keeps_finding_with_flag(self, mixed_report):
        result = run_pipeline(mixed_report, _FlakyAdjudicator())
        assert result.final == mixed_report  # fail-open preserves recall
        routed = [f for f in mixed_report.findings if f.category in DEFAULT_ROUTED_SET]
        assert len(result.fail_open_refs) == len(routed)

    def test_reconcile_requires_verdict_or_flag(self, mixed_report):
        wac = next(f for f in mixed_report.findings if f.category is FineCategory.WAC)
        result = reconcile(mixed_report, {}, fail_open_refs=[finding_key(wac)])
        assert wac in result.final.findings


class TestAudit:
    def test_audit_lines_are_json_per_subtask(self, mixed_report):
        result = run_pipeline(mixed_report, StubAdjudicator("accept-all"))
        lines = audit_log_lines(result.audit).splitlines()
        routed = [f for f in mixed_report.findings if f.category in DEFAULT_ROUTED_SET]
        expected = sum(len(subtasks_for(f)) for f in routed)
        assert len(lines) == expected
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"finding", "subtask", "raw_response", "uphold"}


class TestModelAdjudicator:
    def test_yes_no_extraction(self):
        answers = [
            ("I considered it.\nNO", False),
            ("No, they never coincide.", False),
            ("**NO**", False),
            ("NO, not a hazard", False),
            ("Yes, they can.", True),
        ]
        for response, upheld in answers:
            adj = ModelAdjudicator(StubBackend(responses=[response]))
            uphold, raw = adj.answer_subtask("k", "trigger-overlap", "payload")
            assert (uphold, raw) == (upheld, response)

    def test_unreadable_answer_upholds(self):
        adj = ModelAdjudicator(StubBackend(responses=["hard to say"]))
        uphold, _ = adj.answer_subtask("k", "trigger-overlap", "payload")
        assert uphold is True

    def test_backend_error_becomes_unavailable(self):
        adj = ModelAdjudicator(StubBackend())  # no scripted responses
        with pytest.raises(AdjudicatorUnavailable):
            adj.answer_subtask("k", "trigger-overlap", "payload")


class TestRecoverNegatives:
    def test_stub_echo_recovers_label(self):
        backend = StubBackend(constant="SCC")
        labels = recover_negatives(MIXED_RULESET, PromptTemplate(0, "six", True), backend)
        assert labels == ("SCC",)
        # The blind prompt contains no detector evidence markers.
        assert "THREAT PAIR" not in backend.calls[0]

    def test_blank_response_is_a_parse_failure(self):
        backend = StubBackend(constant="   ")
        result = recover_negatives(MIXED_RULESET, PromptTemplate(0, "six", True), backend)
        assert isinstance(result, ParseFailure) and result.kind == "blank"

    def test_single_mode_passes_through(self):
        backend = StubBackend(constant="WAC, SCC")
        result = recover_negatives(MIXED_RULESET, PromptTemplate(0, "six", False), backend)
        assert isinstance(result, ParseFailure) and result.kind == "ambiguous"
