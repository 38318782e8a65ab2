from __future__ import annotations

import json

import pytest
from conftest import parse_text
from mock_backend import MockBackendServer, StubBackend

from ritkit.client import BackendError, CallRecord, HttpBackend, StubAdjudicator
from ritkit.config import BackendConfig
from ritkit.detector import FindingReport, FineCategory, detect_file, finding_key
from ritkit.hybrid import (
    DEFAULT_ROUTED_SET,
    ModelAdjudicator,
    SubtaskKind,
    recover_negatives,
    run_pipeline,
    subtasks_for,
)
from ritkit.prompts import ExperimentConfig, ParseFailure
from ritkit.records import dump_records
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


def _first(report, category):
    return next(f for f in report.findings if f.category is category)


class TestRouting:
    def test_wac_needs_adjudication(self, mixed_report):
        wac = _first(mixed_report, FineCategory.WAC)
        result = run_pipeline(mixed_report, StubAdjudicator("reject-all"))
        assert wac in result.discarded
        assert finding_key(wac) in {r.finding for r in result.audit}

    def test_strong_categories_pass_through(self, fire_alarm_pair, sprinkler_pair):
        for pair in (fire_alarm_pair, sprinkler_pair):
            report = detect_file(pair)
            result = run_pipeline(report, StubAdjudicator("reject-all"))
            assert result.final == report and result.discarded == () and result.audit == ()

    def test_stc_passes_through(self, mixed_report):
        stc = _first(mixed_report, FineCategory.STC)
        result = run_pipeline(mixed_report, StubAdjudicator("reject-all"))
        assert stc in result.final.findings
        assert finding_key(stc) not in {r.finding for r in result.audit}

    def test_routed_set_is_configurable(self, sprinkler_pair):
        report = detect_file(sprinkler_pair)
        sac = report.findings[0]
        result = run_pipeline(report, StubAdjudicator("reject-all"), frozenset({FineCategory.SAC}))
        assert result.discarded == (sac,)


class TestSubtasks:
    def test_ac_family_gets_overlap_and_conflict(self, mixed_report):
        wac = _first(mixed_report, FineCategory.WAC)
        kinds = [s.kind for s in subtasks_for(wac)]
        assert kinds == [SubtaskKind.TRIGGER_OVERLAP, SubtaskKind.ACTION_CONFLICT]

    def test_tc_family_gets_cascade_safety(self, mixed_report):
        stc = _first(mixed_report, FineCategory.STC)
        kinds = [s.kind for s in subtasks_for(stc)]
        assert kinds == [SubtaskKind.CASCADE_SAFETY]

    def test_payload_carries_evidence(self, mixed_report):
        wac = _first(mixed_report, FineCategory.WAC)
        overlap = subtasks_for(wac)[0]
        assert "Sun_Is_Setting_Event" in overlap.payload
        assert "cron" in overlap.payload


class TestAdjudicate:
    def test_accept_all_confirms(self, mixed_report):
        wac = _first(mixed_report, FineCategory.WAC)
        result = run_pipeline(mixed_report, StubAdjudicator("accept-all"), frozenset({FineCategory.WAC}))
        assert wac in result.final.findings and result.discarded == ()

    def test_overlap_rejection_discards(self, mixed_report):
        # Common-sense call: an 8am cron and a sunset event never coincide.
        wac = _first(mixed_report, FineCategory.WAC)
        key = finding_key(wac)
        table = {key: True, f"{key}::trigger-overlap": False}
        result = run_pipeline(mixed_report, StubAdjudicator("table", table=table), frozenset({FineCategory.WAC}))
        assert result.discarded == (wac,)
        # The rejecting subtask is on record, and the NO did not cut the
        # remaining subtask short.
        answers = [(r.subtask, r.uphold) for r in result.audit if r.finding == key]
        assert answers == [("trigger-overlap", False), ("action-conflict", True)]

    def test_intended_cascade_discards(self, mixed_report):
        wac_keys = {finding_key(f): True for f in mixed_report.findings}
        stc = _first(mixed_report, FineCategory.STC)
        stub = StubAdjudicator("table", table={**wac_keys, f"{finding_key(stc)}::cascade-safety": False})
        result = run_pipeline(mixed_report, stub, DEFAULT_ROUTED_SET | {FineCategory.STC})
        assert result.discarded == (stc,)
        assert [r.subtask for r in result.audit if not r.uphold] == ["cascade-safety"]

    def test_table_miss_is_an_error(self, mixed_report):
        with pytest.raises(KeyError):
            run_pipeline(mixed_report, StubAdjudicator("table", table={}), frozenset({FineCategory.WAC}))


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
        assert result.final == report and not result.audit

    def test_mixed_verdict_arithmetic(self, mixed_report):
        wacs = [f for f in mixed_report.findings if f.category is FineCategory.WAC]
        table = {finding_key(f): (i % 2 == 0) for i, f in enumerate(wacs)}
        result = run_pipeline(mixed_report, StubAdjudicator("table", table=table), frozenset({FineCategory.WAC}))
        rejected = {r.finding for r in result.audit if not r.uphold}
        assert [finding_key(f) for f in result.discarded] == [k for k in table if k in rejected]
        assert len(result.final.findings) == len(mixed_report.findings) - len(rejected)

    def test_duplicate_findings_are_each_filed(self, mixed_report):
        wac = _first(mixed_report, FineCategory.WAC)
        doubled = FindingReport(mixed_report.file, mixed_report.findings + (wac,))
        result = run_pipeline(doubled, StubAdjudicator("reject-all"))
        assert result.discarded.count(wac) == 2
        assert len(result.final.findings) + len(result.discarded) == len(doubled.findings)


class _FlakyAdjudicator:
    def answer_subtask(self, finding_key: str, subtask_kind: str, payload: str):
        raise BackendError("unavailable", CallRecord())


class TestFailOpen:
    def test_outage_keeps_finding_with_flag(self, mixed_report):
        result = run_pipeline(mixed_report, _FlakyAdjudicator())
        assert result.final == mixed_report  # fail-open preserves recall
        routed = [f for f in mixed_report.findings if f.category in DEFAULT_ROUTED_SET]
        assert result.fail_open_refs == tuple(sorted(finding_key(f) for f in routed))

    def test_outage_after_a_no_keeps_the_finding(self, mixed_report):
        wac = _first(mixed_report, FineCategory.WAC)

        class NoThenOutage:
            def answer_subtask(self, finding_key: str, subtask_kind: str, payload: str):
                if subtask_kind == "trigger-overlap":
                    return False, "NO"
                raise BackendError("unavailable", CallRecord())

        result = run_pipeline(mixed_report, NoThenOutage(), frozenset({FineCategory.WAC}))
        assert wac in result.final.findings and result.discarded == ()
        assert finding_key(wac) in result.fail_open_refs
        # The answer given before the outage stays on record.
        records = {(r.finding, r.subtask, r.uphold) for r in result.audit}
        assert (finding_key(wac), "trigger-overlap", False) in records


class TestBackendOutage:
    @staticmethod
    def run(script, report):
        with MockBackendServer(script) as server:
            cfg = BackendConfig(server.endpoint, "test-model", timeout=5.0, max_retries=2, backoff_base=0)
            backend = HttpBackend(cfg)
            result = run_pipeline(report, ModelAdjudicator(backend), frozenset({FineCategory.WAC, FineCategory.STC}), jobs=1)
            backend.close()
        return result, len(server.requests), cfg.max_retries + 1

    @pytest.fixture()
    def doubled_report(self, mixed_report):
        # Four routed findings: WAC, STC, WAC, STC.
        return FindingReport(mixed_report.file, mixed_report.findings * 2)

    def test_a_backend_that_gave_up_is_not_asked_again(self, doubled_report):
        result, requests, attempts = self.run([(503, None)] * 12, doubled_report)
        assert requests == attempts
        assert result.final == doubled_report and result.audit == ()
        assert result.fail_open_refs == tuple(sorted({finding_key(f) for f in doubled_report.findings}))

    def test_answers_before_the_outage_stay_in_the_audit_log(self, doubled_report):
        first = doubled_report.findings[0]
        result, requests, attempts = self.run([(200, "YES"), (200, "NO")] + [(503, None)] * 9, doubled_report)
        assert requests == 2 + attempts
        assert [(r.finding, r.subtask, r.uphold) for r in result.audit] == [
            (finding_key(first), "trigger-overlap", True),
            (finding_key(first), "action-conflict", False),
        ]
        assert result.discarded == (first,)
        assert result.final.findings == doubled_report.findings[1:]
        assert result.fail_open_refs == tuple(sorted({finding_key(f) for f in doubled_report.findings[1:]}))


class TestAudit:
    def test_audit_lines_are_json_per_subtask(self, mixed_report):
        result = run_pipeline(mixed_report, StubAdjudicator("accept-all"))
        lines = dump_records(result.audit).splitlines()
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

    def test_backend_error_propagates(self):
        adj = ModelAdjudicator(StubBackend())  # no scripted responses
        with pytest.raises(BackendError) as exc_info:
            adj.answer_subtask("k", "trigger-overlap", "payload")
        assert exc_info.value.error_class == "unavailable"


class TestRecoverNegatives:
    def test_stub_echo_recovers_label(self):
        backend = StubBackend(constant="SCC")
        labels = recover_negatives(MIXED_RULESET, ExperimentConfig(), backend)
        assert labels == ("SCC",)
        # The blind prompt contains no detector evidence markers.
        assert "THREAT PAIR" not in backend.calls[0]

    def test_blank_response_is_a_parse_failure(self):
        backend = StubBackend(constant="   ")
        result = recover_negatives(MIXED_RULESET, ExperimentConfig(), backend)
        assert isinstance(result, ParseFailure) and result.kind == "blank"

    def test_backend_error_is_named_by_its_class(self):
        backend = StubBackend()  # no scripted responses: the call fails as unavailable
        with pytest.raises(BackendError) as exc_info:
            recover_negatives(MIXED_RULESET, ExperimentConfig(), backend)
        assert exc_info.value.error_class == "unavailable"

    def test_single_mode_passes_through(self):
        backend = StubBackend(constant="WAC, SCC")
        result = recover_negatives(MIXED_RULESET, ExperimentConfig(multi_response=False), backend)
        assert isinstance(result, ParseFailure) and result.kind == "ambiguous"
