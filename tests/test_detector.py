from __future__ import annotations

import random
from collections import Counter

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import DATA_DIR, load_bench_generator, parse_text

import ritkit.detector
from ritkit.detector import (
    CoarseCategory,
    FineCategory,
    aggregate,
    detect_file,
    detect_pair,
    finding_key,
)
from ritkit.ir import (
    Action,
    ActionKind,
    Condition,
    ConditionKind,
    CronSpec,
    Diagnostic,
    GuardedAction,
    Rule,
    RuleSet,
    Trigger,
    TriggerKind,
    make_value,
)
from ritkit.report import render_structured, render_text


GENERATOR = load_bench_generator()


def family(findings, coarse, rule_a=None):
    """The findings of one family, optionally only those with this rule_a."""
    return [f for f in findings if f.coarse is coarse and (rule_a is None or f.rule_a.id == rule_a.id)]


class TestTaxonomyFixedPoints:
    def test_sprinkler_vs_windows_is_sac(self, sprinkler_pair):
        report = detect_file(sprinkler_pair)
        assert [f.category for f in report.findings] == [FineCategory.SAC]
        assert report.findings[0].threat_pair == ("r1a1", "r2a1")

    def test_morning_cascade_is_wtc(self, morning_pair):
        report = detect_file(morning_pair)
        assert [f.category for f in report.findings] == [FineCategory.WTC]
        finding = report.findings[0]
        assert finding.rule_a.id == "r1" and finding.rule_b.id == "r2"

    def test_fire_alarm_vs_bedtime_is_scc(self, fire_alarm_pair):
        report = detect_file(fire_alarm_pair)
        assert [f.category for f in report.findings] == [FineCategory.SCC]
        finding = report.findings[0]
        assert finding.enabled_conditions_b[0].text == "if (window_Lock == OFF)"

    def test_coarse_aggregation_of_fixed_points(self, sprinkler_pair, morning_pair, fire_alarm_pair):
        assert detect_file(sprinkler_pair).findings[0].coarse is CoarseCategory.AC
        assert detect_file(morning_pair).findings[0].coarse is CoarseCategory.TC
        assert detect_file(fire_alarm_pair).findings[0].coarse is CoarseCategory.CC

    def test_single_rule_file_has_no_findings(self):
        rs = parse_text('rule "solo"\nwhen\n    System started\nthen\n    sendCommand(X, ON)\nend\n')
        assert detect_file(rs).total == 0


class TestActionContradiction:
    def test_guarded_side_yields_wac(self):
        rs = parse_text(
            'rule "startup"\nwhen\n    System started\nthen\n    wtrvalvefront.sendCommand(off_r)\nend\n'
            'rule "starter"\nwhen\n    Item notification_proxy_wtr received update\nthen\n'
            '    if (msg == "START") {\n        if (wtrfronttime > 0) {\n'
            "            wtrvalvefront.sendCommand(on_r)\n        }\n    }\nend\n"
        )
        findings = detect_pair(rs.rules[0], rs.rules[1])
        assert [f.category for f in findings] == [FineCategory.WAC]
        assert findings[0].conditions_a == ()
        assert [ref.text for ref in findings[0].conditions_b] == [
            'if (msg == "START")',
            "if (wtrfronttime > 0)",
        ]

    def test_unsatisfiable_guards_suppress_finding(self):
        rs = parse_text(
            'rule "one"\nwhen\n    System started\nthen\n    if (mode == ON) {\n        sendCommand(X, ON)\n    }\nend\n'
            'rule "two"\nwhen\n    System started\nthen\n    if (mode == OFF) {\n        sendCommand(X, OFF)\n    }\nend\n'
        )
        assert detect_file(rs).total == 0

    def test_disjoint_triggers_suppress_contradiction(self):
        rs = parse_text(
            'rule "morning"\nwhen\n    Time cron "0 30 08 * * ?"\nthen\n    sendCommand(X, ON)\nend\n'
            'rule "night"\nwhen\n    Time cron "0 30 22 * * ?"\nthen\n    sendCommand(X, OFF)\nend\n'
        )
        assert detect_file(rs).total == 0

    def test_canonical_rule_order(self, sprinkler_pair):
        a, b = sprinkler_pair.rules
        forward = family(detect_pair(a, b), CoarseCategory.AC)
        backward = family(detect_pair(b, a), CoarseCategory.AC)
        assert forward == backward
        assert forward[0].rule_a.id == "r1"


class TestTriggerCascade:
    def test_condition_free_variant_is_stc(self):
        rs = parse_text(
            'rule "lights"\nwhen\n    Time cron "0 30 08 * * ?"\nthen\n    sendCommand(Foyer_Light, ON)\nend\n'
            'rule "door"\nwhen\n    Foyer_Light changed to ON\nthen\n    sendCommand(Door_Lock, OFF)\nend\n'
        )
        report = detect_file(rs)
        assert [f.category for f in report.findings] == [FineCategory.STC]

    def test_postupdate_to_command_respects_strictness(self):
        rs = parse_text(
            'rule "poster"\nwhen\n    System started\nthen\n    postUpdate(Relay, ON)\nend\n'
            'rule "listener"\nwhen\n    Item Relay received command\nthen\n    sendCommand(Siren, ON)\nend\n'
        )
        assert detect_file(rs).total == 0
        lenient = detect_file(rs, strict=False)
        assert [f.category for f in lenient.findings] == [FineCategory.STC]

    def test_cascade_is_directional(self, morning_pair):
        a, b = morning_pair.rules
        findings = detect_pair(a, b)
        assert family(findings, CoarseCategory.TC, a)
        assert not family(findings, CoarseCategory.TC, b)

    def test_unsatisfiable_guards_yield_no_cascade_at_all(self):
        # A cascade edge whose guard conjunction cannot hold is dropped
        # entirely rather than downgraded to STC.
        rs = parse_text(
            'rule "src"\nwhen\n    System started\nthen\n'
            "    if (gate == ON) {\n        sendCommand(Foyer_Light, ON)\n    }\nend\n"
            'rule "dst"\nwhen\n    Foyer_Light changed to ON\nthen\n'
            "    if (gate == OFF) {\n        sendCommand(Door_Lock, OFF)\n    }\nend\n"
        )
        a, b = rs.rules
        assert family(detect_pair(a, b), CoarseCategory.TC, a) == []


class TestConditionCascade:
    def test_partial_enablement_is_wcc(self):
        rs = parse_text(
            'rule "arm"\nwhen\n    System started\nthen\n    if (phase == ON) {\n        sendCommand(x, ON)\n    }\nend\n'
            'rule "act"\nwhen\n    System started\nthen\n'
            "    if (x == ON && time >= 8:00 && time <= 9:00)\n        sendCommand(other, ON)\nend\n"
        )
        cats = [f.category for f in detect_file(rs).findings]
        assert FineCategory.WCC in cats

    def test_no_conditions_on_target_means_no_cascade(self):
        rs = parse_text(
            'rule "arm"\nwhen\n    System started\nthen\n    if (phase == ON) {\n        sendCommand(x, ON)\n    }\nend\n'
            'rule "plain"\nwhen\n    System started\nthen\n    sendCommand(y, ON)\nend\n'
        )
        a, b = rs.rules
        assert family(detect_pair(a, b), CoarseCategory.CC, a) == []

    def test_shared_guard_yields_single_finding(self, fire_alarm_pair):
        # Two actions behind one if produce one finding keyed on the guard set.
        a, b = fire_alarm_pair.rules
        findings = family(detect_pair(a, b), CoarseCategory.CC, a)
        assert len(findings) == 1
        assert findings[0].category is FineCategory.SCC


class TestSinglePass:
    def test_crosswise_overlap_evidence_matches_golden(self, golden_dir):
        # Each direction lists its own rule's overlapping triggers first, in
        # trigger order, and the other rule's in order of first overlap.
        text = (DATA_DIR / "evidence_order.rules").read_text(encoding="utf-8")
        report = detect_file(parse_text(text, "evidence_order.rules"))
        assert [f.category for f in report.findings] == [FineCategory.WAC, FineCategory.SCC]
        assert render_text(report) == (golden_dir / "evidence_order.txt").read_text(encoding="utf-8")
        assert render_structured(report) == (golden_dir / "evidence_order.json").read_text(encoding="utf-8")

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(ritkit.detector, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ritkit.detector, name, counted)
        return calls

    def test_overlap_scanned_once_and_evidence_built_only_for_findings(self, monkeypatch):
        overlaps = self._count_calls(monkeypatch, "triggers_overlap")
        renders = self._count_calls(monkeypatch, "trigger_text")
        rules = "".join(
            f'rule "r{k}"\nwhen\n' + " or\n".join(f"    Item In_{k}_{t} changed" for t in range(k % 3 + 1))
            + f"\nthen\n    if (Guard_{k} == ON) {{\n        sendCommand(Out_{k}, ON)\n    }}\nend\n"
            for k in range(6)
        )
        rs = parse_text(rules)
        assert [f for i, a in enumerate(rs.rules) for b in rs.rules[i + 1 :] for f in detect_pair(a, b)] == []
        sizes = [len(r.triggers) for r in rs.rules]
        assert len(overlaps) == sum(sizes[i] * sizes[j] for i in range(6) for j in range(i + 1, 6)) == 58
        assert renders == []
        # No two rules share an item, so detect_file visits no pair at all.
        visited = self._count_calls(monkeypatch, "detect_pair")
        assert detect_file(rs).total == 0
        assert visited == []

    def test_each_direction_renders_its_trigger_evidence_once(self, monkeypatch):
        overlaps = self._count_calls(monkeypatch, "triggers_overlap")
        renders = self._count_calls(monkeypatch, "trigger_text")
        text = (DATA_DIR / "evidence_order.rules").read_text(encoding="utf-8")
        assert detect_file(parse_text(text)).total == 2
        assert len(overlaps) == 4
        assert len(renders) == 8  # two triggers per rule, once per direction


class TestItemIndex:
    def test_visits_exactly_the_pairs_sharing_a_written_item(self, monkeypatch):
        text = "".join(
            f'rule "{name}"\nwhen\n    Item {trigger} changed\nthen\n    {body}\nend\n'
            for name, trigger, body in (
                ("writes X", "A", "sendCommand(X, ON)"),
                ("fired by X", "X", "sendCommand(B, ON)"),
                ("guarded by X", "A", "if (X == ON) {\n        sendCommand(C, ON)\n    }"),
                ("also writes X", "A", "sendCommand(X, OFF)"),
                ("reads only A", "A", "sendCommand(D, ON)"),
            )
        )
        rs = parse_text(text)
        visited = TestSinglePass._count_calls(monkeypatch, "detect_pair")
        detect_file(rs)
        # Write-write (1, 4), write-trigger (1, 2) and (2, 4), write-condition
        # (1, 3) and (3, 4); a shared read of A alone pairs nothing.
        assert [(a.index, b.index) for a, b, _ in visited] == [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
    @pytest.mark.parametrize("n_rules, n_items, seeds", [(60, 600, range(1, 6)), (200, 2000, range(1, 3))])
    def test_pruned_detection_matches_the_oracle(self, monkeypatch, n_rules, n_items, seeds, strict):
        # Generated files over a wide vocabulary, where most pairs share no
        # item and the oracle, which enumerates every pair, checks the skips.
        visited = TestSinglePass._count_calls(monkeypatch, "detect_pair")
        for seed in seeds:
            rs = parse_text(GENERATOR.generate_rules(seed, n_rules, n_items))
            assert len(rs.rules) == n_rules and not rs.diagnostics
            visited.clear()
            want = Counter(oracle.oracle_detect_file(rs, strict))
            got = Counter(oracle.detector_identities(detect_file(rs, strict)))
            assert got == want and want
            assert len(visited) < n_rules * (n_rules - 1) // 20


class TestAggregate:
    def test_mapping(self):
        assert aggregate(FineCategory.WAC) is CoarseCategory.AC
        assert aggregate(FineCategory.SAC) is CoarseCategory.AC
        assert aggregate(FineCategory.WTC) is CoarseCategory.TC
        assert aggregate(FineCategory.STC) is CoarseCategory.TC
        assert aggregate(FineCategory.WCC) is CoarseCategory.CC
        assert aggregate(FineCategory.SCC) is CoarseCategory.CC


class TestInvariants:
    def test_counts_match_finding_multiset(self):
        rng = random.Random(11)
        for _ in range(100):
            report = detect_file(oracle.random_ruleset(rng))
            assert report.counts == dict(
                {c.value: 0 for c in FineCategory}, **Counter(f.category.value for f in report.findings)
            )
            coarse = Counter(f.coarse.value for f in report.findings)
            assert coarse["AC"] == report.counts["WAC"] + report.counts["SAC"]
            assert coarse["TC"] == report.counts["WTC"] + report.counts["STC"]
            assert coarse["CC"] == report.counts["WCC"] + report.counts["SCC"]

    def test_family_exclusivity_per_evidence(self):
        rng = random.Random(13)
        for _ in range(200):
            report = detect_file(oracle.random_ruleset(rng))
            seen = Counter()
            for f in report.findings:
                key = (f.coarse.value, f.rule_a.id, f.rule_b.id, f.threat_pair)
                seen[key] += 1
            assert all(count == 1 for count in seen.values())

    def test_strong_findings_have_empty_guard_evidence(self):
        rng = random.Random(17)
        for _ in range(200):
            for f in detect_file(oracle.random_ruleset(rng)).findings:
                if f.category is FineCategory.SAC:
                    assert f.conditions_a == () and f.conditions_b == ()
                if f.category is FineCategory.WAC:
                    assert f.conditions_a or f.conditions_b

    def test_brute_force_equivalence_sample(self):
        rng = random.Random(99)
        for _ in range(300):
            rs = oracle.random_ruleset(rng)
            got = Counter(oracle.detector_identities(detect_file(rs)))
            want = Counter(oracle.oracle_detect_file(rs))
            assert got == want

    def test_permutation_covariance(self):
        rng = random.Random(23)
        for _ in range(100):
            rs = oracle.random_ruleset(rng)
            baseline = Counter(f.category for f in detect_file(rs).findings)
            order = list(rs.rules)
            rng.shuffle(order)
            permuted = oracle.renumber(order, rs.file_id)
            assert Counter(f.category for f in detect_file(permuted).findings) == baseline

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    def test_finding_keys_are_unique_per_report(self, seed):
        # Routing, the table stub and the audit log name a finding by its key.
        ruleset = oracle.random_ruleset(random.Random(seed))
        for strict in (True, False):
            keys = [finding_key(f) for f in detect_file(ruleset, strict).findings]
            assert len(keys) == len(set(keys))

    def test_detection_is_deterministic(self, morning_pair):
        assert detect_file(morning_pair) == detect_file(morning_pair)


def _condition(cid: str, item: str) -> Condition:
    return Condition(cid, ConditionKind.ITEM_COMPARISON, item=item, op="==", value=make_value("ON"))


class TestRecords:
    def test_fields_cannot_be_assigned(self, fire_alarm_pair):
        guard = _condition("r1c1", "X")
        guarded = GuardedAction(Action("r1a1", ActionKind.SEND_COMMAND, "Y", make_value("ON")), (guard,))
        trigger = Trigger("r1t1", TriggerKind.CRON, cron=CronSpec.parse("0 30 8 * * ?"))
        rule = Rule("r1", "one", (trigger,), (guarded,))
        report = detect_file(fire_alarm_pair)
        finding = report.findings[0]
        records = [
            (guard.value, "text"),
            (trigger.cron, "raw"),
            (trigger, "kind"),
            (guard, "op"),
            (guarded.action, "value"),
            (guarded, "guards"),
            (rule, "conditions"),
            (Diagnostic("error", "rule-block", "m"), "line"),
            (RuleSet("f", (rule,)), "rules"),
            (finding.action_a, "text"),
            (finding.rule_a, "name"),
            (finding, "category"),
            (report, "findings"),
        ]
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
            assert getattr(record, field) is not None

    def test_all_conditions_are_rule_level_then_distinct_guards_by_id(self):
        c1, c2, c3, c4 = (_condition(f"r1c{k}", f"I{k}") for k in range(1, 5))
        act = Action("r1a1", ActionKind.SEND_COMMAND, "Y", make_value("ON"))
        guarded = (
            GuardedAction(act, (c3, _condition("r1c1", "other"))),  # same id as c1: c1 is kept
            GuardedAction(act, (c4, c3)),
            GuardedAction(act),
        )
        rule = Rule("r1", "one", (), guarded, conditions=(c2, c1))
        assert rule.all_conditions() == (c2, c1, c3, c4)
        assert Rule("r2", "two", (), guarded).all_conditions() == (c3, _condition("r1c1", "other"), c4)
