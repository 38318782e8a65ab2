from __future__ import annotations

import hashlib
from pathlib import Path

from conftest import DATA_DIR, GOLDEN_DIR, load_bench_generator, parse_fixture, parse_text
from hypothesis import given, settings
from hypothesis import strategies as st

from ritkit.ir import ActionKind, ConditionKind, TriggerKind, ValueKind
from ritkit.lexer import TokenKind, tokenize
from ritkit.parser import MAX_IF_DEPTH, parse_ruleset
from ritkit.source import SourceFile


# Lexemes of the rule grammar and its comments, for random near-rules text.
_FRAGMENTS = (
    'rule "', 'RULE "x"', '"', "when", "then", "end", "End", "if", "or", "(", ")", "{", "}", "&&", "==", "<", ">=",
    "\n", "\t", " ", "ON", "off", "1", "2.5", "08:30", ":", ".", ",", "//", "/*", "*/", "Item", "X", "changed",
    "received command", "sendCommand", "postUpdate", "System started", "Time cron", ".state",
)


def kinds(text: str) -> list[TokenKind]:
    return [t.kind for t in tokenize(SourceFile.from_text(text))]


class TestTokenize:
    def test_smallest_rule_header(self):
        toks = tokenize(SourceFile.from_text('rule "A"'))
        assert [(t.kind, t.text) for t in toks] == [
            (TokenKind.IDENT, "rule"),
            (TokenKind.STRING, '"A"'),
        ]

    def test_cron_trigger_lexes_to_idents_and_string(self):
        assert kinds('Time cron "0 00 18 * * ?"') == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.STRING,
        ]

    def test_action_call(self):
        assert kinds("sendCommand(Window_Lock, ON)") == [
            TokenKind.IDENT,
            TokenKind.LPAREN,
            TokenKind.IDENT,
            TokenKind.COMMA,
            TokenKind.IDENT,
            TokenKind.RPAREN,
        ]

    def test_unterminated_string_becomes_error_token(self):
        toks = tokenize(SourceFile.from_text('rule "never closed\n'))
        assert toks[-1].kind is TokenKind.ERROR
        assert toks[-1].line == 1 and toks[-1].col == 6

    def test_comments_and_whitespace_are_skipped(self):
        text = "// header\n/* block\nspans lines */ ON\t\r\n"
        toks = tokenize(SourceFile.from_text(text))
        assert [t.text for t in toks] == ["ON"]

    def test_every_character_is_covered(self):
        text = 'rule "A" // c\nwhen\n  x >= 8:30 && y == "s"\nthen\nend\n'
        source = SourceFile.from_text(text)
        covered = [False] * len(text)
        for tok in tokenize(source):
            for i in range(tok.offset, tok.offset + len(tok.text)):
                covered[i] = True
        # Everything not covered by a token must be whitespace or comment.
        rest = "".join(ch for ch, hit in zip(text, covered) if not hit)
        assert set(rest) <= set(" \t\r\n/c") and "// c" in text


class TestParseRuleset:
    def test_sprinkler_rule_shape(self):
        rs = parse_fixture("ac_sprinkler_vs_windows.rules")
        rule = rs.rules[0]
        assert rule.name == "Turn on Water Sprinkles at Sunset"
        assert [t.kind for t in rule.triggers] == [TriggerKind.CRON]
        assert rule.triggers[0].cron.raw == "0 00 18 * * ?"
        assert len(rule.guarded_actions) == 2
        assert rule.conditions == ()

    def test_empty_file(self):
        rs = parse_text("")
        assert rs.rules == () and rs.diagnostics == ()

    def test_time_window_guards_both_actions(self):
        rs = parse_fixture("tc_morning_cascade.rules")
        rule = rs.rules[1]
        assert rule.triggers[0].kind is TriggerKind.ITEM_CHANGED
        assert rule.triggers[0].item == "Foyer_Light"
        assert rule.triggers[0].to_value.text == "ON"
        guards = [ga.guards for ga in rule.guarded_actions]
        assert len(guards) == 2
        assert all(len(g) == 1 and g[0].kind is ConditionKind.TIME_WINDOW for g in guards)
        # One lexical if produces one shared condition, not two.
        assert guards[0][0].id == guards[1][0].id
        assert guards[0][0].window == (8 * 60, 9 * 60)

    def test_rule_ids_follow_file_order(self):
        rs = parse_fixture("cc_fire_alarm_vs_bedtime.rules")
        assert [r.id for r in rs.rules] == ["r1", "r2"]
        assert rs.rules[1].guarded_actions[0].action.id == "r2a1"
        assert rs.rules[1].guarded_actions[0].guards[0].id == "r2c1"

    def test_malformed_block_is_skipped_with_error(self):
        text = 'rule "broken"\nwhen\n    whatever nonsense here\nthen\nend\n\nrule "good"\nwhen\n    System started\nthen\n    sendCommand(Lamp, ON)\nend\n'
        rs = parse_text(text)
        assert [r.name for r in rs.rules] == ["good"]
        errors = rs.errors()
        assert len(errors) == 1 and errors[0].code == "rule-block"

    def test_zero_wellformed_rules_yields_error_not_crash(self):
        rs = parse_text("this file is not rules at all\n")
        assert rs.rules == ()
        assert len(rs.errors()) >= 1

    def test_unparseable_statement_keeps_rule_with_warning(self):
        text = (
            'rule "timers"\nwhen\n    System started\nthen\n'
            "    createTimer(now.plusMinutes(5)) [ | doSomething() ]\n"
            "    sendCommand(Lamp, ON)\nend\n"
        )
        rs = parse_text(text)
        assert len(rs.rules) == 1
        assert len(rs.rules[0].guarded_actions) == 1
        assert [d for d in rs.diagnostics if d.severity == "warning"]

    def test_determinism(self):
        first = parse_fixture("tc_morning_cascade.rules")
        again = parse_fixture("tc_morning_cascade.rules")
        assert first == again

    def test_crlf_line_endings(self):
        text = 'rule "crlf"\r\nwhen\r\n    System started\r\nthen\r\n    sendCommand(X, ON)\r\nend\r\n'
        rs = parse_text(text)
        assert len(rs.rules) == 1

    def test_keywords_case_insensitive_items_case_sensitive(self):
        text = 'RULE "caps"\nWHEN\n    ITEM Lamp CHANGED TO ON\nTHEN\n    SENDCOMMAND(Lamp, OFF)\nEND\n'
        rs = parse_text(text)
        assert len(rs.rules) == 1
        assert rs.rules[0].triggers[0].item == "Lamp"

    def test_method_call_action_syntax(self):
        rs = parse_text('rule "m"\nwhen\n    System started\nthen\n    wtrvalvefront.sendCommand(off_r)\nend\n')
        action = rs.rules[0].guarded_actions[0].action
        assert action.item == "wtrvalvefront"
        assert action.value.kind is ValueKind.OPAQUE and action.value.text == "off_r"

    def test_nested_ifs_conjoin_guards(self):
        text = (
            'rule "nested"\nwhen\n    System started\nthen\n'
            '    if (msg == "START") {\n        if (wtrfronttime > 0) {\n'
            "            sendCommand(valve, on_r)\n        }\n    }\nend\n"
        )
        rs = parse_text(text)
        guards = rs.rules[0].guarded_actions[0].guards
        assert [c.op for c in guards] == ["==", ">"]

    def test_braceless_if_scopes_by_indentation(self):
        text = (
            'rule "indent"\nwhen\n    System started\nthen\n'
            "    if (alarm == ON)\n        sendCommand(a, ON)\n        sendCommand(b, ON)\n"
            "    sendCommand(c, ON)\nend\n"
        )
        rs = parse_text(text)
        gas = rs.rules[0].guarded_actions
        assert [len(ga.guards) for ga in gas] == [1, 1, 0]

    def test_postupdate_action(self):
        rs = parse_text('rule "p"\nwhen\n    System started\nthen\n    postUpdate(Alert, ON)\nend\n')
        assert rs.rules[0].guarded_actions[0].action.kind is ActionKind.POST_UPDATE


def parse_when(clause: str):
    """Parse `clause` as the when clause of a one-rule file."""
    return parse_text(f'rule "x"\nwhen\n    {clause}\nthen\n    sendCommand(X, ON)\nend\n')


def parse_script(script: str):
    """Guarded actions of `script` parsed as the body of a one-rule file."""
    rs = parse_text(f'rule "x"\nwhen\n    System started\nthen\n{script}end\n')
    return rs.rules[0].guarded_actions


class TestWhenClause:
    def test_cron_with_conjoined_condition(self):
        rs = parse_when('Time cron "0 30 08 * * ?" && day.state == "Weekday"')
        rule = rs.rules[0]
        assert [t.kind for t in rule.triggers] == [TriggerKind.CRON]
        assert len(rule.conditions) == 1
        cond = rule.conditions[0]
        assert (cond.item, cond.op, cond.value.text) == ("day", "==", "Weekday")
        assert not rs.diagnostics

    def test_state_comparison_trigger(self):
        triggers = parse_when("Temperature.state >= 25").rules[0].triggers
        assert triggers[0].kind is TriggerKind.STATE_COMPARISON
        assert triggers[0].item == "Temperature"
        assert triggers[0].op == ">=" and triggers[0].value.number == 25

    def test_system_started(self):
        triggers = parse_when("System started").rules[0].triggers
        assert triggers[0].kind is TriggerKind.SYSTEM_STARTED

    def test_or_separated_alternatives(self):
        triggers = parse_when("Lamp changed to ON or Item Lamp2 received update").rules[0].triggers
        assert [t.kind for t in triggers] == [TriggerKind.ITEM_CHANGED, TriggerKind.ITEM_UPDATE]

    def test_received_command_with_value(self):
        triggers = parse_when("Item Doorbell received command PRESSED").rules[0].triggers
        assert triggers[0].kind is TriggerKind.ITEM_COMMAND
        assert triggers[0].command_value.text == "PRESSED"

    def test_unrecognized_trigger_reports_error(self):
        rs = parse_when("Member of gLights changed")
        assert not rs.rules and any(d.severity == "error" for d in rs.diagnostics)


class TestScriptBlock:
    def test_guarded_single_action(self):
        gas = parse_script("if (temperature.state >= 57)\n    sendCommand(window_Lock, OFF)\n")
        assert len(gas) == 1
        assert gas[0].action.item == "window_Lock"
        assert [(c.item, c.op) for c in gas[0].guards] == [("temperature", ">=")]

    def test_unguarded_action(self):
        gas = parse_script("sendCommand(Fans, ON)\n")
        assert len(gas) == 1 and gas[0].guards == ()

    def test_window_guard_applies_to_two_actions(self):
        gas = parse_script(
            "if(time >= 8:00 && time <= 9:00)\n    sendCommand(Door_Lock, OFF)\n    sendCommand(Garage_Door, OPEN)\n"
        )
        assert [ga.action.item for ga in gas] == ["Door_Lock", "Garage_Door"]
        assert all(ga.guards[0].kind is ConditionKind.TIME_WINDOW for ga in gas)

    def test_nesting_is_capped_with_a_diagnostic(self):
        def nested(depth: int) -> str:
            body = "".join(f"if (X{k} == ON) {{\n" for k in range(depth)) + "sendCommand(Y, ON)\n" + "}\n" * depth
            return f'rule "deep"\nwhen\n    System started\nthen\n{body}end\n'

        gas = parse_text(nested(MAX_IF_DEPTH)).rules[0].guarded_actions
        assert len(gas) == 1 and len(gas[0].guards) == MAX_IF_DEPTH
        good = 'rule "good"\nwhen\n    System started\nthen\n    sendCommand(Z, ON)\nend\n'
        rs = parse_text(nested(MAX_IF_DEPTH + 1) + good)
        assert [r.name for r in rs.rules] == ["good"]
        assert [(d.code, d.message) for d in rs.diagnostics] == [
            ("rule-block", f"rule block skipped: if blocks nested deeper than {MAX_IF_DEPTH} levels")
        ]
        assert rs.diagnostics[0].line == 5 + MAX_IF_DEPTH


class TestInvariants:
    def _count_rule_starts(self, text: str) -> int:
        # `rule "` occurrences outside comments, via an independent scan.
        count, i, in_line, in_block, in_str = 0, 0, False, False, False
        while i < len(text):
            two = text[i : i + 2]
            if in_line:
                in_line = text[i] != "\n"
            elif in_block:
                if two == "*/":
                    in_block = False
                    i += 1
            elif in_str:
                if text[i] == '"' or text[i] == "\n":
                    in_str = False
            elif two == "//":
                in_line = True
                i += 1
            elif two == "/*":
                in_block = True
                i += 1
            elif text[i] == '"':
                in_str = True
            elif text[i : i + 4].lower() == "rule" and (i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")):
                j = i + 4
                while j < len(text) and text[j] in " \t":
                    j += 1
                if j < len(text) and text[j] == '"':
                    count += 1
                i += 3
            i += 1
        return count

    def test_coverage_accounting(self):
        samples = [
            'rule "a"\nwhen\n    System started\nthen\nend\n',
            '// rule "commented out"\nrule "b"\nwhen\n    X changed\nthen\nend\n',
            '/* rule "hidden" */\nrule "bad"\nwhen\nthen\nend\nrule "ok"\nwhen\n    System started\nthen\nend\n',
            'rule "one"\nwhen\n    Q changed\nthen\nend\nrule "two"\nwhen\n    ???\nthen\nend\n',
        ]
        for text in samples:
            rs = parse_text(text)
            block_errors = [d for d in rs.errors() if d.code == "rule-block"]
            assert self._count_rule_starts(text) == len(rs.rules) + len(block_errors), text

    def test_location_soundness(self):
        texts = [
            (DATA_DIR / name).read_text(encoding="utf-8")
            for name in ("ac_sprinkler_vs_windows.rules", "tc_morning_cascade.rules", "cc_fire_alarm_vs_bedtime.rules")
        ]
        texts.append('// lead\nrule "a"\nwhen\n    X changed\nthen\n    ???\nend\nrule "b"\nwhen\nthen\nEND\n')
        for text in texts:
            rs = parse_text(text)
            assert rs.rules
            previous_end = 0
            for rule in rs.rules:
                start, end = rule.span
                assert previous_end <= start < end <= len(text)  # in file order, never overlapping
                block = text[start:end].lower()
                assert block.startswith("rule") and block.endswith("end")
                previous_end = end
            for diag in rs.diagnostics:
                assert 1 <= diag.line <= text.count("\n") + 1 and diag.col >= 1

    def test_id_stability_under_content_change(self):
        base = 'rule "n{}"\nwhen\n    System started\nthen\n    sendCommand(X{}, ON)\nend\n'
        one = parse_text(base.format(1, 1) + base.format(2, 2))
        two = parse_text(base.format("renamed", 9) + base.format(2, 2))
        assert [r.id for r in one.rules] == [r.id for r in two.rules] == ["r1", "r2"]

    @given(st.one_of(st.text(max_size=200), st.lists(st.sampled_from(_FRAGMENTS), max_size=80).map("".join)))
    @settings(max_examples=300)
    def test_random_garbage_never_crashes(self, text):
        rs = parse_text(text)  # never raises
        for diag in rs.diagnostics:
            assert 1 <= diag.line <= text.count("\n") + 1
        for rule in rs.rules:
            block = text[slice(*rule.span)].lower()
            assert block.startswith("rule") and block.endswith("end")


SEED_DIR = Path(__file__).parent.parent / "src" / "ritkit" / "seeds"


def front_end_inputs() -> dict[str, list[tuple[str, str]]]:
    """Named groups of (name, text): the bundled seeds, the same seeds with every
    fifth line cut (so that diagnostics appear), the test fixtures and `gen.py` files."""
    seeds = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(SEED_DIR.glob("*.rules"))]
    generate = load_bench_generator().generate_rules
    return {
        "seeds": seeds,
        "cut-seeds": [(name, "\n".join(line for k, line in enumerate(text.split("\n")) if k % 5 != 3)) for name, text in seeds],
        "data": [(p.name, p.read_text(encoding="utf-8")) for p in sorted(DATA_DIR.glob("*.rules"))],
        "gen": [(f"gen{seed}", generate(seed, n_rules, n_items)) for seed, n_rules, n_items in ((1, 40, 30), (2, 120, 60), (3, 200, 2000))],
    }


def front_end_digest(inputs: list[tuple[str, str]]) -> str:
    """SHA-256 over the repr of each input's tokens and parsed ruleset, diagnostics included."""
    digest = hashlib.sha256()
    for name, text in inputs:
        source = SourceFile.from_text(text, name)
        digest.update(repr((name, tokenize(source), parse_ruleset(source))).encode())
    return digest.hexdigest()


def test_front_end_matches_the_golden_digest():
    """Tokens, diagnostics and rulesets stay byte-identical under lexer and parser changes."""
    lines = (GOLDEN_DIR / "front_end.sha256").read_text(encoding="utf-8").splitlines()
    want = {group: digest for digest, group in (line.split() for line in lines)}
    assert {group: front_end_digest(inputs) for group, inputs in front_end_inputs().items()} == want
