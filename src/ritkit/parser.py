"""Recursive-descent parser for the supported openHAB .rules subset.

Grammar (everything else is diagnosed and skipped):

    file        := rule*
    rule        := 'rule' STRING 'when' whenclause 'then' script 'end'
    whenclause  := alternative ('or' alternative)*
    alternative := trigger ('&&' condition)*
    trigger     := 'Time' 'cron' STRING
                 | 'System' 'started'
                 | ['Item'] IDENT ('changed'|'changes') ['from' value] ['to' value]
                 | ['Item'] IDENT 'received' ('command' [value] | 'update')
                 | IDENT ['.state'] CMPOP value
    script      := (action | if-block)*
    if-block    := 'if' '(' condition ('&&' condition)* ')' ( '{' script '}' | indented script )
    action      := ('sendCommand'|'postUpdate') '(' IDENT ',' value ')'
                 | IDENT '.' ('sendCommand'|'postUpdate') '(' value ')'
    condition   := 'time' CMPOP TIME | IDENT ['.state'] CMPOP value

Malformed rule blocks produce one error diagnostic each and are skipped;
unparseable script statements produce a warning and the rule is kept.
`if` blocks nested deeper than MAX_IF_DEPTH make the rule block malformed.
"""

from __future__ import annotations

from .ir import (
    Action,
    ActionKind,
    Condition,
    ConditionKind,
    CronSpec,
    DAY_END,
    DAY_START,
    Diagnostic,
    GuardedAction,
    Rule,
    RuleSet,
    Trigger,
    TriggerKind,
    Value,
    make_value,
)
from .lexer import Token, TokenKind, is_keyword, rule_block_starts, tokenize
from .source import SourceFile

_ACTION_CALLS = {"sendcommand": ActionKind.SEND_COMMAND, "postupdate": ActionKind.POST_UPDATE}

# Each nesting level costs three stack frames of the recursive descent, so
# this stays well under the interpreter's recursion limit.
MAX_IF_DEPTH = 100


class _BlockError(Exception):
    """Aborts the current rule block; carries the diagnostic message."""

    def __init__(self, message: str, token: Token | None):
        super().__init__(message)
        self.message = message
        self.token = token


class _BlockParser:
    """Parses one rule block out of a token slice into rule `rule_id`."""

    def __init__(self, tokens: list[Token], warnings: list[Diagnostic], rule_id: str):
        self.tokens = tokens
        self.pos = 0
        self.warnings = warnings
        self.rule_id = rule_id
        # 1-based per-rule ordinals for the rNtM / rNcM / rNaM ids.
        self.trigger_n = 0
        self.condition_n = 0
        self.action_n = 0
        self.if_depth = 0

    # -- cursor helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def at_keyword(self, word: str, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok is not None and is_keyword(tok, word)

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise _BlockError("unexpected end of rule block", self.tokens[-1] if self.tokens else None)
        self.pos += 1
        return tok

    def expect_kind(self, kind: TokenKind, what: str) -> Token:
        tok = self.take()
        if tok.kind is not kind:
            raise _BlockError(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.take()
        if not is_keyword(tok, word):
            raise _BlockError(f"expected keyword {word!r}, found {tok.text!r}", tok)
        return tok

    # -- id factories ------------------------------------------------------

    def next_trigger_id(self) -> str:
        self.trigger_n += 1
        return f"{self.rule_id}t{self.trigger_n}"

    def next_condition_id(self) -> str:
        self.condition_n += 1
        return f"{self.rule_id}c{self.condition_n}"

    def next_action_id(self) -> str:
        self.action_n += 1
        return f"{self.rule_id}a{self.action_n}"

    # -- rule --------------------------------------------------------------

    def parse_rule(self) -> Rule:
        first = self.expect_keyword("rule")
        name_tok = self.take()
        if name_tok.kind is not TokenKind.STRING:
            raise _BlockError("rule name must be a string literal", name_tok)
        name = name_tok.text[1:-1]
        self.expect_keyword("when")
        triggers, conditions = self.parse_when_clause()
        if not triggers:
            raise _BlockError("rule has no recognizable trigger", name_tok)
        self.expect_keyword("then")
        guarded = self.parse_script()
        end_tok = self.expect_keyword("end")
        if self.peek() is not None:
            self._warn(f"content after 'end' ignored: {self.peek().text!r}", self.peek())
        span = (first.offset, end_tok.offset + len(end_tok.text))
        return Rule(self.rule_id, name, tuple(triggers), tuple(guarded), tuple(conditions), span)

    # -- when clause -------------------------------------------------------

    def parse_when_clause(self) -> tuple[list[Trigger], list[Condition]]:
        triggers: list[Trigger] = []
        conditions: list[Condition] = []
        while True:
            triggers.append(self.parse_trigger())
            while self.peek() is not None and self.peek().kind is TokenKind.ANDAND:
                self.take()
                conditions.append(self.parse_condition_conjunct(self._take_condition_tokens()))
            if self.at_keyword("or"):
                self.take()
                continue
            break
        return triggers, conditions

    def _take_condition_tokens(self) -> list[Token]:
        """Consume one when-clause conjunct, up to '&&', 'or' or 'then'."""
        out: list[Token] = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind is TokenKind.ANDAND or is_keyword(tok, "or") or is_keyword(tok, "then"):
                return out
            out.append(self.take())

    def parse_trigger(self) -> Trigger:
        tok = self.peek()
        if tok is None:
            raise _BlockError("missing trigger", None)
        if is_keyword(tok, "time") and self.at_keyword("cron", 1):
            self.take()
            self.take()
            expr = self.expect_kind(TokenKind.STRING, "cron string")
            return Trigger(self.next_trigger_id(), TriggerKind.CRON, cron=CronSpec.parse(expr.text[1:-1]))
        if is_keyword(tok, "system") and self.at_keyword("started", 1):
            self.take()
            self.take()
            return Trigger(self.next_trigger_id(), TriggerKind.SYSTEM_STARTED)

        if is_keyword(tok, "item") and self.peek(1) is not None and self.peek(1).kind is TokenKind.IDENT:
            self.take()
            tok = self.peek()
        if tok is None or tok.kind is not TokenKind.IDENT:
            raise _BlockError(f"unrecognized trigger form at {tok.text!r}" if tok else "missing trigger", tok)
        item_tok = self.take()
        item = item_tok.text

        if self.at_keyword("changed") or self.at_keyword("changes"):
            self.take()
            from_value = to_value = None
            if self.at_keyword("from"):
                self.take()
                from_value = self._take_value("changed-from value")
            if self.at_keyword("to"):
                self.take()
                to_value = self._take_value("changed-to value")
            return Trigger(
                self.next_trigger_id(), TriggerKind.ITEM_CHANGED, item=item, from_value=from_value, to_value=to_value
            )
        if self.at_keyword("received") and self.at_keyword("command", 1):
            self.take()
            self.take()
            command_value = None
            nxt = self.peek()
            if nxt is not None and nxt.kind in (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING) and not _is_clause_keyword(nxt):
                command_value = self._take_value("command value")
            return Trigger(self.next_trigger_id(), TriggerKind.ITEM_COMMAND, item=item, command_value=command_value)
        if self.at_keyword("received") and self.at_keyword("update", 1):
            self.take()
            self.take()
            return Trigger(self.next_trigger_id(), TriggerKind.ITEM_UPDATE, item=item)

        # State-comparison trigger: X[.state] <op> value
        if self.peek() is not None and self.peek().kind is TokenKind.DOT and self.at_keyword("state", 1):
            self.take()
            self.take()
        op_tok = self.peek()
        if op_tok is not None and op_tok.kind is TokenKind.OP:
            self.take()
            value = self._take_value("comparison value")
            return Trigger(self.next_trigger_id(), TriggerKind.STATE_COMPARISON, item=item, op=op_tok.text, value=value)
        raise _BlockError(f"unrecognized trigger form near {item!r}", item_tok)

    def _take_value(self, what: str) -> Value:
        tok = self.take()
        if tok.kind not in (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING):
            raise _BlockError(f"expected {what}, found {tok.text!r}", tok)
        return make_value(tok.text)

    # -- conditions ----------------------------------------------------------

    def parse_condition_conjunct(self, toks: list[Token]) -> Condition:
        """Parse one comparison conjunct (already sliced out of its context)."""
        conds = self._parse_condition_list(toks)
        if len(conds) != 1:
            raise _BlockError("expected a single comparison", toks[0] if toks else None)
        return conds[0]

    def _parse_condition_list(self, toks: list[Token]) -> list[Condition]:
        """Parse `cmp (&& cmp)*`; time bounds merge into one TimeWindow."""
        if not toks:
            raise _BlockError("empty condition", None)
        groups: list[list[Token]] = [[]]
        depth = 0
        for tok in toks:
            if tok.kind is TokenKind.LPAREN:
                depth += 1
            elif tok.kind is TokenKind.RPAREN:
                depth -= 1
            if tok.kind is TokenKind.ANDAND and depth == 0:
                groups.append([])
            else:
                groups[-1].append(tok)

        conds: list[Condition] = []
        window: tuple[int, int] | None = None
        for group in groups:
            group = _strip_outer_parens(group)
            if not group:
                raise _BlockError("empty comparison", toks[0])
            parsed = self._parse_comparison(group)
            if isinstance(parsed, Condition):
                conds.append(parsed)
            else:
                lo, hi = parsed
                base = window or (DAY_START, DAY_END)
                window = (max(base[0], lo), min(base[1], hi))
        if window is not None:
            if window[0] > window[1]:
                raise _BlockError("empty time window", toks[0])
            conds.append(Condition(self.next_condition_id(), ConditionKind.TIME_WINDOW, window=window))
        return conds

    def _parse_comparison(self, group: list[Token]) -> Condition | tuple[int, int]:
        """One comparison; returns a Condition or (lo, hi) time bounds."""
        i = 0
        if group[0].kind is not TokenKind.IDENT:
            raise _BlockError(f"expected item name, found {group[0].text!r}", group[0])
        item_tok = group[0]
        i = 1
        if i + 1 < len(group) and group[i].kind is TokenKind.DOT and is_keyword(group[i + 1], "state"):
            i += 2
        if i >= len(group) or group[i].kind is not TokenKind.OP:
            raise _BlockError(f"expected comparison operator after {item_tok.text!r}", item_tok)
        op = group[i].text
        i += 1
        if i >= len(group):
            raise _BlockError("missing comparison value", group[i - 1])
        val_tok = group[i]
        if i != len(group) - 1:
            raise _BlockError(f"trailing tokens in comparison near {group[i + 1].text!r}", group[i + 1])

        if item_tok.text.lower() == "time" and val_tok.kind is TokenKind.TIME:
            minutes = _time_minutes(val_tok)
            if op in (">=",):
                return (minutes, DAY_END)
            if op in (">",):
                return (min(minutes + 1, DAY_END), DAY_END)
            if op in ("<=",):
                return (DAY_START, minutes)
            if op in ("<",):
                return (DAY_START, max(minutes - 1, DAY_START))
            if op == "==":
                return (minutes, minutes)
            raise _BlockError("time comparison does not support !=", val_tok)
        if val_tok.kind not in (TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING):
            raise _BlockError(f"expected comparison value, found {val_tok.text!r}", val_tok)
        return Condition(
            self.next_condition_id(),
            ConditionKind.ITEM_COMPARISON,
            item=item_tok.text,
            op=op,
            value=make_value(val_tok.text),
        )

    # -- script block --------------------------------------------------------

    def parse_script(self) -> list[GuardedAction]:
        out: list[GuardedAction] = []
        self._parse_statements(out, guards=(), min_col=None, brace=False)
        return out

    def _parse_statements(
        self,
        out: list[GuardedAction],
        guards: tuple[Condition, ...],
        min_col: int | None,
        brace: bool,
    ) -> None:
        while True:
            tok = self.peek()
            if tok is None:
                if brace:
                    raise _BlockError("missing closing '}'", self.tokens[-1])
                return
            if brace and tok.kind is TokenKind.RBRACE:
                self.take()
                return
            if not brace and is_keyword(tok, "end"):
                return
            if not brace and min_col is not None and tok.col <= min_col:
                return  # dedent closes the indentation-scoped if
            self._parse_statement(out, guards)

    def _parse_statement(self, out: list[GuardedAction], guards: tuple[Condition, ...]) -> None:
        tok = self.peek()
        if is_keyword(tok, "if"):
            self._parse_if(out, guards)
            return
        action = self._try_parse_action()
        if action is not None:
            out.append(GuardedAction(action, guards))
            return
        self._skip_statement("unsupported statement")

    def _parse_if(self, out: list[GuardedAction], guards: tuple[Condition, ...]) -> None:
        if_tok = self.take()
        if self.if_depth >= MAX_IF_DEPTH:
            raise _BlockError(f"if blocks nested deeper than {MAX_IF_DEPTH} levels", if_tok)
        try:
            self.expect_kind(TokenKind.LPAREN, "'(' after if")
            cond_toks = self._take_until_rparen(if_tok)
            new_conds = self._parse_condition_list(cond_toks)
        except _BlockError as exc:
            # An if we cannot understand takes its whole scope with it.
            self._warn(exc.message, exc.token or if_tok)
            self._skip_if_scope(if_tok)
            return
        merged = guards + tuple(new_conds)
        self.if_depth += 1
        nxt = self.peek()
        if nxt is not None and nxt.kind is TokenKind.LBRACE:
            self.take()
            self._parse_statements(out, merged, min_col=None, brace=True)
        else:
            self._parse_statements(out, merged, min_col=if_tok.col, brace=False)
        self.if_depth -= 1

    def _take_until_rparen(self, opener: Token) -> list[Token]:
        depth = 1
        toks: list[Token] = []
        while True:
            tok = self.peek()
            if tok is None or is_keyword(tok, "end"):
                raise _BlockError("missing ')' in if condition", opener)
            self.take()
            if tok.kind is TokenKind.LPAREN:
                depth += 1
            elif tok.kind is TokenKind.RPAREN:
                depth -= 1
                if depth == 0:
                    return toks
            toks.append(tok)

    def _try_parse_action(self) -> Action | None:
        tok = self.peek()
        if tok is None or tok.kind is not TokenKind.IDENT:
            return None
        # sendCommand(Item, Value)
        if tok.text.lower() in _ACTION_CALLS and self.peek(1) is not None and self.peek(1).kind is TokenKind.LPAREN:
            kind = _ACTION_CALLS[tok.text.lower()]
            self.take()
            self.take()
            item = self.expect_kind(TokenKind.IDENT, "item name")
            self.expect_kind(TokenKind.COMMA, "','")
            value = self._take_value("action value")
            self.expect_kind(TokenKind.RPAREN, "')'")
            return Action(self.next_action_id(), kind, item.text, value)
        # Item.sendCommand(Value)
        if (
            self.peek(1) is not None
            and self.peek(1).kind is TokenKind.DOT
            and self.peek(2) is not None
            and self.peek(2).kind is TokenKind.IDENT
            and self.peek(2).text.lower() in _ACTION_CALLS
            and self.peek(3) is not None
            and self.peek(3).kind is TokenKind.LPAREN
        ):
            item = self.take()
            self.take()
            kind = _ACTION_CALLS[self.take().text.lower()]
            self.take()
            value = self._take_value("action value")
            self.expect_kind(TokenKind.RPAREN, "')'")
            return Action(self.next_action_id(), kind, item.text, value)
        return None

    def _skip_statement(self, reason: str) -> None:
        """Skip to the next line (brace-balanced), warning once."""
        start = self.take()
        self._warn(f"{reason}: {start.text!r}", start)
        depth = 1 if start.kind is TokenKind.LBRACE else 0
        while True:
            tok = self.peek()
            if tok is None or is_keyword(tok, "end"):
                return
            if depth == 0 and tok.line > start.line:
                return
            if tok.kind is TokenKind.LBRACE:
                depth += 1
            elif tok.kind is TokenKind.RBRACE:
                if depth == 0:
                    return
                depth -= 1
            self.take()

    def _skip_if_scope(self, if_tok: Token) -> None:
        """Skip a failed if and everything lexically inside its scope."""
        tok = self.peek()
        if tok is not None and tok.kind is TokenKind.LBRACE:
            depth = 0
            while (tok := self.peek()) is not None and not is_keyword(tok, "end"):
                self.take()
                if tok.kind is TokenKind.LBRACE:
                    depth += 1
                elif tok.kind is TokenKind.RBRACE:
                    depth -= 1
                    if depth == 0:
                        return
            return
        while (tok := self.peek()) is not None and not is_keyword(tok, "end"):
            if tok.col <= if_tok.col:
                return
            self.take()

    def _warn(self, message: str, token: Token | None) -> None:
        line, col = (token.line, token.col) if token is not None else (1, 1)
        self.warnings.append(Diagnostic("warning", "unsupported-construct", message, line, col))


def _is_clause_keyword(tok: Token) -> bool:
    return tok.kind is TokenKind.IDENT and tok.text.lower() in ("or", "then", "end")


def _strip_outer_parens(group: list[Token]) -> list[Token]:
    while len(group) >= 2 and group[0].kind is TokenKind.LPAREN and group[-1].kind is TokenKind.RPAREN:
        depth = 0
        balanced = True
        for tok in group[1:-1]:
            if tok.kind is TokenKind.LPAREN:
                depth += 1
            elif tok.kind is TokenKind.RPAREN:
                depth -= 1
                if depth < 0:
                    balanced = False
                    break
        if not balanced or depth != 0:
            return group
        group = group[1:-1]
    return group


def _time_minutes(tok: Token) -> int:
    hours, minutes = tok.text.split(":")
    h, m = int(hours), int(minutes)
    if h > 23 or m > 59:
        raise _BlockError(f"invalid time literal {tok.text!r}", tok)
    return h * 60 + m


def _parse_block(block: list[Token], rule_id: str, diagnostics: list[Diagnostic]) -> Rule | None:
    """One rule block's tokens as rule `rule_id`; a malformed block adds an
    error diagnostic and gives None. Warnings are added either way."""
    warnings: list[Diagnostic] = []
    try:
        rule = _BlockParser(block, warnings, rule_id).parse_rule()
    except _BlockError as exc:
        tok = exc.token or block[0]
        message = f"rule block skipped: {exc.message}"
        diagnostics.append(Diagnostic("error", "rule-block", message, tok.line, tok.col))
        rule = None
    diagnostics.extend(warnings)
    return rule


def parse_ruleset(source: SourceFile) -> RuleSet:
    """Parse a whole .rules file; per-block failures become diagnostics."""
    tokens = tokenize(source)
    starts = rule_block_starts(tokens)
    diagnostics: list[Diagnostic] = []

    if not starts:
        if tokens:
            first = tokens[0]
            diagnostics.append(Diagnostic("error", "no-rules", "no rule blocks found in file", first.line, first.col))
        return RuleSet(file_id=source.path, diagnostics=tuple(diagnostics))

    if tokens and starts[0] > 0:
        stray = tokens[0]
        message = f"content before first rule ignored: {stray.text!r}"
        diagnostics.append(Diagnostic("warning", "stray-content", message, stray.line, stray.col))

    rules: list[Rule] = []
    for k, start in enumerate(starts):
        end = starts[k + 1] if k + 1 < len(starts) else len(tokens)
        rule = _parse_block(tokens[start:end], f"r{len(rules) + 1}", diagnostics)
        if rule is not None:
            rules.append(rule)

    return RuleSet(file_id=source.path, rules=tuple(rules), diagnostics=tuple(diagnostics))


def parse_rule_block(text: str, rule_id: str) -> tuple[Rule | None, list[Diagnostic]]:
    """Parse `text` alone as the rule block of rule `rule_id`.

    Its span and diagnostic positions are relative to `text`. The rule is
    None, with an error diagnostic, when the block is malformed or when
    `text` is not exactly one rule block starting at its first token.
    """
    tokens = tokenize(SourceFile.from_text(text))
    if rule_block_starts(tokens) != [0]:
        return None, [Diagnostic("error", "rule-block", "text is not exactly one rule block")]
    diagnostics: list[Diagnostic] = []
    return _parse_block(tokens, rule_id, diagnostics), diagnostics
