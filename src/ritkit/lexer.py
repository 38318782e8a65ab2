"""Tokenizer for the supported .rules subset.

Keywords are recognized case-insensitively at parse time; the lexer only
classifies shapes. ``//`` and ``/* */`` comments and whitespace are skipped
but accounted for, so every input character belongs to exactly one token or
skipped span.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .source import SourceFile


class TokenKind(Enum):
    STRING = "string"
    TIME = "time"  # HH:MM literal
    NUMBER = "number"
    IDENT = "ident"
    OP = "op"  # == != <= >= < >
    ANDAND = "andand"
    LPAREN = "lparen"
    RPAREN = "rparen"
    LBRACE = "lbrace"
    RBRACE = "rbrace"
    COMMA = "comma"
    DOT = "dot"
    ERROR = "error"  # unterminated string or stray character


class Token(NamedTuple):
    """One lexeme; a tuple, which is cheaper to build than a frozen dataclass."""

    kind: TokenKind
    text: str
    line: int  # 1-based
    col: int  # 1-based
    offset: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<unterminated_comment>/\*.*)
  | (?P<string>"[^"\n]*")
  | (?P<unterminated_string>"[^"\n]*)
  | (?P<time>\d{1,2}:\d{2})
  | (?P<number>[+-]?(\d+(\.\d*)?|\.\d+))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>==|!=|<=|>=|<|>)
  | (?P<andand>&&)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<stray>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_GROUP_KINDS = {
    "string": TokenKind.STRING,
    "time": TokenKind.TIME,
    "number": TokenKind.NUMBER,
    "ident": TokenKind.IDENT,
    "op": TokenKind.OP,
    "andand": TokenKind.ANDAND,
    "lparen": TokenKind.LPAREN,
    "rparen": TokenKind.RPAREN,
    "lbrace": TokenKind.LBRACE,
    "rbrace": TokenKind.RBRACE,
    "comma": TokenKind.COMMA,
    "dot": TokenKind.DOT,
    "unterminated_string": TokenKind.ERROR,
    "stray": TokenKind.ERROR,
}


def tokenize(source: SourceFile) -> list[Token]:
    """Lex the whole file. Never raises; problems become ERROR tokens."""
    tokens: list[Token] = []
    line, line_start = 1, 0  # the current line and the offset it starts at
    for m in _TOKEN_RE.finditer(source.content):  # gapless: the stray group matches any character
        kind = _GROUP_KINDS.get(m.lastgroup)
        text = m.group()
        pos = m.start()
        if kind is None:  # whitespace or a comment, the only lexemes spanning lines
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = pos + text.rindex("\n") + 1
            continue
        tokens.append(Token(kind, text, line, pos - line_start + 1, pos))
    return tokens


def is_keyword(token: Token, word: str) -> bool:
    """`token` is the identifier `word` (a lowercase keyword), in any case."""
    text = token.text
    # Identifiers are ASCII, so lower() keeps their length: compare that first.
    return len(text) == len(word) and token.kind is TokenKind.IDENT and text.lower() == word


def rule_block_starts(tokens: list[Token]) -> list[int]:
    """Indices of `rule "` block starts (keyword followed by a string lexeme).

    A rule keyword followed by an unterminated string still counts as a block
    start so that every `rule "` occurrence is either parsed or diagnosed.
    """
    starts = []
    for i, tok in enumerate(tokens[:-1]):
        if len(tok.text) != 4 or not is_keyword(tok, "rule"):  # the length test spares most tokens a call
            continue
        nxt = tokens[i + 1]
        if nxt.kind is TokenKind.STRING or (nxt.kind is TokenKind.ERROR and nxt.text.startswith('"')):
            starts.append(i)
    return starts
