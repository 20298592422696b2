"""Tokenizer for the Elixir fragment.

`_TOKEN` is one compiled pattern with a named group per token kind, built from
the tables below. `tokenize` matches it at the current offset and dispatches
on the group that matched, the "Writing a Tokenizer" recipe of the `re` docs.

A token is its own span: `Token` extends `Span`, an offset range over the
file's `Source`, with a kind and a lexeme, and the parser hands tokens on as
node spans. The loop keeps no line or column; only a rendered diagnostic
looks one up, in a table of line starts the `Source` builds then. Looking up
every token's position raised peak memory on `legacy_migration` by 8 %.
"""
from __future__ import annotations

import re

from .diagnostics import CheckFailure, E_LEX
from .source import Source
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


class Token(Span):
    # kind: keyword | ident | atom | int | float | string | op | punct | atspec | newline | eof
    __slots__ = ("kind", "lexeme")

    def __init__(self, start: int, end: int, source: Source, kind: str, lexeme: str):
        self.start = start
        self.end = end
        self.source = source
        self.kind = kind
        self.lexeme = lexeme


class LexError(CheckFailure):
    def __init__(self, message: str, span: Span):
        super().__init__(E_LEX, message, span)


def _name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def tokenize(source: str) -> list[Token]:
    """Tokenize source text; comments and whitespace are dropped, newlines
    that separate statements come through as `newline` tokens."""
    src = Source(source)
    tokens: list[Token] = []
    match = _TOKEN.match
    pos = 0
    depth = 0
    while pos < len(source):
        m = match(source, pos)
        kind = m and m.lastgroup
        if kind == "skip":
            pos = m.end()
            continue
        start = pos
        if kind is None or kind == "ident" and not _name_start(source[start]):
            raise LexError(f"stray character {source[start]!r}", Span(start, start, src))
        pos = m.end()
        lexeme = m.group()
        if kind == "newline":
            prev = tokens[-1] if tokens else None
            if not (depth or prev is None or prev.kind in ("newline", "op")
                    or prev.kind in ("punct", "keyword") and prev.lexeme in _CONTINUATION):
                tokens.append(Token(start, pos, src, kind, lexeme))
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
                raise LexError(f"unknown escape \\{source[pos + 1:pos + 2]}", Span(pos, pos, src))
            if not source.startswith('"', pos):
                raise LexError("unterminated string", Span(start, pos, src))
            pos += 1
            lexeme = lexeme[1:]
            if "\\" in lexeme:
                lexeme = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], lexeme)
        elif kind == "atom":
            lexeme = lexeme[1:]
            if not (lexeme and _name_start(lexeme[0])):
                raise LexError("expected atom name after ':'", Span(start, start + 1, src))
        elif kind == "atspec" and lexeme != "@spec":
            raise LexError(f"unknown directive {lexeme}", Span(start, pos, src))
        tokens.append(Token(start, pos, src, kind, lexeme))
    tokens.append(Token(pos, pos, src, "eof", ""))
    return tokens
