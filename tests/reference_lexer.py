"""A frozen copy of the match-loop tokenizer that `extc.lexer.tokenize`
replaced, kept as the reference for `tests/test_lexer.py::TestDifferential`.

`reference_tokenize(text)` gives the tokens as `(kind, lexeme, start, end)`
rows, `eof` included, or the `LexError` that the loop raised. Do not change
it to follow `extc.lexer`: it defines the tokens `tokenize` must give.
"""
from __future__ import annotations

import re

from extc.diagnostics import Span
from extc.lexer import LexError
from extc.source import Source

KEYWORDS = {
    "defmodule", "def", "do", "end", "else", "fn", "case", "cond", "if",
    "not", "and", "or", "true", "false",
}
OPERATORS = [
    "!==", "===", "==", "!=", "<=", ">=", "<>", "++", "--", "->", "=>", "::",
    "<", ">", "+", "-", "*", "/", "=", "^", ".", "|",
]
PUNCTUATION = ["%{", "(", ")", "[", "]", "{", "}", ",", ";"]
_OPENERS = {"(", "[", "{", "%{"}
_CLOSERS = {")", "]", "}"}
_CONTINUATION = {",", ";", "(", "[", "{", "%{", "do", "else", "fn", "not", "and", "or"}

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


def _name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]] | LexError:
    src = Source(source)
    rows: list[tuple[str, str, int, int]] = []
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
            return LexError(f"stray character {source[start]!r}", Span(start, start, src))
        pos = m.end()
        lexeme = m.group()
        if kind == "newline":
            prev = rows[-1] if rows else None
            if not (depth or prev is None or prev[0] in ("newline", "op")
                    or prev[0] in ("punct", "keyword") and prev[1] in _CONTINUATION):
                rows.append((kind, lexeme, start, pos))
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
                return LexError(f"unknown escape \\{source[pos + 1:pos + 2]}", Span(pos, pos, src))
            if not source.startswith('"', pos):
                return LexError("unterminated string", Span(start, pos, src))
            pos += 1
            lexeme = lexeme[1:]
            if "\\" in lexeme:
                lexeme = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], lexeme)
        elif kind == "atom":
            lexeme = lexeme[1:]
            if not (lexeme and _name_start(lexeme[0])):
                return LexError("expected atom name after ':'", Span(start, start + 1, src))
        elif kind == "atspec" and lexeme != "@spec":
            return LexError(f"unknown directive {lexeme}", Span(start, pos, src))
        rows.append((kind, lexeme, start, pos))
    rows.append(("eof", "", pos, pos))
    return rows
