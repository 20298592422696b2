"""Tokenizer for the Elixir fragment.

`tokenize` gives a file's tokens as parallel columns, with no Python object
per token, built by whole-list passes that run in C. `_TOKEN.findall` cuts
the text into matches with no gaps, so the end offsets are the running sum of
the match lengths. A match's kind comes from its lexeme, else from its first
character; whitespace and comments, of kind "", drop out in `compress`.
Python visits only the rare tokens, in source order so that the first error
wins, and then the newlines and brackets.

A keyword, operator or punctuation token is its own kind: `"==="`, `"do"`
and `","` are kinds, so the parser dispatches on one column. Every other
token has a class kind, `ident`, `int`, `float`, `string`, `atom`, `atspec`,
`newline` or `eof`, none of which spells a symbol; a string or atom whose
text spells one, such as `"("` or `:do`, keeps its class kind.
"""
from __future__ import annotations

import re
from itertools import accumulate, chain, compress, count, repeat
from operator import itemgetter

from .diagnostics import CheckFailure, E_LEX, Source, Span
from .types import Value

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

# Each bracket kind's step in nesting depth, and 0 for a newline: one loop visits both.
_DEPTH = {"(": 1, "[": 1, "{": 1, "%{": 1, ")": -1, "]": -1, "}": -1, "newline": 0}

# A newline after a token of one of these kinds continues the current
# expression instead of separating statements: an operator, some punctuation
# and keywords, and a newline, kept or already dropped (kind "").
_CONTINUATION = {*OPERATORS, ",", ";", "(", "[", "{", "%{", "do", "else", "fn", "not", "and", "or",
                 "newline", ""}

# Alternatives are tried in order: numbers before `\w+`, `:` before `::`, and
# each table longest first. Each takes a character or more, but `.` takes any
# one and `\Z`'s empty match at the end is the `eof` token. `\w` is
# `str.isalnum()` or `_` and `\d` is `str.isdecimal()`, as the language wants,
# but a name must also start with `str.isalpha()` or `_`. A string's body
# stops before its closing quote, a bad escape or the end of its line.
_STRING = r'"(?:[^"\\\n]+|\\[nt"\\])*'
_TOKEN = re.compile("|".join([
    r"[ \t\r]+", r"#[^\n]*", r"\n", r"\d+\.\d+", r"\d+", _STRING + '"?',
    r":(?!:)\w*", r"@\w*", r"\w+", *map(re.escape, PUNCTUATION + OPERATORS), ".", r"\Z",
]))
_STRING_BODY = re.compile(_STRING)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# A match's kind by its lexeme, a symbol's being the symbol, else by its first
# character, else "?". `tokenize` resolves the `_RARE` kinds, and gives
# strings and atoms their lexeme.
_KIND = {
    **{symbol: symbol for symbol in (*KEYWORDS, *OPERATORS, *PUNCTUATION)},
    "\n": "newline", "@spec": "atspec", "": "eof",
}
_FIRST = {
    **dict.fromkeys(" \t\r#", ""), **dict.fromkeys("0123456789", "number"),
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "ident"),
    '"': "string", ":": "atom", "@": "@",
}
_RARE = frozenset(("number", "string", "atom", "@", "?"))


class Tokens(Value):
    """A file's tokens as parallel columns: token `i` has kind `kinds[i]`,
    lexeme `lexemes[i]`, and offsets `starts[i]` to `ends[i]` into `source`.
    A keyword, operator or punctuation token's kind is its lexeme, such as
    `"=="` or `"end"`; any other token's is ident, atom, int, float, string,
    atspec, newline or eof. The last token is `eof`."""

    __slots__ = ("kinds", "lexemes", "starts", "ends", "source")

    def __len__(self) -> int:
        return len(self.kinds)


class LexError(CheckFailure):
    def __init__(self, message: str, span: Span):
        super().__init__(E_LEX, message, span)
        self.span = span  # whole, since no program holds the source yet


def tokenize(source: str) -> Tokens:
    """The tokens of `source`, with a `newline` token only where a statement ends."""
    src = Source(source)
    lexemes = _TOKEN.findall(source)
    ends = list(accumulate(map(len, lexemes)))
    firsts = map(_FIRST.get, map(itemgetter(slice(1)), lexemes), repeat("?"))
    kinds = list(map(_KIND.get, lexemes, firsts))
    columns = [list(compress(col, kinds)) for col in (kinds, lexemes, chain((0,), ends), ends)]
    kinds, lexemes, starts, ends = columns  # which frees the lists with whitespace and comments

    for i in compress(count(), map(_RARE.__contains__, kinds)):
        kind, lexeme, start = kinds[i], lexemes[i], starts[i]
        if kind == "string":
            pos = _STRING_BODY.match(source, start).end()
            if source.startswith("\\", pos):
                raise LexError(f"unknown escape \\{source[pos + 1:pos + 2]}", Span(pos, pos, src))
            if not source.startswith('"', pos):
                raise LexError("unterminated string", Span(start, pos, src))
            lexemes[i] = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], lexeme[1:-1])
        elif kind == "atom":
            lexemes[i] = name = lexeme[1:]
            if not (name[:1].isalpha() or name[:1] == "_"):
                raise LexError("expected atom name after ':'", Span(start, start + 1, src))
        elif kind == "@":
            raise LexError(f"unknown directive {lexeme}", Span(start, ends[i], src))
        elif kind == "number" or lexeme[0].isdecimal():
            kinds[i] = "float" if "." in lexeme else "int"
        elif lexeme[0].isalpha():  # `_` and ASCII letters start an "ident" already
            kinds[i] = "ident"
        else:
            raise LexError(f"stray character {lexeme[0]!r}", Span(start, start, src))

    # A newline is dropped inside brackets, at the start, and after a
    # continuation kind.
    depth = 0
    for i in compress(count(), map(_DEPTH.__contains__, kinds)):
        step = _DEPTH[kinds[i]]
        if step:
            depth = max(0, depth + step)
        elif depth or not i or kinds[i - 1] in _CONTINUATION:
            kinds[i] = ""
    return Tokens(*[list(compress(col, kinds)) for col in columns], src)
