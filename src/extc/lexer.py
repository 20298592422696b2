"""Tokenizer for the Elixir fragment."""
from __future__ import annotations

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

# A newline after one of these continues the current expression instead of
# separating statements.
_CONTINUATION_PUNCT = {",", ";", "(", "[", "{", "%{"}
_CONTINUATION_KEYWORDS = {"do", "else", "fn", "not", "and", "or"}


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


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


class _Lexer:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []
        self.depth = 0

    def span_from(self, start: tuple[int, int, int]) -> Span:
        s_pos, s_line, s_col = start
        return Span(s_pos, self.pos, s_line, s_col, self.line, self.col)

    def mark(self) -> tuple[int, int, int]:
        return (self.pos, self.line, self.col)

    def advance(self, n: int = 1):
        for _ in range(n):
            if self.src[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    def emit(self, kind: str, lexeme: str, start: tuple[int, int, int]):
        self.tokens.append(Token(kind, lexeme, self.span_from(start)))

    def last_significant(self) -> Token | None:
        return self.tokens[-1] if self.tokens else None

    def newline_is_separator(self) -> bool:
        if self.depth > 0:
            return False
        prev = self.last_significant()
        if prev is None or prev.kind == "newline":
            return False
        if prev.kind == "op":
            return False
        if prev.kind == "punct" and prev.lexeme in _CONTINUATION_PUNCT:
            return False
        if prev.kind == "keyword" and prev.lexeme in _CONTINUATION_KEYWORDS:
            return False
        return True

    def run(self) -> list[Token]:
        while self.pos < len(self.src):
            ch = self.peek()
            if ch == "#":
                while self.pos < len(self.src) and self.peek() != "\n":
                    self.advance()
                continue
            if ch == "\n":
                start = self.mark()
                self.advance()
                if self.newline_is_separator():
                    self.emit("newline", "\n", start)
                continue
            if ch in " \t\r":
                self.advance()
                continue
            if ch.isdecimal():
                self.lex_number()
                continue
            if ch == '"':
                self.lex_string()
                continue
            if ch == ":" and self.peek(1) != ":":
                self.lex_atom()
                continue
            if ch == "@":
                self.lex_at_directive()
                continue
            if _ident_start(ch):
                self.lex_ident()
                continue
            if self.lex_symbol():
                continue
            raise LexError(f"stray character {ch!r}", self.span_from(self.mark()))
        start = self.mark()
        self.emit("eof", "", start)
        return self.tokens

    def lex_number(self):
        start = self.mark()
        while self.peek().isdecimal():
            self.advance()
        if self.peek() == "." and self.peek(1).isdecimal():
            self.advance()
            while self.peek().isdecimal():
                self.advance()
            self.emit("float", self.src[start[0]:self.pos], start)
        else:
            self.emit("int", self.src[start[0]:self.pos], start)

    def lex_string(self):
        start = self.mark()
        self.advance()  # opening quote
        value = []
        while True:
            if self.pos >= len(self.src) or self.peek() == "\n":
                raise LexError("unterminated string", self.span_from(start))
            ch = self.peek()
            if ch == '"':
                self.advance()
                break
            if ch == "\\":
                escape = self.peek(1)
                if escape == "n":
                    value.append("\n")
                elif escape == "t":
                    value.append("\t")
                elif escape in ('"', "\\"):
                    value.append(escape)
                else:
                    raise LexError(f"unknown escape \\{escape}", self.span_from(self.mark()))
                self.advance(2)
                continue
            value.append(ch)
            self.advance()
        self.emit("string", "".join(value), start)

    def lex_atom(self):
        start = self.mark()
        self.advance()  # colon
        if not _ident_start(self.peek()):
            raise LexError("expected atom name after ':'", self.span_from(start))
        name_start = self.pos
        while _ident_char(self.peek()):
            self.advance()
        self.emit("atom", self.src[name_start:self.pos], start)

    def lex_at_directive(self):
        start = self.mark()
        self.advance()  # @
        name_start = self.pos
        while _ident_char(self.peek()):
            self.advance()
        name = self.src[name_start:self.pos]
        if name != "spec":
            raise LexError(f"unknown directive @{name}", self.span_from(start))
        self.emit("atspec", "@spec", start)

    def lex_ident(self):
        start = self.mark()
        while _ident_char(self.peek()):
            self.advance()
        name = self.src[start[0]:self.pos]
        kind = "keyword" if name in KEYWORDS else "ident"
        self.emit(kind, name, start)

    def lex_symbol(self) -> bool:
        for punct in PUNCTUATION:
            if self.src.startswith(punct, self.pos):
                start = self.mark()
                self.advance(len(punct))
                if punct in _OPENERS:
                    self.depth += 1
                elif punct in _CLOSERS:
                    self.depth = max(0, self.depth - 1)
                self.emit("punct", punct, start)
                return True
        for op in OPERATORS:
            if self.src.startswith(op, self.pos):
                start = self.mark()
                self.advance(len(op))
                self.emit("op", op, start)
                return True
        return False


def tokenize(source: str) -> list[Token]:
    """Tokenize source text; comments and whitespace are dropped, newlines
    that separate statements come through as `newline` tokens."""
    return _Lexer(source).run()
