"""Recursive-descent parser for the Elixir fragment, with one precedence-climbing
loop for the operators.

Precedence, tightest first: postfix map access; unary `-`/`not`; then the
`_BINARY` levels `*` `/` (6); binary `+` `-` (5); `++` `--` `<>` (4, right
associative); comparisons (3); `and` (2); `or` (1); `=` (0, right associative),
loosest as Elixir's own `match_op`. No backtracking: each token, an index into
the lexer's columns, is taken once. The left side of `=`, parsed as an
expression, converts by `to_pattern`; so does a clause body statement that
stops at `->`, as the next clause's head.
"""
from __future__ import annotations

from collections.abc import Callable
from contextlib import suppress
from functools import partial

from . import syntax
from .diagnostics import CheckFailure, E_PARSE
from .lexer import Tokens, tokenize
from .syntax import (
    AnonFn, AtomLit, BinOp, BoolLit, Call, Case, CaseClause, Cond, CondClause,
    ConsExpr, ConsPattern, ElistExpr, ElistPattern, FloatLit, FunctionDef, If,
    IntLit, MapAccess, MapExpr, MapPattern, Match, ModuleDef, PinPattern,
    Program, Seq, Span, SpecDecl, StringLit, TupleExpr, TuplePattern, UnaryOp,
    Var, VarCall, VarPattern, Wildcard,
)
from .types import (
    AtomLiteralType, BASE_TYPE_NAMES, FunctionType, ListType, MapKey, MapType,
    TupleType, Type,
)


class ParseError(CheckFailure):
    def __init__(self, message: str, span: Span):
        super().__init__(E_PARSE, message, span)
        self.span = span  # whole, since no program holds the source yet


# Binary operator lexeme -> (precedence, right associative); higher binds
# tighter. Only `op` and `keyword` tokens are operators.
_BINARY = {
    "=": (0, True), "or": (1, False), "and": (2, False),
    **dict.fromkeys(("<", ">", "<=", ">=", "==", "!=", "===", "!=="), (3, False)),
    **dict.fromkeys(("++", "--", "<>"), (4, True)),
    "+": (5, False), "-": (5, False), "*": (6, False), "/": (6, False),
}
_PREFIX = 7  # a unary operand binds tighter than every binary operator
_OPERATOR_KINDS = ("op", "keyword")
_UNARY = ("-", "not")  # `-` is only ever an `op`, `not` only a `keyword`
# Token kinds whose primaries `_PRIMARY` keys by lexeme rather than by kind.
_SYMBOL_KINDS = ("punct", "keyword", "op")
_DECL_STARTS = {"defmodule", "def"}
_NOT_A_PATTERN = "left-hand side of '=' is not a valid pattern"
# Deepest nesting of list, tuple, map and function types in a `@spec`.
MAX_TYPE_DEPTH = 100
# Deepest nesting of expressions and patterns: an operand, item, argument,
# body or group is a level.
MAX_NESTING = 256
# The interpreter's recursion limit that both bounds need; `cli.run` raises
# the limit to it. An expression level costs the parser and the checker at
# most three Python frames each, and a type level costs the type relations,
# equality and `str` at most five (a map type's `str`). One expression nests
# its type at most MAX_NESTING levels around a `@spec` type, so no walk over
# it needs more than five frames a level over both bounds; 200 more cover the
# frames beneath. A variable can carry such a type into another expression,
# past this bound: `check_programs` reports the item that runs out of stack
# as "nesting too deep".
RECURSION_LIMIT = 5 * (MAX_NESTING + MAX_TYPE_DEPTH) + 200


class Parser:
    def __init__(self, tokens: Tokens):
        self.kinds, self.lexemes = tokens.kinds, tokens.lexemes
        self.starts, self.ends, self.source = tokens.starts, tokens.ends, tokens.source
        self.pos = 0
        self.depth = 0  # nesting levels open
        self.pattern_only = False
        self.loose: list[int] = []  # `_` and `^` of unclaimed pattern nodes, in order
        self.next_head = None

    # --- token plumbing; the hottest paths test the columns inline, not through `at` ---

    def take(self) -> int:
        i = self.pos
        if self.kinds[i] != "eof":
            self.pos = i + 1
        return i

    def span(self, first: int, last: int) -> Span:
        return Span(self.starts[first], self.ends[last], self.source)

    def unexpected(self, i: int, expected: str) -> ParseError:
        """The error for token `i` where `expected` should stand, naming the token as written."""
        found = self.source.text[self.starts[i]:self.ends[i]] or self.kinds[i]
        return ParseError(f"expected {expected}, found {found!r}", self.span(i, i))

    def at(self, kind: str, lexeme: str | None = None) -> bool:
        return self.kinds[self.pos] == kind and (lexeme is None or self.lexemes[self.pos] == lexeme)

    def expect(self, kind: str, lexeme: str | None = None, what: str | None = None) -> int:
        if self.kinds[self.pos] != kind or lexeme is not None and self.lexemes[self.pos] != lexeme:
            raise self.unexpected(self.pos, repr(what or (lexeme if lexeme is not None else kind)))
        return self.take()

    def at_separator(self, back: int = 0) -> bool:
        i = self.pos - back
        return self.kinds[i] == "newline" or self.kinds[i] == "punct" and self.lexemes[i] == ";"

    def skip_separators(self):
        while self.at_separator():
            self.take()

    # --- shared shapes ---

    def comma_list(self, parse_item: Callable, close: str) -> list:
        """`item, item, ...` up to and including the `close` punctuation."""
        items = []
        if not self.at("punct", close):
            items.append(parse_item())
            while self.at("punct", ","):
                self.take()
                items.append(parse_item())
        self.expect("punct", close)
        return items

    def map_entries(self, start: int, parse_value: Callable, what: str) -> tuple[list, int]:
        """The `key => value, ...}` after token `start`, with distinct keys, and
        the closing brace's token. `comma_list`'s loop, written out to save frames."""
        entries = []
        if not self.at("punct", "}"):
            while True:
                key = self.parse_map_key()
                self.expect("op", "=>")
                entries.append((key, parse_value()))
                if not self.at("punct", ","):
                    break
                self.take()
        close = self.expect("punct", "}")
        if len({key for key, _ in entries}) != len(entries):
            raise ParseError(f"duplicate keys in {what}", self.span(start, close))
        return entries, close

    def settle(self, expr: syntax.Expr | None = None) -> syntax.Expr:
        """`expr`, a finished statement: the first unclaimed `_` or `^x` fails."""
        if self.loose:
            i = self.loose[0]
            raise ParseError("wildcard '_' is not an expression" if self.lexemes[i] == "_"
                             else "expected an expression, found '^'", self.span(i, i))
        return expr

    def sequence(self, stop: Callable[[], bool] | None = None,
                 head_of: Callable | None = None) -> syntax.Expr:
        """Statements folded into a sequence, up to `eof`, `end`, `stop()` after
        a separator, or a later statement that stops at `->` and that
        `head_of(statement, its first token)` makes `self.next_head`."""
        self.skip_separators()
        exprs = [self.settle(self.parse_expr())]
        while self.at_separator():
            self.skip_separators()
            if self.at("eof") or self.at("keyword", "end") or (stop is not None and stop()):
                break
            start = self.pos
            expr = self.parse_expr()
            if head_of is not None and self.at("op", "->"):
                with suppress(ParseError):  # else a body statement, and its `->` the error
                    self.next_head = head_of(expr, start)
                    return _fold_sequence(exprs)
            exprs.append(self.settle(expr))
        self.next_head = None
        return _fold_sequence(exprs)

    def parse_clauses(self, start: int) -> Case | Cond:
        """`case subject do head -> body ... end` or `cond do ... end`, with a
        clause or more; each later head ends the body before it (`sequence`)."""
        case = self.lexemes[start] == "case"
        subject = self.parse_expr() if case else None
        clause_type = CaseClause if case else CondClause
        head_of = self.to_pattern if case else lambda expr, _: self.settle(expr)
        self.expect("keyword", "do")
        clauses = []
        head = None
        while True:
            if head is None:
                self.skip_separators()
                if self.at("keyword", "end"):
                    break
                head = self.pattern() if case else self.settle(self.parse_expr())
            self.expect("op", "->")
            body = self.sequence(head_of=head_of)
            clauses.append(clause_type(head, body, start=head.start, end=body.end))
            head = self.next_head
        if not clauses:
            raise ParseError(f"{self.lexemes[start]} expression needs at least one clause",
                             self.span(self.pos, self.pos))
        first, last = self.starts[start], self.ends[self.expect("keyword", "end")]
        return (Case(subject, clauses, start=first, end=last) if case
                else Cond(clauses, start=first, end=last))

    def to_pattern(self, expr: syntax.Expr, start: int) -> syntax.Pattern:
        """`expr`, parsed from token `start` on, as a pattern, which claims the
        `_` and `^x` in it. ParseError if it is no pattern."""
        if self.pos - start > 2 and any(self.lexemes[i] == "(" and self.kinds[i] == "punct"
                                        for i in range(start, self.pos)):
            raise self.not_a_pattern(expr)  # a group, which the AST does not show
        pattern = self.as_pattern(expr, expr)
        while self.loose and self.loose[-1] >= start:
            self.loose.pop()
        return pattern

    def pattern(self) -> syntax.Pattern:
        """A `def` or `fn` parameter or first `case` head, where only a pattern may stand."""
        self.pattern_only = True
        expr = self.parse_expr()
        self.pattern_only = False
        return self.as_pattern(expr, expr)

    def as_pattern(self, expr, whole: syntax.Expr) -> syntax.Pattern:
        """`expr`, part of `whole`, as a pattern: literals, `_` and `^x` already
        are patterns, and variables and data constructors convert."""
        kind = type(expr)
        if kind is Var:
            return VarPattern(expr.name, start=expr.start, end=expr.end)
        if kind is TupleExpr:
            return TuplePattern([self.as_pattern(item, whole) for item in expr.items],
                                start=expr.start, end=expr.end)
        if kind is ConsExpr:
            return ConsPattern(self.as_pattern(expr.head, whole), self.as_pattern(expr.tail, whole),
                               start=expr.start, end=expr.end)
        if kind is MapExpr:
            return MapPattern([(k, self.as_pattern(v, whole)) for k, v in expr.entries],
                              start=expr.start, end=expr.end)
        if kind is ElistExpr:
            return ElistPattern(start=expr.start, end=expr.end)
        if isinstance(expr, syntax.Pattern):
            return expr
        raise self.not_a_pattern(whole)

    def not_a_pattern(self, expr: syntax.Expr) -> ParseError:
        return ParseError(_NOT_A_PATTERN, Span(expr.start, expr.end, self.source))

    # --- programs and declarations ---

    def parse_items(self, toplevel: bool) -> list[syntax.Node]:
        items: list[syntax.Node] = []
        while True:
            self.skip_separators()
            if self.at("eof") or self.at("keyword", "end"):
                if toplevel and self.at("keyword", "end"):
                    raise ParseError("unexpected 'end'", self.span(self.pos, self.pos))
                break
            if self.at("keyword", "defmodule"):
                items.append(self.parse_module())
            elif self.at("keyword", "def"):
                items.append(self.parse_def())
            elif self.at("atspec"):
                items.append(self.parse_signature())
            else:  # statements up to a declaration, ended by a separator, `end` or `eof`
                items.append(self.sequence(self.at_declaration))
                if not (self.at_separator(back=1) or self.at("eof") or self.at("keyword", "end")):
                    raise self.unexpected(self.pos, "a newline or ';'")
        return items

    def parse_module(self) -> ModuleDef:
        start = self.expect("keyword", "defmodule")
        name = self.lexemes[self.expect("ident", what="module name")]
        self.expect("keyword", "do")
        body = self.parse_items(toplevel=False)
        return ModuleDef(name, body, start=self.starts[start],
                         end=self.ends[self.expect("keyword", "end")])

    def parse_def(self) -> FunctionDef:
        start = self.expect("keyword", "def")
        name = self.lexemes[self.expect("ident", what="function name")]
        self.expect("punct", "(")
        params = self.comma_list(self.pattern, ")")
        self.expect("keyword", "do")
        body = self.sequence()
        return FunctionDef(name, params, body, start=self.starts[start],
                           end=self.ends[self.expect("keyword", "end")])

    def parse_signature(self) -> SpecDecl:
        start = self.expect("atspec")
        name = self.lexemes[self.expect("ident", what="function name")]
        self.expect("punct", "(")
        params = self.comma_list(self.parse_type, ")")
        self.expect("op", "::")
        result = self.parse_type()
        return SpecDecl(name, params, result, start=self.starts[start], end=self.ends[self.pos - 1])

    def at_declaration(self) -> bool:
        kind = self.kinds[self.pos]
        return kind == "keyword" and self.lexemes[self.pos] in _DECL_STARTS or kind == "atspec"

    # --- types ---

    def parse_type(self, depth: int = 0) -> Type:
        """A type inside `depth` enclosing list, tuple, map or function types."""
        tok = self.take()
        kind, lexeme = self.kinds[tok], self.lexemes[tok]
        if kind == "ident":
            base = BASE_TYPE_NAMES.get(lexeme)
            if base is None:
                raise ParseError(f"unknown type name {lexeme!r}", self.span(tok, tok))
            return base
        if kind == "atom":
            return AtomLiteralType(lexeme)
        if kind != "punct" or lexeme not in ("[", "{", "%{", "("):
            raise self.unexpected(tok, "a type")
        if depth == MAX_TYPE_DEPTH:
            raise ParseError("nesting too deep", self.span(tok, tok))
        inner = partial(self.parse_type, depth + 1)
        if lexeme == "%{":
            return MapType(self.map_entries(tok, inner, "map type")[0])
        if lexeme == "[":
            element = inner()
            self.expect("punct", "]")
            return ListType(element)
        if lexeme == "{":
            return TupleType(tuple(self.comma_list(inner, "}")))
        params = self.comma_list(inner, ")")
        self.expect("op", "->")
        return FunctionType(tuple(params), inner())

    def parse_map_key(self) -> MapKey:
        tok = self.take()
        if self.kinds[tok] == "atom":
            return MapKey.atom(self.lexemes[tok])
        if self.kinds[tok] == "int":
            return MapKey.integer(self.int_value(tok))
        if self.kinds[tok] == "keyword" and self.lexemes[tok] in ("true", "false"):
            return MapKey.boolean(self.lexemes[tok] == "true")
        raise ParseError("expected a map key (atom, boolean or integer)", self.span(tok, tok))

    def int_value(self, tok: int) -> int:
        try:
            return int(self.lexemes[tok])
        except ValueError:  # past the digit limit of int() on text
            raise ParseError("integer literal is too long", self.span(tok, tok)) from None

    # --- expressions ---

    def parse_expr(self, min_prec: int = 0) -> syntax.Expr:
        """Precedence climbing over `_BINARY`: operands bind at least
        `min_prec`. In `pattern_only` mode, one primary that may be a pattern."""
        start = self.pos
        tok = self.take()
        depth = self.depth
        if depth == MAX_NESTING:
            raise ParseError("nesting too deep", self.span(tok, tok))
        self.depth = depth + 1
        kinds, lexemes = self.kinds, self.lexemes
        kind, lexeme = kinds[tok], lexemes[tok]
        if lexeme in _UNARY and kind in _OPERATOR_KINDS and not self.pattern_only:
            operand = self.parse_expr(_PREFIX)
            left = UnaryOp(lexeme, operand, start=self.starts[tok], end=operand.end)
        else:
            table = _PATTERN_PRIMARY if self.pattern_only else _PRIMARY
            parse = table.get(lexeme if kind in _SYMBOL_KINDS else kind)
            if parse is None:
                raise self.unexpected(tok, "a pattern" if self.pattern_only else "an expression")
            left = parse(self, tok)
            while lexemes[self.pos] == "[" and kinds[self.pos] == "punct" and not self.pattern_only:
                self.take()
                key = self.parse_map_key()
                left = MapAccess(left, key, start=left.start,
                                 end=self.ends[self.expect("punct", "]")])
        while True:
            tok = self.pos
            level = _BINARY.get(lexemes[tok]) if kinds[tok] in _OPERATOR_KINDS else None
            if level is None or level[0] < min_prec or self.pattern_only:
                break
            self.take()
            prec, right_assoc = level
            if prec == 0:
                pattern = self.to_pattern(left, start)
                value = self.parse_expr(prec)
                left = Match(pattern, value, start=pattern.start, end=value.end)
            else:
                right = self.parse_expr(prec if right_assoc else prec + 1)
                left = BinOp(lexemes[tok], left, right, start=left.start, end=right.end)
        self.depth = depth
        return left

    # --- primaries, each given the token that starts it, taken ---

    def parse_name(self, first: int) -> syntax.Expr:
        """`_`, a variable, or a call `f(...)`, `M.f(...)` or `x.(...)`."""
        name = self.lexemes[first]
        if name == "_":
            if not self.pattern_only:
                self.loose.append(first)
            return Wildcard(start=self.starts[first], end=self.ends[first])
        follow = self.lexemes[self.pos]
        if self.pattern_only or follow not in ("(", ".") or self.kinds[self.pos] == "string":
            return Var(name, start=self.starts[first], end=self.ends[first])
        path = [name]
        while self.at("op", "."):
            self.take()
            if len(path) == 1 and self.at("punct", "("):
                break
            path.append(self.lexemes[self.expect("ident", what="name after '.'")])
        self.expect("punct", "(")
        args = self.comma_list(self.parse_expr, ")")
        start, end = self.starts[first], self.ends[self.pos - 1]
        if follow == "." and len(path) == 1:
            return VarCall(name, args, start=start, end=end)
        return Call(tuple(path[:-1]), path[-1], args, start=start, end=end)

    def parse_pin(self, caret: int) -> syntax.Pattern:
        if not self.pattern_only:
            if not self.at("ident"):
                raise ParseError("expected an expression, found '^'", self.span(caret, caret))
            self.loose.append(caret)
        name = self.expect("ident", what="variable after '^'")
        return PinPattern(self.lexemes[name], start=self.starts[caret], end=self.ends[name])

    def parse_group(self, start: int) -> syntax.Expr:
        exprs = [self.parse_expr()]
        while self.at("punct", ";"):
            self.take()
            exprs.append(self.parse_expr())
        self.expect("punct", ")")
        return _fold_sequence(exprs)

    def parse_list(self, start: int) -> syntax.Expr:
        if self.at("punct", "]"):
            return ElistExpr(start=self.starts[start], end=self.ends[self.take()])
        head = self.parse_expr()
        self.expect("op", "|")
        tail = self.parse_expr()
        return ConsExpr(head, tail, start=self.starts[start],
                        end=self.ends[self.expect("punct", "]")])

    def parse_map(self, start: int) -> MapExpr:
        what = "map pattern" if self.pattern_only else "map literal"
        entries, close = self.map_entries(start, self.parse_expr, what)
        return MapExpr(entries, start=self.starts[start], end=self.ends[close])

    def parse_if(self, start: int) -> If:
        cond = self.parse_expr()
        self.expect("keyword", "do")
        then = self.sequence(lambda: self.at("keyword", "else"))
        if self.at("keyword", "else"):
            self.take()
            orelse = self.sequence()
        else:
            # An else-less `if` is :nil when false; this branch spans the `if`.
            orelse = AtomLit("nil", start=self.starts[start], end=self.ends[start])
        return If(cond, then, orelse, start=self.starts[start],
                  end=self.ends[self.expect("keyword", "end")])

    def parse_fn(self, start: int) -> AnonFn:
        self.expect("punct", "(")
        params = self.comma_list(self.pattern, ")")
        self.expect("op", "->")
        body = self.sequence()
        return AnonFn(params, body, start=self.starts[start],
                      end=self.ends[self.expect("keyword", "end")])


# Primaries by their first token's kind, or lexeme; a pattern is one of the first.
_PATTERN_PRIMARY = {
    "int": lambda p, tok: IntLit(p.int_value(tok), start=p.starts[tok], end=p.ends[tok]),
    "float": lambda p, tok: FloatLit(float(p.lexemes[tok]), start=p.starts[tok], end=p.ends[tok]),
    "string": lambda p, tok: StringLit(p.lexemes[tok], start=p.starts[tok], end=p.ends[tok]),
    "atom": lambda p, tok: AtomLit(p.lexemes[tok], start=p.starts[tok], end=p.ends[tok]),
    "true": lambda p, tok: BoolLit(True, start=p.starts[tok], end=p.ends[tok]),
    "false": lambda p, tok: BoolLit(False, start=p.starts[tok], end=p.ends[tok]),
    "ident": Parser.parse_name, "^": Parser.parse_pin,
    "{": lambda p, tok: TupleExpr(p.comma_list(p.parse_expr, "}"),
                                  start=p.starts[tok], end=p.ends[p.pos - 1]),
    "[": Parser.parse_list, "%{": Parser.parse_map,
}
_PRIMARY = {
    **_PATTERN_PRIMARY, "(": Parser.parse_group, "if": Parser.parse_if,
    "case": Parser.parse_clauses, "cond": Parser.parse_clauses, "fn": Parser.parse_fn,
}


def _fold_sequence(exprs: list[syntax.Expr]) -> syntax.Expr:
    result = exprs[-1]
    for expr in reversed(exprs[:-1]):
        result = Seq(expr, result, start=expr.start, end=result.end)
    return result


def parse_program(source, path: str = "<input>") -> Program:
    """Parse a whole program from source text or its `Tokens`. An unclaimed
    `_` or `^x` fails first; on a stack too full for `MAX_NESTING`, the
    recursion limit is "nesting too deep"."""
    parser = Parser(tokenize(source) if isinstance(source, str) else source)
    try:
        items = parser.parse_items(toplevel=True)
    except RecursionError:
        parser.settle()
        raise ParseError("nesting too deep", parser.span(parser.pos, parser.pos)) from None
    except ParseError:
        parser.settle()
        raise
    return Program(items, path=path, source=parser.source, end=len(parser.source.text))
