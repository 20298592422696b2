"""Recursive-descent parser for the Elixir fragment, with one precedence-climbing
loop for the operators.

Precedence, tightest first: postfix map access; unary `-`/`not`; then the
`_BINARY` levels `*` `/` (6); binary `+` `-` (5); `++` `--` `<>` (4, right
associative); comparisons (3); `and` (2); `or` (1); `=` (0, right associative),
loosest as Elixir's own `match_op`. No backtracking: each token is taken once.
The left side of `=`, parsed as an expression, converts by `to_pattern`; so
does a clause body statement that stops at `->`, as the next clause's head.
"""
from __future__ import annotations

from contextlib import contextmanager, suppress
from functools import partial
from typing import Callable

from . import syntax
from .lexer import Token, tokenize
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


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span


# Binary operator lexeme -> (precedence, right associative); higher binds
# tighter. Only `op` and `keyword` tokens are operators.
_BINARY = {
    "=": (0, True),
    "or": (1, False),
    "and": (2, False),
    **dict.fromkeys(("<", ">", "<=", ">=", "==", "!=", "===", "!=="), (3, False)),
    **dict.fromkeys(("++", "--", "<>"), (4, True)),
    "+": (5, False), "-": (5, False),
    "*": (6, False), "/": (6, False),
}
_PREFIX = 7  # a unary operand binds tighter than every binary operator
_OPERATOR_KINDS = ("op", "keyword")
_UNARY = ("-", "not")  # `-` is only ever an `op`, `not` only a `keyword`
# Token kinds whose primaries `_PRIMARY` keys by lexeme rather than by kind.
_SYMBOL_KINDS = ("punct", "keyword", "op")
_DECL_STARTS = {"defmodule", "def"}
_NOT_A_PATTERN = "left-hand side of '=' is not a valid pattern"
# Deepest nesting of list, tuple, map and function types in a `@spec`; the
# type relations recurse once per level.
MAX_TYPE_DEPTH = 100
# Deepest nesting of expressions and patterns: an operand, item, argument,
# body, group or map access is a level. A level costs the parser and the
# checker at most three Python frames each, within the default limit of 1,000.
MAX_NESTING = 256


class Parser:
    def __init__(self, tokens: list[Token], path: str = "<input>"):
        self.tokens = tokens
        self.pos = 0
        self.path = path
        self.depth = 0  # nesting levels open
        self.pattern_only = False
        self.loose: list[Token] = []  # `_` and `^` of unclaimed pattern nodes, in order
        self.next_head = None

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def prev_span(self) -> Span:
        return self.tokens[max(0, self.pos - 1)]

    def at(self, kind: str, lexeme: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (lexeme is None or tok.lexeme == lexeme)

    def expect(self, kind: str, lexeme: str | None = None, what: str | None = None) -> Token:
        if not self.at(kind, lexeme):
            expected = what or (lexeme if lexeme is not None else kind)
            found = self.peek().lexeme or self.peek().kind
            raise ParseError(f"expected {expected!r}, found {found!r}", self.peek())
        return self.take()

    def at_separator(self) -> bool:
        return self.at("newline") or self.at("punct", ";")

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

    def map_entries(self, start: Token, parse_value: Callable, what: str) -> tuple[list, Span]:
        """The `key => value, ...}` after `start`, with distinct keys, and the
        braces' span. `comma_list`'s loop, written out to save frames."""
        entries = []
        if not self.at("punct", "}"):
            while True:
                key = self.parse_map_key()
                self.expect("op", "=>")
                entries.append((key, parse_value()))
                if not self.at("punct", ","):
                    break
                self.take()
        span = start.cover(self.expect("punct", "}"))
        if len({key for key, _ in entries}) != len(entries):
            raise ParseError(f"duplicate keys in {what}", span)
        return entries, span

    def settle(self, expr: syntax.Expr | None = None) -> syntax.Expr:
        """`expr`, a finished statement: the first unclaimed `_` or `^x` fails."""
        if self.loose:
            tok = self.loose[0]
            raise ParseError("wildcard '_' is not an expression" if tok.lexeme == "_"
                             else "expected an expression, found '^'", tok)
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

    def parse_clauses(self, start: Token) -> Case | Cond:
        """`case subject do head -> body ... end` or `cond do ... end`, with a
        clause or more; each later head ends the body before it (`sequence`)."""
        case = start.lexeme == "case"
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
            clauses.append(clause_type(head, body, span=head.span.cover(body.span)))
            head = self.next_head
        if not clauses:
            raise ParseError(f"{start.lexeme} expression needs at least one clause", self.peek())
        span = start.cover(self.expect("keyword", "end"))
        return Case(subject, clauses, span=span) if case else Cond(clauses, span=span)

    def to_pattern(self, expr: syntax.Expr, start: int) -> syntax.Pattern:
        """`expr`, parsed from token `start` on, as a pattern, which claims the
        `_` and `^x` in it. ParseError if it is no pattern."""
        if self.pos - start > 2 and any(
                tok.lexeme == "(" and tok.kind == "punct" for tok in self.tokens[start:self.pos]):
            raise ParseError(_NOT_A_PATTERN, expr.span)  # a group, which the AST does not show
        pattern = _pattern(expr, expr)
        offset = self.tokens[start].start
        while self.loose and self.loose[-1].start >= offset:
            self.loose.pop()
        return pattern

    def pattern(self) -> syntax.Pattern:
        """A `def` or `fn` parameter or first `case` head, where only a pattern may stand."""
        self.pattern_only = True
        expr = self.parse_expr()
        self.pattern_only = False
        return _pattern(expr, expr)

    # --- programs and declarations ---

    def parse_program(self) -> Program:
        start = self.peek()
        items = self.parse_items(toplevel=True)
        span = start if not items else items[0].span.cover(self.prev_span())
        return Program(items, path=self.path, span=span)

    def parse_items(self, toplevel: bool) -> list[syntax.Node]:
        items: list[syntax.Node] = []
        while True:
            self.skip_separators()
            if self.at("eof") or self.at("keyword", "end"):
                if toplevel and self.at("keyword", "end"):
                    raise ParseError("unexpected 'end'", self.peek())
                break
            if self.at("keyword", "defmodule"):
                items.append(self.parse_module())
            elif self.at("keyword", "def"):
                items.append(self.parse_def())
            elif self.at("atspec"):
                items.append(self.parse_spec_decl())
            else:
                items.append(self.sequence(self.at_declaration))  # statements up to a declaration
        return items

    def parse_module(self) -> ModuleDef:
        start = self.expect("keyword", "defmodule")
        name = self.expect("ident", what="module name").lexeme
        self.expect("keyword", "do")
        body = self.parse_items(toplevel=False)
        return ModuleDef(name, body, span=start.cover(self.expect("keyword", "end")))

    def parse_def(self) -> FunctionDef:
        start = self.expect("keyword", "def")
        name = self.expect("ident", what="function name").lexeme
        self.expect("punct", "(")
        params = self.comma_list(self.pattern, ")")
        self.expect("keyword", "do")
        body = self.sequence()
        return FunctionDef(name, params, body, span=start.cover(self.expect("keyword", "end")))

    def parse_spec_decl(self) -> SpecDecl:
        start = self.expect("atspec")
        name = self.expect("ident", what="function name").lexeme
        self.expect("punct", "(")
        params = self.comma_list(self.parse_type, ")")
        self.expect("op", "::")
        result = self.parse_type()
        return SpecDecl(name, params, result, span=start.cover(self.prev_span()))

    def at_declaration(self) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.lexeme in _DECL_STARTS or tok.kind == "atspec"

    # --- types ---

    def parse_type(self, depth: int = 0) -> Type:
        """A type inside `depth` enclosing list, tuple, map or function types."""
        tok = self.take()
        if tok.kind == "ident":
            base = BASE_TYPE_NAMES.get(tok.lexeme)
            if base is None:
                raise ParseError(f"unknown type name {tok.lexeme!r}", tok)
            return base
        if tok.kind == "atom":
            return AtomLiteralType(tok.lexeme)
        if tok.kind != "punct" or tok.lexeme not in ("[", "{", "%{", "("):
            raise ParseError(f"expected a type, found {tok.lexeme!r}", tok)
        if depth == MAX_TYPE_DEPTH:
            raise ParseError("nesting too deep", tok)
        inner = partial(self.parse_type, depth + 1)
        if tok.lexeme == "%{":
            return MapType(self.map_entries(tok, inner, "map type")[0])
        if tok.lexeme == "[":
            element = inner()
            self.expect("punct", "]")
            return ListType(element)
        if tok.lexeme == "{":
            return TupleType(tuple(self.comma_list(inner, "}")))
        params = self.comma_list(inner, ")")
        self.expect("op", "->")
        return FunctionType(tuple(params), inner())

    def parse_map_key(self) -> MapKey:
        tok = self.take()
        if tok.kind == "atom":
            return MapKey.atom(tok.lexeme)
        if tok.kind == "int":
            return MapKey.integer(_int_value(tok))
        if tok.kind == "keyword" and tok.lexeme in ("true", "false"):
            return MapKey.boolean(tok.lexeme == "true")
        raise ParseError("expected a map key (atom, boolean or integer)", tok)

    # --- expressions ---

    def parse_expr(self, min_prec: int = 0) -> syntax.Expr:
        """Precedence climbing over `_BINARY`: operands bind at least
        `min_prec`. In `pattern_only` mode, one primary that may be a pattern."""
        start = self.pos
        tok = self.take()
        depth = self.depth
        if depth == MAX_NESTING:
            raise ParseError("nesting too deep", tok)
        self.depth = depth + 1
        if tok.lexeme in _UNARY and tok.kind in _OPERATOR_KINDS and not self.pattern_only:
            operand = self.parse_expr(_PREFIX)
            left = UnaryOp(tok.lexeme, operand, span=tok.cover(operand.span))
        else:
            table = _PATTERN_PRIMARY if self.pattern_only else _PRIMARY
            parse = table.get(tok.lexeme if tok.kind in _SYMBOL_KINDS else tok.kind)
            if parse is None:
                what = "a pattern" if self.pattern_only else "an expression"
                raise ParseError(f"expected {what}, found {tok.lexeme or tok.kind!r}", tok)
            left = parse(self, tok)
            while self.at("punct", "[") and not self.pattern_only:  # each access is a level
                bracket = self.take()
                if self.depth == MAX_NESTING:
                    raise ParseError("nesting too deep", bracket)
                self.depth += 1
                key = self.parse_map_key()
                end = self.expect("punct", "]")
                left = MapAccess(left, key, span=left.span.cover(end))
        while True:
            tok = self.tokens[self.pos]
            level = _BINARY.get(tok.lexeme) if tok.kind in _OPERATOR_KINDS else None
            if level is None or level[0] < min_prec or self.pattern_only:
                break
            self.take()
            prec, right_assoc = level
            if prec == 0:
                pattern = self.to_pattern(left, start)
                value = self.parse_expr(prec)
                left = Match(pattern, value, span=pattern.span.cover(value.span))
            else:
                right = self.parse_expr(prec if right_assoc else prec + 1)
                left = BinOp(tok.lexeme, left, right, span=left.span.cover(right.span))
        self.depth = depth
        return left

    # --- primaries, each given the token that starts it, taken ---

    def parse_name(self, first: Token) -> syntax.Expr:
        """`_`, a variable, or a call `f(...)`, `M.f(...)` or `x.(...)`."""
        if first.lexeme == "_":
            if not self.pattern_only:
                self.loose.append(first)
            return Wildcard(span=first)
        follow = self.peek()
        if self.pattern_only or follow.lexeme not in ("(", ".") or follow.kind == "string":
            return Var(first.lexeme, span=first)
        path = [first.lexeme]
        while self.at("op", "."):
            self.take()
            if len(path) == 1 and self.at("punct", "("):
                break
            path.append(self.expect("ident", what="name after '.'").lexeme)
        self.expect("punct", "(")
        args = self.comma_list(self.parse_expr, ")")
        span = first.cover(self.prev_span())
        if follow.lexeme == "." and len(path) == 1:
            return VarCall(first.lexeme, args, span=span)
        return Call(tuple(path[:-1]), path[-1], args, span=span)

    def parse_pin(self, caret: Token) -> syntax.Pattern:
        if not self.pattern_only:
            if not self.at("ident"):
                raise ParseError("expected an expression, found '^'", caret)
            self.loose.append(caret)
        name = self.expect("ident", what="variable after '^'")
        return PinPattern(name.lexeme, span=caret.cover(name))

    def parse_group(self, start: Token) -> syntax.Expr:
        exprs = [self.parse_expr()]
        while self.at("punct", ";"):
            self.take()
            exprs.append(self.parse_expr())
        self.expect("punct", ")")
        return _fold_sequence(exprs)

    def parse_list(self, start: Token) -> syntax.Expr:
        if self.at("punct", "]"):
            return ElistExpr(span=start.cover(self.take()))
        head = self.parse_expr()
        self.expect("op", "|")
        tail = self.parse_expr()
        return ConsExpr(head, tail, span=start.cover(self.expect("punct", "]")))

    def parse_map(self, start: Token) -> MapExpr:
        what = "map pattern" if self.pattern_only else "map literal"
        entries, span = self.map_entries(start, self.parse_expr, what)
        return MapExpr(entries, span=span)

    def parse_if(self, start: Token) -> If:
        cond = self.parse_expr()
        self.expect("keyword", "do")
        then = self.sequence(lambda: self.at("keyword", "else"))
        if self.at("keyword", "else"):
            self.take()
            orelse = self.sequence()
        else:
            # An else-less `if` is :nil when false; this branch spans the `if`.
            orelse = AtomLit("nil", span=start)
        return If(cond, then, orelse, span=start.cover(self.expect("keyword", "end")))

    def parse_fn(self, start: Token) -> AnonFn:
        self.expect("punct", "(")
        params = self.comma_list(self.pattern, ")")
        self.expect("op", "->")
        body = self.sequence()
        return AnonFn(params, body, span=start.cover(self.expect("keyword", "end")))


# Primaries by their first token's kind, or lexeme; a pattern is one of the first.
_PATTERN_PRIMARY = {
    "int": lambda parser, tok: IntLit(_int_value(tok), span=tok),
    "float": lambda parser, tok: FloatLit(float(tok.lexeme), span=tok),
    "string": lambda parser, tok: StringLit(tok.lexeme, span=tok),
    "atom": lambda parser, tok: AtomLit(tok.lexeme, span=tok),
    "true": lambda parser, tok: BoolLit(True, span=tok),
    "false": lambda parser, tok: BoolLit(False, span=tok),
    "ident": Parser.parse_name, "^": Parser.parse_pin,
    "{": lambda parser, tok: TupleExpr(parser.comma_list(parser.parse_expr, "}"),
                                       span=tok.cover(parser.prev_span())),
    "[": Parser.parse_list, "%{": Parser.parse_map,
}
_PRIMARY = {
    **_PATTERN_PRIMARY, "(": Parser.parse_group, "if": Parser.parse_if,
    "case": Parser.parse_clauses, "cond": Parser.parse_clauses, "fn": Parser.parse_fn,
}


def _pattern(expr, whole: syntax.Expr) -> syntax.Pattern:
    """`expr`, part of `whole`, as a pattern: literals, `_` and `^x` already
    are patterns, and variables and data constructors convert."""
    kind = type(expr)
    if kind is Var:
        return VarPattern(expr.name, span=expr.span)
    if kind is TupleExpr:
        return TuplePattern([_pattern(item, whole) for item in expr.items], span=expr.span)
    if kind is ConsExpr:
        return ConsPattern(_pattern(expr.head, whole), _pattern(expr.tail, whole), span=expr.span)
    if kind is MapExpr:
        return MapPattern([(k, _pattern(v, whole)) for k, v in expr.entries], span=expr.span)
    if kind is ElistExpr:
        return ElistPattern(span=expr.span)
    if isinstance(expr, syntax.Pattern):
        return expr
    raise ParseError(_NOT_A_PATTERN, whole.span)


def _int_value(tok: Token) -> int:
    try:
        return int(tok.lexeme)
    except ValueError:  # past the digit limit of int() on text
        raise ParseError("integer literal is too long", tok) from None


def _fold_sequence(exprs: list[syntax.Expr]) -> syntax.Expr:
    result = exprs[-1]
    for expr in reversed(exprs[:-1]):
        result = Seq(expr, result, span=expr.span.cover(result.span))
    return result


@contextmanager
def _whole(source, path: str = "<input>"):
    """A parser over all of `source`, text or tokens, that must end at `eof`. An
    unclaimed `_` or `^x` fails first. On a stack too full for `MAX_NESTING`,
    the recursion limit is "nesting too deep"; the block adds no frame."""
    parser = Parser(source if isinstance(source, list) else tokenize(source), path)
    try:
        yield parser
    except RecursionError:
        parser.settle()
        raise ParseError("nesting too deep", parser.peek()) from None
    except ParseError:
        parser.settle()
        raise
    parser.expect("eof")


def parse_program(source, path: str = "<input>") -> Program:
    """Parse a whole program from source text or a token list."""
    with _whole(source, path) as parser:
        return parser.parse_program()


def parse_expression(source) -> syntax.Expr:
    """Parse a single expression statement group (tests and API convenience)."""
    with _whole(source) as parser:
        return parser.sequence(parser.at_declaration)


def parse_spec(source) -> SpecDecl:
    """Parse one `@spec` declaration."""
    with _whole(source) as parser:
        parser.skip_separators()
        decl = parser.parse_spec_decl()
        parser.skip_separators()
        return decl


def parse_type_text(source) -> Type:
    """Parse a type written in `@spec` surface syntax."""
    with _whole(source) as parser:
        return parser.parse_type()
