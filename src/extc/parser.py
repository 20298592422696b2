"""Recursive-descent parser for the Elixir fragment, with one precedence-climbing
loop for the binary operators.

Precedence, tightest first: postfix map access; unary `-`/`not`; then the
`_BINARY` levels `*` `/` (6); binary `+` `-` (5); `++` `--` `<>` (4, right
associative); comparisons (3); `and` (2); `or` (1); and last `=` (match, right
associative, lowest), which `parse_expr` handles.
"""
from __future__ import annotations

from contextlib import contextmanager
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
    "or": (1, False),
    "and": (2, False),
    **dict.fromkeys(("<", ">", "<=", ">=", "==", "!=", "===", "!=="), (3, False)),
    **dict.fromkeys(("++", "--", "<>"), (4, True)),
    "+": (5, False), "-": (5, False),
    "*": (6, False), "/": (6, False),
}
_OPERATOR_KINDS = ("op", "keyword")
_UNARY = {("op", "-"), ("keyword", "not")}
_DECL_STARTS = {"defmodule", "def"}
# Deepest nesting of list, tuple, map and function types in a `@spec`; the
# type relations recurse once per level.
MAX_TYPE_DEPTH = 100


class Parser:
    def __init__(self, tokens: list[Token], path: str = "<input>"):
        self.tokens = tokens
        self.pos = 0
        self.path = path

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def prev_span(self) -> Span:
        return self.tokens[max(0, self.pos - 1)].span

    def at(self, kind: str, lexeme: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (lexeme is None or tok.lexeme == lexeme)

    def expect(self, kind: str, lexeme: str | None = None, what: str | None = None) -> Token:
        if not self.at(kind, lexeme):
            expected = what or (lexeme if lexeme is not None else kind)
            found = self.peek().lexeme or self.peek().kind
            raise ParseError(f"expected {expected!r}, found {found!r}", self.peek().span)
        return self.take()

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

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

    def map_entries(self, parse_value: Callable, what: str) -> tuple[list, Span]:
        """`%{key => value, ...}` with distinct keys, and the span of the braces."""
        start = self.take().span  # '%{'
        entries = self.comma_list(lambda: self.map_entry(parse_value), "}")
        span = start.cover(self.prev_span())
        keys = [k for k, _ in entries]
        if len(set(keys)) != len(keys):
            raise ParseError(f"duplicate keys in {what}", span)
        return entries, span

    def map_entry(self, parse_value: Callable) -> tuple[MapKey, object]:
        key = self.parse_map_key()
        self.expect("op", "=>")
        return key, parse_value()

    def sequence(self, stop: Callable[[], bool] | None = None) -> syntax.Expr:
        """Expression statements folded into a sequence; it ends at `eof`, at
        `end`, or where `stop()` holds after a separator."""
        self.skip_separators()
        exprs = [self.parse_expr()]
        while self.at_separator():
            self.skip_separators()
            if self.at("eof") or self.at("keyword", "end") or (stop is not None and stop()):
                break
            exprs.append(self.parse_expr())
        return _fold_sequence(exprs)

    def ahead(self, parse_head: Callable) -> bool:
        """Whether a clause `head ->` starts here; the position never moves."""
        mark = self.pos
        try:
            parse_head()
            return self.at("op", "->")
        except ParseError:
            return False
        finally:
            self.pos = mark

    def parse_clauses(self, parse_head: Callable, clause_type: type, what: str) -> list:
        """`do head -> body ... end` with at least one clause."""
        self.expect("keyword", "do")
        clauses = []
        while True:
            self.skip_separators()
            if self.at("keyword", "end"):
                break
            head = parse_head()
            self.expect("op", "->")
            body = self.sequence(lambda: self.ahead(parse_head))
            clauses.append(clause_type(head, body, span=head.span.cover(body.span)))
        if not clauses:
            raise self.error(f"{what} expression needs at least one clause")
        self.expect("keyword", "end")
        return clauses

    # --- programs and declarations ---

    def parse_program(self) -> Program:
        start = self.peek().span
        items = self.parse_items(toplevel=True)
        span = start if not items else items[0].span.cover(self.prev_span())
        return Program(items, path=self.path, span=span)

    def parse_items(self, toplevel: bool) -> list[syntax.Node]:
        items: list[syntax.Node] = []
        while True:
            self.skip_separators()
            if self.at("eof") or self.at("keyword", "end"):
                if toplevel and self.at("keyword", "end"):
                    raise self.error("unexpected 'end'")
                break
            if self.at("keyword", "defmodule"):
                items.append(self.parse_module())
            elif self.at("keyword", "def"):
                items.append(self.parse_def())
            elif self.at("atspec"):
                items.append(self.parse_spec_decl())
            else:
                items.append(self.parse_expr_group())
        return items

    def parse_module(self) -> ModuleDef:
        start = self.expect("keyword", "defmodule").span
        name = self.expect("ident", what="module name").lexeme
        self.expect("keyword", "do")
        body = self.parse_items(toplevel=False)
        self.expect("keyword", "end")
        return ModuleDef(name, body, span=start.cover(self.prev_span()))

    def parse_def(self) -> FunctionDef:
        start = self.expect("keyword", "def").span
        name = self.expect("ident", what="function name").lexeme
        self.expect("punct", "(")
        params = self.comma_list(self.parse_pattern, ")")
        self.expect("keyword", "do")
        body = self.sequence()
        self.expect("keyword", "end")
        return FunctionDef(name, params, body, span=start.cover(self.prev_span()))

    def parse_spec_decl(self) -> SpecDecl:
        start = self.expect("atspec").span
        name = self.expect("ident", what="function name").lexeme
        self.expect("punct", "(")
        params = self.comma_list(self.parse_type, ")")
        self.expect("op", "::")
        result = self.parse_type()
        return SpecDecl(name, params, result, span=start.cover(self.prev_span()))

    def parse_expr_group(self) -> syntax.Expr:
        """A maximal run of expression statements, up to a declaration."""
        return self.sequence(self.at_declaration)

    def at_declaration(self) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.lexeme in _DECL_STARTS or tok.kind == "atspec"

    # --- types ---

    def parse_type(self, depth: int = 0) -> Type:
        """A type inside `depth` enclosing list, tuple, map or function types."""
        tok = self.peek()
        if tok.kind == "ident":
            self.take()
            base = BASE_TYPE_NAMES.get(tok.lexeme)
            if base is None:
                raise ParseError(f"unknown type name {tok.lexeme!r}", tok.span)
            return base
        if tok.kind == "atom":
            self.take()
            return AtomLiteralType(tok.lexeme)
        if tok.kind != "punct" or tok.lexeme not in ("[", "{", "%{", "("):
            raise ParseError(f"expected a type, found {tok.lexeme!r}", tok.span)
        if depth == MAX_TYPE_DEPTH:
            raise ParseError("nesting too deep", tok.span)
        inner = partial(self.parse_type, depth + 1)
        if tok.lexeme == "%{":
            return MapType(self.map_entries(inner, "map type")[0])
        self.take()
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
        tok = self.peek()
        if tok.kind == "atom":
            self.take()
            return MapKey.atom(tok.lexeme)
        if tok.kind == "int":
            self.take()
            return MapKey.integer(_int_value(tok))
        if tok.kind == "keyword" and tok.lexeme in ("true", "false"):
            self.take()
            return MapKey.boolean(tok.lexeme == "true")
        raise ParseError("expected a map key (atom, boolean or integer)", tok.span)

    # --- patterns ---

    def parse_pattern(self) -> syntax.Pattern:
        tok = self.peek()
        if tok.kind == "ident":
            self.take()
            if tok.lexeme == "_":
                return Wildcard(span=tok.span)
            return VarPattern(tok.lexeme, span=tok.span)
        if self.at("op", "^"):
            start = self.take().span
            name = self.expect("ident", what="variable after '^'")
            return PinPattern(name.lexeme, span=start.cover(name.span))
        lit = self.try_literal()
        if lit is not None:
            return lit
        if self.at("punct", "{"):
            start = self.take().span
            items = self.comma_list(self.parse_pattern, "}")
            return TuplePattern(items, span=start.cover(self.prev_span()))
        if self.at("punct", "["):
            start = self.take().span
            if self.at("punct", "]"):
                self.take()
                return ElistPattern(span=start.cover(self.prev_span()))
            head = self.parse_pattern()
            self.expect("op", "|")
            tail = self.parse_pattern()
            self.expect("punct", "]")
            return ConsPattern(head, tail, span=start.cover(self.prev_span()))
        if self.at("punct", "%{"):
            entries, span = self.map_entries(self.parse_pattern, "map pattern")
            return MapPattern(entries, span=span)
        raise ParseError(f"expected a pattern, found {tok.lexeme or tok.kind!r}", tok.span)

    def try_literal(self) -> syntax.Literal | None:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return IntLit(_int_value(tok), span=tok.span)
        if tok.kind == "float":
            self.take()
            return FloatLit(float(tok.lexeme), span=tok.span)
        if tok.kind == "string":
            self.take()
            return StringLit(tok.lexeme, span=tok.span)
        if tok.kind == "atom":
            self.take()
            return AtomLit(tok.lexeme, span=tok.span)
        if tok.kind == "keyword" and tok.lexeme in ("true", "false"):
            self.take()
            return BoolLit(tok.lexeme == "true", span=tok.span)
        return None

    # --- expressions ---

    def parse_expr(self) -> syntax.Expr:
        mark = self.pos
        pattern = None
        try:
            candidate = self.parse_pattern()
            if self.at("op", "="):
                pattern = candidate
        except ParseError:
            pass
        if pattern is not None:
            self.take()  # '=': committed to a match expression
            value = self.parse_expr()
            return Match(pattern, value, span=pattern.span.cover(value.span))
        self.pos = mark
        expr = self.parse_binary()
        if self.at("op", "="):
            raise ParseError("left-hand side of '=' is not a valid pattern", expr.span)
        return expr

    def parse_binary(self, min_prec: int = 1) -> syntax.Expr:
        """Precedence climbing over `_BINARY`: operands bind at least `min_prec`."""
        left = self.parse_unary()
        while True:
            tok = self.peek()
            level = _BINARY.get(tok.lexeme) if tok.kind in _OPERATOR_KINDS else None
            if level is None or level[0] < min_prec:
                return left
            self.take()
            prec, right_assoc = level
            right = self.parse_binary(prec if right_assoc else prec + 1)
            left = BinOp(tok.lexeme, left, right, span=left.span.cover(right.span))

    def parse_unary(self) -> syntax.Expr:
        tok = self.peek()
        if (tok.kind, tok.lexeme) in _UNARY:
            self.take()
            operand = self.parse_unary()
            return UnaryOp(tok.lexeme, operand, span=tok.span.cover(operand.span))
        expr = self.parse_primary()
        while self.at("punct", "["):
            self.take()
            key = self.parse_map_key()
            end = self.expect("punct", "]").span
            expr = MapAccess(expr, key, span=expr.span.cover(end))
        return expr

    def parse_primary(self) -> syntax.Expr:
        tok = self.peek()
        lit = self.try_literal()
        if lit is not None:
            return lit
        if tok.kind == "ident":
            if tok.lexeme == "_":
                raise ParseError("wildcard '_' is not an expression", tok.span)
            return self.parse_name()
        if self.at("punct", "("):
            self.take()
            exprs = [self.parse_expr()]
            while self.at("punct", ";"):
                self.take()
                exprs.append(self.parse_expr())
            self.expect("punct", ")")
            return _fold_sequence(exprs)
        if self.at("punct", "{"):
            start = self.take().span
            items = self.comma_list(self.parse_expr, "}")
            return TupleExpr(items, span=start.cover(self.prev_span()))
        if self.at("punct", "["):
            start = self.take().span
            if self.at("punct", "]"):
                self.take()
                return ElistExpr(span=start.cover(self.prev_span()))
            head = self.parse_expr()
            self.expect("op", "|")
            tail = self.parse_expr()
            self.expect("punct", "]")
            return ConsExpr(head, tail, span=start.cover(self.prev_span()))
        if self.at("punct", "%{"):
            entries, span = self.map_entries(self.parse_expr, "map literal")
            return MapExpr(entries, span=span)
        if self.at("keyword", "if"):
            return self.parse_if()
        if self.at("keyword", "case"):
            start = self.take().span
            subject = self.parse_expr()
            clauses = self.parse_clauses(self.parse_pattern, CaseClause, "case")
            return Case(subject, clauses, span=start.cover(self.prev_span()))
        if self.at("keyword", "cond"):
            start = self.take().span
            clauses = self.parse_clauses(self.parse_expr, CondClause, "cond")
            return Cond(clauses, span=start.cover(self.prev_span()))
        if self.at("keyword", "fn"):
            return self.parse_fn()
        raise ParseError(f"expected an expression, found {tok.lexeme or tok.kind!r}", tok.span)

    def parse_name(self) -> syntax.Expr:
        first = self.take()
        if self.at("op", "."):
            self.take()
            if self.at("punct", "("):
                args = self.parse_call_args()
                return VarCall(first.lexeme, args, span=first.span.cover(self.prev_span()))
            path = [first.lexeme, self.expect("ident", what="name after '.'").lexeme]
            while self.at("op", "."):
                self.take()
                path.append(self.expect("ident", what="name after '.'").lexeme)
            args = self.parse_call_args()
            return Call(tuple(path[:-1]), path[-1], args,
                        span=first.span.cover(self.prev_span()))
        if self.at("punct", "("):
            args = self.parse_call_args()
            return Call((), first.lexeme, args, span=first.span.cover(self.prev_span()))
        return Var(first.lexeme, span=first.span)

    def parse_call_args(self) -> list[syntax.Expr]:
        self.expect("punct", "(")
        return self.comma_list(self.parse_expr, ")")

    def parse_if(self) -> If:
        start = self.expect("keyword", "if").span
        cond = self.parse_expr()
        self.expect("keyword", "do")
        then = self.sequence(lambda: self.at("keyword", "else"))
        if self.at("keyword", "else"):
            self.take()
            orelse = self.sequence()
        else:
            # An else-less `if` produces :nil when the condition is false; the
            # synthetic branch points back at the `if` keyword.
            orelse = AtomLit("nil", span=start)
        self.expect("keyword", "end")
        return If(cond, then, orelse, span=start.cover(self.prev_span()))

    def parse_fn(self) -> AnonFn:
        start = self.expect("keyword", "fn").span
        self.expect("punct", "(")
        params = self.comma_list(self.parse_pattern, ")")
        self.expect("op", "->")
        body = self.sequence()
        self.expect("keyword", "end")
        return AnonFn(params, body, span=start.cover(self.prev_span()))


def _int_value(tok: Token) -> int:
    try:
        return int(tok.lexeme)
    except ValueError:  # past the digit limit of int() on text
        raise ParseError("integer literal is too long", tok.span) from None


def _fold_sequence(exprs: list[syntax.Expr]) -> syntax.Expr:
    result = exprs[-1]
    for expr in reversed(exprs[:-1]):
        result = Seq(expr, result, span=expr.span.cover(result.span))
    return result


@contextmanager
def _whole(source, path: str = "<input>"):
    """A parser over all of `source`, text or tokens, that must end at `eof`.
    Nesting past the interpreter's recursion limit is a ParseError at the token
    reached; the block runs in the caller's frame, so no frame is added."""
    parser = Parser(source if isinstance(source, list) else tokenize(source), path)
    try:
        yield parser
    except RecursionError:
        raise parser.error("nesting too deep") from None
    parser.expect("eof")


def parse_program(source, path: str = "<input>") -> Program:
    """Parse a whole program from source text or a token list."""
    with _whole(source, path) as parser:
        return parser.parse_program()


def parse_expression(source) -> syntax.Expr:
    """Parse a single expression statement group (tests and API convenience)."""
    with _whole(source) as parser:
        return parser.parse_expr_group()


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
