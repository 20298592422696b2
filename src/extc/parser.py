"""Recursive-descent parser for the Elixir fragment, with one precedence-climbing
loop for the operators.

Precedence, tightest first: postfix map access; unary `-`/`not`; then the
`_BINARY` levels `*` `/` (6); binary `+` `-` (5); `++` `--` `<>` (4, right
associative); comparisons (3); `and` (2); `or` (1); `=` (0, right associative),
loosest as Elixir's own `match_op`. No backtracking: each token, an index into
the lexer's columns, is taken once.

Every pattern is parsed as an expression, and that expression's node is the
pattern once `to_pattern` accepts it: a `def` or `fn` parameter, a `case`
head, the statement in a clause body that stops at `->` as the next clause's
head, and the left side of `=`. An `_` or `^x` is left unclaimed until the
pattern around it is accepted; one that no pattern claims is an error when
its statement ends, unless a syntax error stops the parse first.

Every decision reads one column, `kinds`: a keyword, operator or punctuation
token's kind is its own text, so `at("do")`, `expect(")")` and the `_PRIMARY`
and `_BINARY` tables look up a kind alone, and a string or atom that spells a
symbol never matches one. The hot loops advance `self.pos` themselves rather
than through `take`, and nodes are built with positional offsets.
"""
from __future__ import annotations

from collections.abc import Callable
from functools import partial

from . import syntax
from .diagnostics import CheckFailure, E_PARSE, Span
from .lexer import Tokens, tokenize
from .syntax import (
    AnonFn, AtomLit, BinOp, Block, BoolLit, Call, Case, CaseClause, Cond,
    CondClause, ConsExpr, ElistExpr, FloatLit, FunctionDef, If, IntLit, MapAccess,
    MapExpr, Match, ModuleDef, PinPattern, Program, SpecDecl, StringLit,
    TupleExpr, UnaryOp, Var, VarCall, Wildcard,
)
from .types import (
    AtomLiteralType, BASE_TYPE_NAMES, FunctionType, ListType, MapKey, MapType,
    TupleType, Type,
)


class ParseError(CheckFailure):
    def __init__(self, message: str, span: Span):
        super().__init__(E_PARSE, message, span)
        self.span = span  # whole, since no program holds the source yet


# Binary operator kind -> (precedence, right associative); higher binds tighter.
_BINARY = {
    "=": (0, True), "or": (1, False), "and": (2, False),
    **dict.fromkeys(("<", ">", "<=", ">=", "==", "!=", "===", "!=="), (3, False)),
    **dict.fromkeys(("++", "--", "<>"), (4, True)),
    "+": (5, False), "-": (5, False), "*": (6, False), "/": (6, False),
}
_PREFIX = 7  # a unary operand binds tighter than every binary operator
_ENDS = ("eof", "end")  # the kinds that end every statement sequence
_DECLARATIONS = ("defmodule", "def", "atspec")
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
        self.loose: list[int] = []  # `_` and `^` of unclaimed pattern nodes, in order
        self.next_head = None

    # --- token plumbing; the hottest paths test `kinds` and move `pos` inline ---

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

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def expect(self, kind: str, what: str | None = None) -> int:
        """The current token, taken, which must be of `kind` (never `eof`); an
        error names what was expected by the description `what`, else by `kind`, quoted."""
        i = self.pos
        if self.kinds[i] != kind:
            raise self.unexpected(i, what or repr(kind))
        self.pos = i + 1
        return i

    def at_separator(self, back: int = 0) -> bool:
        kind = self.kinds[self.pos - back]
        return kind == "newline" or kind == ";"

    def skip_separators(self):
        kinds, i = self.kinds, self.pos
        while kinds[i] == "newline" or kinds[i] == ";":
            i += 1
        self.pos = i

    # --- shared shapes ---

    def comma_list(self, parse_item: Callable, close: str) -> list:
        """`item, item, ...` up to and including the `close` punctuation."""
        items = []
        kinds = self.kinds
        if kinds[self.pos] != close:
            items.append(parse_item())
            while kinds[self.pos] == ",":
                self.pos += 1
                items.append(parse_item())
        self.expect(close)
        return items

    def map_entries(self, start: int, parse_value: Callable, what: str) -> tuple[list, int]:
        """The `key => value, ...}` after token `start`, with distinct keys, and
        the closing brace's token. `comma_list`'s loop, written out to save frames."""
        entries = []
        if not self.at("}"):
            while True:
                key = self.parse_map_key()
                self.expect("=>")
                entries.append((key, parse_value()))
                if not self.at(","):
                    break
                self.pos += 1
        close = self.expect("}")
        if len({key for key, _ in entries}) != len(entries):
            raise ParseError(f"duplicate keys in {what}", self.span(start, close))
        return entries, close

    def settle(self, expr: syntax.Expr) -> syntax.Expr:
        """`expr`, a finished statement: the first unclaimed `_` or `^x` fails."""
        if self.loose:
            i = self.loose[0]
            raise ParseError("wildcard '_' is not an expression" if self.lexemes[i] == "_"
                             else "expected an expression, found '^'", self.span(i, i))
        return expr

    def sequence(self, ends: tuple[str, ...] = _ENDS,
                 head_of: Callable | None = None) -> syntax.Expr:
        """A statement, or the `Block` of two or more, up to one that no
        separator follows, a separator before a token of a kind in `ends` (an
        `if` adds `else`, `parse_items` the declarations), or a later statement
        that stops at `->`: the next clause's head, which `head_of(statement,
        its first token)` accepts as `self.next_head` or rejects."""
        self.skip_separators()
        exprs = [self.settle(self.parse_expr())]
        while self.at_separator():
            self.skip_separators()
            if self.kinds[self.pos] in ends:
                break
            start = self.pos
            expr = self.parse_expr()
            if head_of is not None and self.at("->"):
                self.next_head = head_of(expr, start)
                return _block(exprs)
            exprs.append(self.settle(expr))
        self.next_head = None
        return _block(exprs)

    def parse_clauses(self, start: int) -> Case | Cond:
        """`case subject do head -> body ... end` or `cond do ... end`, with a
        clause or more; every head is an expression that `head_of` accepts, and
        each later one ends the body before it (`sequence`)."""
        case = self.lexemes[start] == "case"
        subject = self.parse_expr() if case else None
        clause_type = CaseClause if case else CondClause
        head_of = self.to_pattern if case else lambda expr, _: self.settle(expr)
        self.expect("do")
        clauses = []
        head = None
        while True:
            if head is None:
                self.skip_separators()
                tok = self.pos
                if self.kinds[tok] in _ENDS:
                    break
                head = head_of(self.parse_expr(), tok)
            self.expect("->")
            body = self.sequence(head_of=head_of)
            clauses.append(clause_type(head, body, head.start, body.end))
            head = self.next_head
            if head is None and self.kinds[self.pos] not in _ENDS:
                raise self.unexpected(self.pos, "a newline or ';'")
        close = self.expect("end")
        if not clauses:
            raise ParseError(f"{self.lexemes[start]} expression needs at least one clause",
                             self.span(close, close))
        first, last = self.starts[start], self.ends[close]
        return Case(subject, clauses, first, last) if case else Cond(clauses, first, last)

    def to_pattern(self, expr: syntax.Expr, start: int) -> syntax.Expr:
        """`expr`, parsed from token `start` on, as a pattern: every pattern
        position comes here. It claims the `_` and `^x` in `expr` and returns
        `expr` itself, which must be a literal, `_`, `^x`, a variable, `[]`,
        or a tuple, cons or map whose parts are patterns; else ParseError,
        over the whole of `expr`."""
        while self.loose and self.loose[-1] >= start:
            self.loose.pop()
        if self.pos - start > 2 and "(" in self.kinds[start:self.pos]:
            raise self.not_a_pattern(expr)  # a group, which the AST does not show
        parts = [expr]
        while parts:
            part = parts.pop()
            kind = type(part)
            if kind is TupleExpr:
                parts += part.items
            elif kind is ConsExpr:
                parts += (part.head, part.tail)
            elif kind is MapExpr:
                parts += [value for _, value in part.entries]
            elif not (kind is Var or kind is ElistExpr or isinstance(part, syntax.Pattern)):
                raise self.not_a_pattern(expr)
        return expr

    def pattern(self) -> syntax.Expr:
        """A `def` or `fn` parameter: an expression that `to_pattern` accepts,
        once its first token is one a pattern can start with."""
        start = self.pos
        if self.kinds[start] not in _PATTERN_PRIMARY:
            raise self.unexpected(start, "a pattern")
        return self.to_pattern(self.parse_expr(), start)

    def not_a_pattern(self, expr: syntax.Expr) -> ParseError:
        return ParseError("expression is not a valid pattern",
                          Span(expr.start, expr.end, self.source))

    # --- programs and declarations ---

    def parse_items(self, toplevel: bool) -> list[syntax.Node]:
        items: list[syntax.Node] = []
        while True:
            self.skip_separators()
            kind = self.kinds[self.pos]
            if kind in _ENDS:
                if toplevel and kind == "end":
                    raise ParseError("unexpected 'end'", self.span(self.pos, self.pos))
                break
            if kind == "defmodule":
                items.append(self.parse_module())
            elif kind == "def":
                items.append(self.parse_def())
            elif kind == "atspec":
                items.append(self.parse_signature())
            else:  # statements up to a declaration, ended by a separator, `end` or `eof`
                items.append(self.sequence((*_ENDS, *_DECLARATIONS)))
                if not (self.at_separator(back=1) or self.kinds[self.pos] in _ENDS):
                    raise self.unexpected(self.pos, "a newline or ';'")
        return items

    def parse_module(self) -> ModuleDef:
        start = self.expect("defmodule")
        name = self.lexemes[self.expect("ident", "module name")]
        self.expect("do")
        body = self.parse_items(toplevel=False)
        return ModuleDef(name, body, self.starts[start], self.ends[self.expect("end")])

    def parse_def(self) -> FunctionDef:
        start = self.expect("def")
        name = self.lexemes[self.expect("ident", "function name")]
        self.expect("(")
        params = self.comma_list(self.pattern, ")")
        self.expect("do")
        body = self.sequence()
        return FunctionDef(name, params, body, self.starts[start], self.ends[self.expect("end")])

    def parse_signature(self) -> SpecDecl:
        start = self.expect("atspec")
        name = self.lexemes[self.expect("ident", "function name")]
        self.expect("(")
        params = self.comma_list(self.parse_type, ")")
        self.expect("::")
        result = self.parse_type()
        return SpecDecl(name, params, result, self.starts[start], self.ends[self.pos - 1])

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
        if kind not in ("[", "{", "%{", "("):
            raise self.unexpected(tok, "a type")
        if depth == MAX_TYPE_DEPTH:
            raise ParseError("nesting too deep", self.span(tok, tok))
        inner = partial(self.parse_type, depth + 1)
        if kind == "%{":
            return MapType(self.map_entries(tok, inner, "map type")[0])
        if kind == "[":
            element = inner()
            self.expect("]")
            return ListType(element)
        if kind == "{":
            return TupleType(tuple(self.comma_list(inner, "}")))
        params = self.comma_list(inner, ")")
        self.expect("->")
        return FunctionType(tuple(params), inner())

    def parse_map_key(self) -> MapKey:
        tok = self.take()
        kind = self.kinds[tok]
        if kind == "atom":
            return MapKey("atom", self.lexemes[tok])
        if kind == "int":
            return MapKey("integer", self.int_value(tok))
        if kind == "true" or kind == "false":
            return MapKey("boolean", kind == "true")
        raise ParseError("expected a map key (atom, boolean or integer)", self.span(tok, tok))

    def int_value(self, tok: int) -> int:
        try:
            return int(self.lexemes[tok])
        except ValueError:  # past the digit limit of int() on text
            raise ParseError("integer literal is too long", self.span(tok, tok)) from None

    # --- expressions ---

    def parse_expr(self, min_prec: int = 0) -> syntax.Expr:
        """Precedence climbing over `_BINARY`: operands bind at least `min_prec`."""
        start = self.pos
        depth = self.depth
        if depth == MAX_NESTING:
            raise ParseError("nesting too deep", self.span(start, start))
        self.depth = depth + 1
        kinds = self.kinds
        kind = kinds[start]
        if kind == "-" or kind == "not":
            self.pos = start + 1
            operand = self.parse_expr(_PREFIX)
            left = UnaryOp(kind, operand, self.starts[start], operand.end)
        else:
            parse = _PRIMARY.get(kind)
            if parse is None:
                raise self.unexpected(start, "an expression")
            self.pos = start + 1
            left = parse(self, start)
            while kinds[self.pos] == "[":
                self.pos += 1
                key = self.parse_map_key()
                left = MapAccess(left, key, left.start, self.ends[self.expect("]")])
        while True:
            tok = self.pos
            level = _BINARY.get(kinds[tok])
            if level is None or level[0] < min_prec:
                break
            self.pos = tok + 1
            prec, right_assoc = level
            if prec == 0:
                pattern = self.to_pattern(left, start)
                value = self.parse_expr(prec)
                left = Match(pattern, value, pattern.start, value.end)
            else:
                right = self.parse_expr(prec if right_assoc else prec + 1)
                left = BinOp(kinds[tok], left, right, left.start, right.end)
        self.depth = depth
        return left

    # --- primaries, each given the token that starts it, taken ---

    def parse_name(self, first: int) -> syntax.Expr:
        """`_`, a variable, or a call `f(...)`, `M.f(...)` or `x.(...)`."""
        name = self.lexemes[first]
        if name == "_":
            self.loose.append(first)
            return Wildcard(self.starts[first], self.ends[first])
        follow = self.kinds[self.pos]
        if follow != "(" and follow != ".":
            return Var(name, self.starts[first], self.ends[first])
        path = [name]
        while self.at("."):
            self.pos += 1
            if len(path) == 1 and self.at("("):
                break
            path.append(self.lexemes[self.expect("ident", "name after '.'")])
        self.expect("(")
        args = self.comma_list(self.parse_expr, ")")
        start, end = self.starts[first], self.ends[self.pos - 1]
        if follow == "." and len(path) == 1:
            return VarCall(name, args, start, end)
        return Call(tuple(path[:-1]), path[-1], args, start, end)

    def parse_pin(self, caret: int) -> syntax.Pattern:
        name = self.expect("ident", "variable after '^'")
        self.loose.append(caret)
        return PinPattern(self.lexemes[name], self.starts[caret], self.ends[name])

    def parse_group(self, start: int) -> syntax.Expr:
        exprs = [self.parse_expr()]
        while self.at(";"):
            self.pos += 1
            exprs.append(self.parse_expr())
        self.expect(")")
        return _block(exprs)

    def parse_list(self, start: int) -> syntax.Expr:
        if self.at("]"):
            return ElistExpr(self.starts[start], self.ends[self.take()])
        head = self.parse_expr()
        self.expect("|")
        tail = self.parse_expr()
        return ConsExpr(head, tail, self.starts[start], self.ends[self.expect("]")])

    def parse_map(self, start: int) -> MapExpr:
        entries, close = self.map_entries(start, self.parse_expr, "map")
        return MapExpr(entries, self.starts[start], self.ends[close])

    def parse_if(self, start: int) -> If:
        cond = self.parse_expr()
        self.expect("do")
        then = self.sequence((*_ENDS, "else"))
        if self.at("else"):
            self.take()
            orelse = self.sequence()
        else:
            # An else-less `if` is :nil when false; this branch spans the `if`.
            orelse = AtomLit("nil", self.starts[start], self.ends[start])
        return If(cond, then, orelse, self.starts[start], self.ends[self.expect("end")])

    def parse_fn(self, start: int) -> AnonFn:
        self.expect("(")
        params = self.comma_list(self.pattern, ")")
        self.expect("->")
        body = self.sequence()
        return AnonFn(params, body, self.starts[start], self.ends[self.expect("end")])


# Primaries by their first token's kind; a pattern starts as one of the first.
_PATTERN_PRIMARY = {
    "int": lambda p, tok: IntLit(p.int_value(tok), p.starts[tok], p.ends[tok]),
    "float": lambda p, tok: FloatLit(float(p.lexemes[tok]), p.starts[tok], p.ends[tok]),
    "string": lambda p, tok: StringLit(p.lexemes[tok], p.starts[tok], p.ends[tok]),
    "atom": lambda p, tok: AtomLit(p.lexemes[tok], p.starts[tok], p.ends[tok]),
    "true": lambda p, tok: BoolLit(True, p.starts[tok], p.ends[tok]),
    "false": lambda p, tok: BoolLit(False, p.starts[tok], p.ends[tok]),
    "ident": Parser.parse_name, "^": Parser.parse_pin,
    "{": lambda p, tok: TupleExpr(p.comma_list(p.parse_expr, "}"), p.starts[tok],
                                  p.ends[p.pos - 1]),
    "[": Parser.parse_list, "%{": Parser.parse_map,
}
_PRIMARY = {
    **_PATTERN_PRIMARY, "(": Parser.parse_group, "if": Parser.parse_if,
    "case": Parser.parse_clauses, "cond": Parser.parse_clauses, "fn": Parser.parse_fn,
}


def _block(exprs: list[syntax.Expr]) -> syntax.Expr:
    """One statement as itself, two or more as the `Block` of them."""
    return exprs[0] if len(exprs) == 1 else Block(exprs, exprs[0].start, exprs[-1].end)


def parse_program(source, path: str = "<input>") -> Program:
    """Parse a whole program from source text or its `Tokens`. On a stack too
    full for `MAX_NESTING`, the recursion limit is "nesting too deep"."""
    parser = Parser(tokenize(source) if isinstance(source, str) else source)
    try:
        items = parser.parse_items(toplevel=True)
    except RecursionError:
        raise ParseError("nesting too deep", parser.span(parser.pos, parser.pos)) from None
    return Program(items, path=path, source=parser.source, end=len(parser.source.text))
