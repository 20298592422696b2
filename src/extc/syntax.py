"""AST for the Elixir fragment: programs, modules, functions, expressions and
patterns, every node carrying a source span.

Spans never take part in equality, so two parses of equivalent source compare
structurally equal.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .types import MapKey, Type


@dataclass(frozen=True)
class Span:
    """Byte offsets plus 1-based line/column positions covering a source range."""

    start: int
    end: int
    line: int
    col: int
    end_line: int
    end_col: int

    def cover(self, other: "Span") -> "Span":
        first = self if self.start <= other.start else other
        last = self if self.end >= other.end else other
        return Span(first.start, last.end, first.line, first.col, last.end_line, last.end_col)


DUMMY_SPAN = Span(0, 0, 1, 1, 1, 1)


class Node:
    __slots__ = ()


class Expr(Node):
    __slots__ = ()


class Pattern(Node):
    __slots__ = ()


class Literal(Expr, Pattern):
    """Literals appear both as expressions and as patterns."""

    __slots__ = ()


@dataclass(eq=True)
class IntLit(Literal):
    value: int
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class FloatLit(Literal):
    value: float
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class StringLit(Literal):
    value: str
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class BoolLit(Literal):
    value: bool
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class AtomLit(Literal):
    name: str
    span: Span = field(compare=False, default=DUMMY_SPAN)


# --- patterns ---------------------------------------------------------------


@dataclass(eq=True)
class Wildcard(Pattern):
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class VarPattern(Pattern):
    name: str
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class PinPattern(Pattern):
    name: str
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class TuplePattern(Pattern):
    items: list[Pattern]
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class ElistPattern(Pattern):
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class ConsPattern(Pattern):
    head: Pattern
    tail: Pattern
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class MapPattern(Pattern):
    entries: list[tuple["MapKey", Pattern]]
    span: Span = field(compare=False, default=DUMMY_SPAN)


# --- expressions ------------------------------------------------------------


@dataclass(eq=True)
class Var(Expr):
    name: str
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class TupleExpr(Expr):
    items: list[Expr]
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class ElistExpr(Expr):
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class ConsExpr(Expr):
    head: Expr
    tail: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class MapExpr(Expr):
    entries: list[tuple["MapKey", Expr]]
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class MapAccess(Expr):
    subject: Expr
    key: "MapKey"
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class UnaryOp(Expr):
    op: str
    operand: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class If(Expr):
    cond: Expr
    then: Expr
    orelse: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class CaseClause(Node):
    pattern: Pattern
    body: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class Case(Expr):
    subject: Expr
    clauses: list[CaseClause]
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class CondClause(Node):
    cond: Expr
    body: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class Cond(Expr):
    clauses: list[CondClause]
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class Call(Expr):
    """Named function application, optionally qualified by a module path."""

    qualifier: tuple[str, ...]
    name: str
    args: list[Expr]
    span: Span = field(compare=False, default=DUMMY_SPAN)

    def qualified_name(self) -> str:
        return ".".join(self.qualifier + (self.name,))


@dataclass(eq=True)
class VarCall(Expr):
    """Application of a variable bound to an anonymous function: x.(args)."""

    name: str
    args: list[Expr]
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class AnonFn(Expr):
    params: list[Pattern]
    body: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class Match(Expr):
    pattern: Pattern
    value: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class Seq(Expr):
    first: Expr
    second: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


# --- declarations and programs ----------------------------------------------


@dataclass(eq=True)
class SpecDecl(Node):
    name: str
    params: list["Type"]
    result: "Type"
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class FunctionDef(Node):
    name: str
    params: list[Pattern]
    body: Expr
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class ModuleDef(Node):
    name: str
    body: list[Node]
    span: Span = field(compare=False, default=DUMMY_SPAN)


@dataclass(eq=True)
class Program(Node):
    items: list[Node]
    path: str = field(compare=False, default="<input>")
    span: Span = field(compare=False, default=DUMMY_SPAN)


def children(node: Node):
    """Yield the direct AST children of a node."""
    if not dataclasses.is_dataclass(node):
        return
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item
                elif isinstance(item, tuple):
                    for part in item:
                        if isinstance(part, Node):
                            yield part


def dump(node: Node) -> str:
    """Readable tree rendering of an AST, one node per line.

    The walk keeps its own stack, so a sequence or operator chain of any
    length dumps; the parser builds those with loops too.
    """
    lines = []
    stack = [(node, 0)]
    while stack:
        item, indent = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        pad = "  " * indent
        scalars = []
        todo = []
        for f in dataclasses.fields(item):
            value = getattr(item, f.name)
            if isinstance(value, Span):
                continue
            if isinstance(value, Node):
                value = [value]
            elif not (isinstance(value, list) and value and isinstance(value[0], (Node, tuple))):
                scalars.append(f"{f.name}={value!r}")
                continue
            todo.append((pad + f"  {f.name}:", indent))
            for sub in value:
                if isinstance(sub, tuple):
                    key, sub = sub
                    todo.append((pad + f"    {key} =>", indent))
                    todo.append((sub, indent + 3))
                else:
                    todo.append((sub, indent + 2))
        lines.append(" ".join([pad + type(item).__name__, *scalars]))
        stack.extend(reversed(todo))
    return "\n".join(lines)
