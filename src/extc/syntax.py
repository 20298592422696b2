"""AST for the Elixir fragment: programs, modules, functions, expressions and
patterns. Every node holds the offsets `start` and `end` of its source text,
and a `Program` holds the file's `Source`, which turns offsets into lines and
columns once a diagnostic reports them.

Offsets never take part in equality, so two parses of equivalent source
compare structurally equal.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .source import Source
from .types import MapKey, Record, Type


class Span(Record):
    """Offsets `start` to `end` into `source`, which resolves their line and
    column: the location of a diagnostic, or of the lex or parse error that
    becomes one. Nodes hold only the offsets."""

    __slots__ = ("start", "end", "source")

    def __init__(self, start: int, end: int, source: Source):
        self.start, self.end, self.source = start, end, source


@dataclass(slots=True)
class Node:
    start: int = field(compare=False, default=0, kw_only=True)
    end: int = field(compare=False, default=0, kw_only=True)


class Expr(Node):
    __slots__ = ()


class Pattern(Node):
    __slots__ = ()


class Literal(Expr, Pattern):
    """Literals appear both as expressions and as patterns."""

    __slots__ = ()


@dataclass(slots=True)
class IntLit(Literal):
    value: int


@dataclass(slots=True)
class FloatLit(Literal):
    value: float


@dataclass(slots=True)
class StringLit(Literal):
    value: str


@dataclass(slots=True)
class BoolLit(Literal):
    value: bool


@dataclass(slots=True)
class AtomLit(Literal):
    name: str


# --- patterns ---------------------------------------------------------------


@dataclass(slots=True)
class Wildcard(Pattern):
    pass


@dataclass(slots=True)
class VarPattern(Pattern):
    name: str


@dataclass(slots=True)
class PinPattern(Pattern):
    name: str


@dataclass(slots=True)
class TuplePattern(Pattern):
    items: list[Pattern]


@dataclass(slots=True)
class ElistPattern(Pattern):
    pass


@dataclass(slots=True)
class ConsPattern(Pattern):
    head: Pattern
    tail: Pattern


@dataclass(slots=True)
class MapPattern(Pattern):
    entries: list[tuple[MapKey, Pattern]]


# --- expressions ------------------------------------------------------------


@dataclass(slots=True)
class Var(Expr):
    name: str


@dataclass(slots=True)
class TupleExpr(Expr):
    items: list[Expr]


@dataclass(slots=True)
class ElistExpr(Expr):
    pass


@dataclass(slots=True)
class ConsExpr(Expr):
    head: Expr
    tail: Expr


@dataclass(slots=True)
class MapExpr(Expr):
    entries: list[tuple[MapKey, Expr]]


@dataclass(slots=True)
class MapAccess(Expr):
    subject: Expr
    key: MapKey


@dataclass(slots=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(slots=True)
class UnaryOp(Expr):
    op: str
    operand: Expr


@dataclass(slots=True)
class If(Expr):
    cond: Expr
    then: Expr
    orelse: Expr


@dataclass(slots=True)
class CaseClause(Node):
    pattern: Pattern
    body: Expr


@dataclass(slots=True)
class Case(Expr):
    subject: Expr
    clauses: list[CaseClause]


@dataclass(slots=True)
class CondClause(Node):
    cond: Expr
    body: Expr


@dataclass(slots=True)
class Cond(Expr):
    clauses: list[CondClause]


@dataclass(slots=True)
class Call(Expr):
    """Named function application, optionally qualified by a module path."""

    qualifier: tuple[str, ...]
    name: str
    args: list[Expr]


@dataclass(slots=True)
class VarCall(Expr):
    """Application of a variable bound to an anonymous function: x.(args)."""

    name: str
    args: list[Expr]


@dataclass(slots=True)
class AnonFn(Expr):
    params: list[Pattern]
    body: Expr


@dataclass(slots=True)
class Match(Expr):
    pattern: Pattern
    value: Expr


@dataclass(slots=True)
class Seq(Expr):
    first: Expr
    second: Expr


# --- declarations and programs ----------------------------------------------


@dataclass(slots=True)
class SpecDecl(Node):
    name: str
    params: list[Type]
    result: Type


@dataclass(slots=True)
class FunctionDef(Node):
    name: str
    params: list[Pattern]
    body: Expr


@dataclass(slots=True)
class ModuleDef(Node):
    name: str
    body: list[Node]


@dataclass(slots=True)
class Program(Node):
    items: list[Node]
    path: str = field(compare=False, default="<input>")
    source: Source = field(compare=False, kw_only=True)


def children(node: Node):
    """Yield the direct AST children of a node."""
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


_LOCATION = ("start", "end", "source")  # fields `dump` leaves out


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
            if f.name in _LOCATION:
                continue
            value = getattr(item, f.name)
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
