"""AST for the Elixir fragment: programs, modules, functions, expressions and
patterns. Every node holds the offsets `start` and `end` of its source text,
and a `Program` holds the file's `Source`, which turns offsets into lines,
columns and line text once a diagnostic reports them.

Offsets never take part in equality, so two parses of equivalent source
compare structurally equal.

Each node class takes its fields and then its offsets positionally, through
a plain `__init__`: the parser builds a node for every few tokens, and the
`__init__` that `dataclass` generates, with keyword-only offsets, took 383 ns
a call against 266 ns (CPython 3.11). `dataclass` still gives the fields,
`__eq__`, `__repr__` and `__match_args__`. A class's `__match_args__` names
its fields in order, leaving out the offsets and a `Program`'s `Source`:
`children` and `dump` walk it.
"""
from __future__ import annotations

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


@dataclass(slots=True, init=False)
class IntLit(Literal):
    value: int

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


@dataclass(slots=True, init=False)
class FloatLit(Literal):
    value: float

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


@dataclass(slots=True, init=False)
class StringLit(Literal):
    value: str

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


@dataclass(slots=True, init=False)
class BoolLit(Literal):
    value: bool

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


@dataclass(slots=True, init=False)
class AtomLit(Literal):
    name: str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


# --- patterns ---------------------------------------------------------------


@dataclass(slots=True, init=False)
class Wildcard(Pattern):
    def __init__(self, start=0, end=0):
        self.start, self.end = start, end


@dataclass(slots=True, init=False)
class VarPattern(Pattern):
    name: str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


@dataclass(slots=True, init=False)
class PinPattern(Pattern):
    name: str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


@dataclass(slots=True, init=False)
class TuplePattern(Pattern):
    items: list[Pattern]

    def __init__(self, items, start=0, end=0):
        self.items, self.start, self.end = items, start, end


@dataclass(slots=True, init=False)
class ElistPattern(Pattern):
    def __init__(self, start=0, end=0):
        self.start, self.end = start, end


@dataclass(slots=True, init=False)
class ConsPattern(Pattern):
    head: Pattern
    tail: Pattern

    def __init__(self, head, tail, start=0, end=0):
        self.head, self.tail, self.start, self.end = head, tail, start, end


@dataclass(slots=True, init=False)
class MapPattern(Pattern):
    entries: list[tuple[MapKey, Pattern]]

    def __init__(self, entries, start=0, end=0):
        self.entries, self.start, self.end = entries, start, end


# --- expressions ------------------------------------------------------------


@dataclass(slots=True, init=False)
class Var(Expr):
    name: str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


@dataclass(slots=True, init=False)
class TupleExpr(Expr):
    items: list[Expr]

    def __init__(self, items, start=0, end=0):
        self.items, self.start, self.end = items, start, end


@dataclass(slots=True, init=False)
class ElistExpr(Expr):
    def __init__(self, start=0, end=0):
        self.start, self.end = start, end


@dataclass(slots=True, init=False)
class ConsExpr(Expr):
    head: Expr
    tail: Expr

    def __init__(self, head, tail, start=0, end=0):
        self.head, self.tail, self.start, self.end = head, tail, start, end


@dataclass(slots=True, init=False)
class MapExpr(Expr):
    entries: list[tuple[MapKey, Expr]]

    def __init__(self, entries, start=0, end=0):
        self.entries, self.start, self.end = entries, start, end


@dataclass(slots=True, init=False)
class MapAccess(Expr):
    subject: Expr
    key: MapKey

    def __init__(self, subject, key, start=0, end=0):
        self.subject, self.key, self.start, self.end = subject, key, start, end


@dataclass(slots=True, init=False)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __init__(self, op, left, right, start=0, end=0):
        self.op, self.left, self.right, self.start, self.end = op, left, right, start, end


@dataclass(slots=True, init=False)
class UnaryOp(Expr):
    op: str
    operand: Expr

    def __init__(self, op, operand, start=0, end=0):
        self.op, self.operand, self.start, self.end = op, operand, start, end


@dataclass(slots=True, init=False)
class If(Expr):
    cond: Expr
    then: Expr
    orelse: Expr

    def __init__(self, cond, then, orelse, start=0, end=0):
        self.cond, self.then, self.orelse, self.start, self.end = cond, then, orelse, start, end


@dataclass(slots=True, init=False)
class CaseClause(Node):
    pattern: Pattern
    body: Expr

    def __init__(self, pattern, body, start=0, end=0):
        self.pattern, self.body, self.start, self.end = pattern, body, start, end


@dataclass(slots=True, init=False)
class Case(Expr):
    subject: Expr
    clauses: list[CaseClause]

    def __init__(self, subject, clauses, start=0, end=0):
        self.subject, self.clauses, self.start, self.end = subject, clauses, start, end


@dataclass(slots=True, init=False)
class CondClause(Node):
    cond: Expr
    body: Expr

    def __init__(self, cond, body, start=0, end=0):
        self.cond, self.body, self.start, self.end = cond, body, start, end


@dataclass(slots=True, init=False)
class Cond(Expr):
    clauses: list[CondClause]

    def __init__(self, clauses, start=0, end=0):
        self.clauses, self.start, self.end = clauses, start, end


@dataclass(slots=True, init=False)
class Call(Expr):
    """Named function application, optionally qualified by a module path."""

    qualifier: tuple[str, ...]
    name: str
    args: list[Expr]

    def __init__(self, qualifier, name, args, start=0, end=0):
        self.qualifier, self.name, self.args = qualifier, name, args
        self.start, self.end = start, end


@dataclass(slots=True, init=False)
class VarCall(Expr):
    """Application of a variable bound to an anonymous function: x.(args)."""

    name: str
    args: list[Expr]

    def __init__(self, name, args, start=0, end=0):
        self.name, self.args, self.start, self.end = name, args, start, end


@dataclass(slots=True, init=False)
class AnonFn(Expr):
    params: list[Pattern]
    body: Expr

    def __init__(self, params, body, start=0, end=0):
        self.params, self.body, self.start, self.end = params, body, start, end


@dataclass(slots=True, init=False)
class Match(Expr):
    pattern: Pattern
    value: Expr

    def __init__(self, pattern, value, start=0, end=0):
        self.pattern, self.value, self.start, self.end = pattern, value, start, end


@dataclass(slots=True, init=False)
class Seq(Expr):
    first: Expr
    second: Expr

    def __init__(self, first, second, start=0, end=0):
        self.first, self.second, self.start, self.end = first, second, start, end


# --- declarations and programs ----------------------------------------------


@dataclass(slots=True, init=False)
class SpecDecl(Node):
    name: str
    params: list[Type]
    result: Type

    def __init__(self, name, params, result, start=0, end=0):
        self.name, self.params, self.result, self.start, self.end = name, params, result, start, end


@dataclass(slots=True, init=False)
class FunctionDef(Node):
    name: str
    params: list[Pattern]
    body: Expr

    def __init__(self, name, params, body, start=0, end=0):
        self.name, self.params, self.body, self.start, self.end = name, params, body, start, end


@dataclass(slots=True, init=False)
class ModuleDef(Node):
    name: str
    body: list[Node]

    def __init__(self, name, body, start=0, end=0):
        self.name, self.body, self.start, self.end = name, body, start, end


@dataclass(slots=True)
class Program(Node):
    items: list[Node]
    path: str = field(compare=False, default="<input>")
    source: Source = field(compare=False, kw_only=True)


def children(node: Node):
    """Yield the direct AST children of a node."""
    for name in type(node).__match_args__:
        value = getattr(node, name)
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
        for name in type(item).__match_args__:
            value = getattr(item, name)
            if isinstance(value, Node):
                value = [value]
            elif not (isinstance(value, list) and value and isinstance(value[0], (Node, tuple))):
                scalars.append(f"{name}={value!r}")
                continue
            todo.append((pad + f"  {name}:", indent))
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
