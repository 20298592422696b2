"""AST for the Elixir fragment: programs, modules, functions, expressions and
patterns; this module defines nothing but nodes. Every node holds the offsets
`start` and `end` of its source text, and a `Program` holds the file's
`Source`, which turns offsets into lines, columns and line text once a
diagnostic reports them through a `diagnostics.Span`.

A pattern is stored as the expression it is written as, as in Elixir's
quoted form: a variable, tuple, list or map in a pattern is the same `Var`,
`TupleExpr`, `ElistExpr`, `ConsExpr` or `MapExpr` node as in an expression.
`Pattern` marks `Wildcard` and `PinPattern`, which stand only in a pattern,
and `Literal`, which stands in both. `dump` names a variable, tuple, list
or map in a pattern `VarPattern`, `TuplePattern` and so on: the output of
`extc parse` tells a pattern from an expression, and `tests/golden/parse.txt`
pins those names.

Each node class takes its fields and then its offsets positionally, through
a plain `__init__`: the parser builds a node for every few tokens, and the
`__init__` that `dataclass` generates, with keyword-only offsets, took 383 ns
a call against 266 ns (CPython 3.11). `Node` gives every class but `Program`
its `__eq__`, which compares the fields and never the offsets, so two parses
of equivalent source compare equal. `Node` is a `types.Record`, whose
`__repr__` writes the form `dataclass` would, `IntLit(start=0, end=0,
value=5)`, from the `__slots__` of a class and its bases. `dataclass` itself,
through `_node`, only records the fields, which perfbench's traced node count
reads with `dataclasses.fields`, and sets `__slots__` and `__match_args__`:
generating the two methods in every class took most of this module's import
time. A class's `__match_args__` names its fields in order, leaving out the
offsets and a `Program`'s `Source`: `children`, `dump` and `__eq__` walk it.
`Program` keeps the generated methods, so its equality leaves out its `path`
as well.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .source import Source
from .types import MapKey, Record, Type


# Fields, slots and `__match_args__`, but no generated method. A class with no
# docstring would also have `dataclass` build one from `inspect.signature`.
# The offsets keep `compare=False, default=0` for `Program`'s generated
# `__init__` and `__eq__`, which would otherwise require a `start` and compare it.
_node = dataclass(slots=True, init=False, eq=False, repr=False)


@_node
class Node(Record):
    """An AST node: its fields, then the offsets of its source text."""

    start: int = field(compare=False, default=0, kw_only=True)
    end: int = field(compare=False, default=0, kw_only=True)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__match_args__
        return tuple(getattr(self, name) for name in names) == \
            tuple(getattr(other, name) for name in names)


class Expr(Node):
    __slots__ = ()


class Pattern(Node):
    """`_` and `^x`, which stand only in a pattern, and literals."""

    __slots__ = ()


class Literal(Expr, Pattern):
    """Literals appear both as expressions and as patterns."""

    __slots__ = ()


@_node
class IntLit(Literal):
    """An integer literal."""

    value: int

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


@_node
class FloatLit(Literal):
    """A float literal."""

    value: float

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


@_node
class StringLit(Literal):
    """A string literal."""

    value: str

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


@_node
class BoolLit(Literal):
    """`true` or `false`."""

    value: bool

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


@_node
class AtomLit(Literal):
    """An atom literal, `:name`."""

    name: str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


# --- patterns ---------------------------------------------------------------


@_node
class Wildcard(Pattern):
    """The wildcard pattern `_`."""

    def __init__(self, start=0, end=0):
        self.start, self.end = start, end


@_node
class PinPattern(Pattern):
    """A pinned variable, `^name`, matched by its value."""

    name: str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


# --- expressions ------------------------------------------------------------


@_node
class Var(Expr):
    """A variable reference."""

    name: str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


@_node
class TupleExpr(Expr):
    """A tuple, `{e, ...}`."""

    items: list[Expr]

    def __init__(self, items, start=0, end=0):
        self.items, self.start, self.end = items, start, end


@_node
class ElistExpr(Expr):
    """The empty list `[]`."""

    def __init__(self, start=0, end=0):
        self.start, self.end = start, end


@_node
class ConsExpr(Expr):
    """A list cell, `[head | tail]`."""

    head: Expr
    tail: Expr

    def __init__(self, head, tail, start=0, end=0):
        self.head, self.tail, self.start, self.end = head, tail, start, end


@_node
class MapExpr(Expr):
    """A map, `%{key => e, ...}`."""

    entries: list[tuple[MapKey, Expr]]

    def __init__(self, entries, start=0, end=0):
        self.entries, self.start, self.end = entries, start, end


@_node
class MapAccess(Expr):
    """A map lookup by a literal key, `subject[key]`."""

    subject: Expr
    key: MapKey

    def __init__(self, subject, key, start=0, end=0):
        self.subject, self.key, self.start, self.end = subject, key, start, end


@_node
class BinOp(Expr):
    """A binary operator application, `left op right`."""

    op: str
    left: Expr
    right: Expr

    def __init__(self, op, left, right, start=0, end=0):
        self.op, self.left, self.right, self.start, self.end = op, left, right, start, end


@_node
class UnaryOp(Expr):
    """A unary operator application: `-e` or `not e`."""

    op: str
    operand: Expr

    def __init__(self, op, operand, start=0, end=0):
        self.op, self.operand, self.start, self.end = op, operand, start, end


@_node
class If(Expr):
    """`if cond do then else orelse end`."""

    cond: Expr
    then: Expr
    orelse: Expr

    def __init__(self, cond, then, orelse, start=0, end=0):
        self.cond, self.then, self.orelse, self.start, self.end = cond, then, orelse, start, end


@_node
class CaseClause(Node):
    """One `pattern -> body` clause of a `case`."""

    pattern: Expr | Pattern
    body: Expr

    def __init__(self, pattern, body, start=0, end=0):
        self.pattern, self.body, self.start, self.end = pattern, body, start, end


@_node
class Case(Expr):
    """`case subject do clauses end`."""

    subject: Expr
    clauses: list[CaseClause]

    def __init__(self, subject, clauses, start=0, end=0):
        self.subject, self.clauses, self.start, self.end = subject, clauses, start, end


@_node
class CondClause(Node):
    """One `cond -> body` clause of a `cond`."""

    cond: Expr
    body: Expr

    def __init__(self, cond, body, start=0, end=0):
        self.cond, self.body, self.start, self.end = cond, body, start, end


@_node
class Cond(Expr):
    """`cond do clauses end`."""

    clauses: list[CondClause]

    def __init__(self, clauses, start=0, end=0):
        self.clauses, self.start, self.end = clauses, start, end


@_node
class Call(Expr):
    """Named function application, optionally qualified by a module path."""

    qualifier: tuple[str, ...]
    name: str
    args: list[Expr]

    def __init__(self, qualifier, name, args, start=0, end=0):
        self.qualifier, self.name, self.args = qualifier, name, args
        self.start, self.end = start, end


@_node
class VarCall(Expr):
    """Application of a variable bound to an anonymous function: x.(args)."""

    name: str
    args: list[Expr]

    def __init__(self, name, args, start=0, end=0):
        self.name, self.args, self.start, self.end = name, args, start, end


@_node
class AnonFn(Expr):
    """An anonymous function, `fn (params) -> body end`."""

    params: list[Expr | Pattern]
    body: Expr

    def __init__(self, params, body, start=0, end=0):
        self.params, self.body, self.start, self.end = params, body, start, end


@_node
class Match(Expr):
    """A match, `pattern = value`."""

    pattern: Expr | Pattern
    value: Expr

    def __init__(self, pattern, value, start=0, end=0):
        self.pattern, self.value, self.start, self.end = pattern, value, start, end


@_node
class Seq(Expr):
    """Two statements in order: `first` then `second`."""

    first: Expr
    second: Expr

    def __init__(self, first, second, start=0, end=0):
        self.first, self.second, self.start, self.end = first, second, start, end


# --- declarations and programs ----------------------------------------------


@_node
class SpecDecl(Node):
    """A signature, `@spec name(params) :: result`."""

    name: str
    params: list[Type]
    result: Type

    def __init__(self, name, params, result, start=0, end=0):
        self.name, self.params, self.result, self.start, self.end = name, params, result, start, end


@_node
class FunctionDef(Node):
    """A clause of a named function, `def name(params) do body end`."""

    name: str
    params: list[Expr | Pattern]
    body: Expr

    def __init__(self, name, params, body, start=0, end=0):
        self.name, self.params, self.body, self.start, self.end = name, params, body, start, end


@_node
class ModuleDef(Node):
    """A module, `defmodule name do body end`."""

    name: str
    body: list[Node]

    def __init__(self, name, body, start=0, end=0):
        self.name, self.body, self.start, self.end = name, body, start, end


@dataclass(slots=True)
class Program(Node):
    """A parsed file: its items, its path and its `Source`."""

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


# `dump`'s name for a node in a pattern: one under a `pattern` or `params`
# field, or under such a node. A `@spec`'s `params` are types, which print
# as a scalar.
_PATTERN_NAMES = {"Var": "VarPattern", "TupleExpr": "TuplePattern",
                  "ElistExpr": "ElistPattern", "ConsExpr": "ConsPattern",
                  "MapExpr": "MapPattern"}


def dump(node: Node) -> str:
    """Readable tree rendering of an AST, one node per line.

    The walk keeps its own stack, so a sequence or operator chain of any
    length dumps; the parser builds those with loops too.
    """
    lines = []
    stack = [(node, 0, False)]
    while stack:
        item, indent, in_pattern = stack.pop()
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
            inner = in_pattern or name == "pattern" or name == "params"
            todo.append((pad + f"  {name}:", indent, inner))
            for sub in value:
                if isinstance(sub, tuple):
                    key, sub = sub
                    todo.append((pad + f"    {key} =>", indent, inner))
                    todo.append((sub, indent + 3, inner))
                else:
                    todo.append((sub, indent + 2, inner))
        label = type(item).__name__
        if in_pattern:
            label = _PATTERN_NAMES.get(label, label)
        lines.append(" ".join([pad + label, *scalars]))
        stack.extend(reversed(todo))
    return "\n".join(lines)
