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

A sequence of two or more statements is one `Block`, as Elixir's quoted form
holds one in a `__block__`, over its first to its last statement. A single
statement stands as itself, and a parenthesised `(a; b)` is a `Block` of its
own. `dump` writes a `Block`'s statements at one depth, side by side.

Each node class names its fields once, in order, in its `__slots__`, and
takes them and then its offsets positionally, through a plain `__init__`:
the parser builds a node for every few tokens, and a generated `__init__`
with keyword-only offsets took 383 ns a call against 266 ns (CPython 3.11).
`Node.__init_subclass__` derives the rest. `types.Record` appends the slots
to the `_fields` of the bases, so a class's `_fields` are `start`, `end`
and then its own fields, and `Record.__repr__` writes them in the form
`IntLit(start=0, end=0, value=5)`. `__match_args__` are the `_fields` after
the offsets, unless a class sets its own, as `Program` does to leave out
its `Source`: `children` and `dump` walk them. A node compares as every
`Record` does, by class and by every field, offsets included, and does not
hash, as a `Diagnostic` does not. Two trees that differ only in offsets
have the same `dump`, which leaves offsets out. No node class is a
dataclass, and importing `dataclasses` would cost a third of `extc`'s
start-up. Only `Node.__dataclass_fields__`, a `types.DataclassFields`, answers
`dataclasses.fields(node)`, which perfbench's traced node count calls; item
1 of ROADMAP.md removes it once that count walks `children`.
"""
from __future__ import annotations

from .types import DataclassFields, Record


class Node(Record):
    """An AST node: its fields, then the offsets of its source text."""

    __slots__ = ("start", "end")  # int, int
    __match_args__ = ()
    __dataclass_fields__ = DataclassFields()
    __hash__ = None  # mutable

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "__match_args__" not in cls.__dict__:
            cls.__match_args__ = cls._fields[2:]


class Expr(Node):
    __slots__ = ()


class Pattern(Node):
    """`_` and `^x`, which stand only in a pattern, and literals."""

    __slots__ = ()


class Literal(Expr, Pattern):
    """Literals appear both as expressions and as patterns."""

    __slots__ = ()


class IntLit(Literal):
    """An integer literal."""

    __slots__ = ("value",)  # int

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


class FloatLit(Literal):
    """A float literal."""

    __slots__ = ("value",)  # float

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


class StringLit(Literal):
    """A string literal."""

    __slots__ = ("value",)  # str

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


class BoolLit(Literal):
    """`true` or `false`."""

    __slots__ = ("value",)  # bool

    def __init__(self, value, start=0, end=0):
        self.value, self.start, self.end = value, start, end


class AtomLit(Literal):
    """An atom literal, `:name`."""

    __slots__ = ("name",)  # str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


# --- patterns ---------------------------------------------------------------


class Wildcard(Pattern):
    """The wildcard pattern `_`."""

    __slots__ = ()

    def __init__(self, start=0, end=0):
        self.start, self.end = start, end


class PinPattern(Pattern):
    """A pinned variable, `^name`, matched by its value."""

    __slots__ = ("name",)  # str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


# --- expressions ------------------------------------------------------------


class Var(Expr):
    """A variable reference."""

    __slots__ = ("name",)  # str

    def __init__(self, name, start=0, end=0):
        self.name, self.start, self.end = name, start, end


class TupleExpr(Expr):
    """A tuple, `{e, ...}`."""

    __slots__ = ("items",)  # list[Expr]

    def __init__(self, items, start=0, end=0):
        self.items, self.start, self.end = items, start, end


class ElistExpr(Expr):
    """The empty list `[]`."""

    __slots__ = ()

    def __init__(self, start=0, end=0):
        self.start, self.end = start, end


class ConsExpr(Expr):
    """A list cell, `[head | tail]`."""

    __slots__ = ("head", "tail")  # Expr, Expr

    def __init__(self, head, tail, start=0, end=0):
        self.head, self.tail, self.start, self.end = head, tail, start, end


class MapExpr(Expr):
    """A map, `%{key => e, ...}`."""

    __slots__ = ("entries",)  # list[tuple[MapKey, Expr]]

    def __init__(self, entries, start=0, end=0):
        self.entries, self.start, self.end = entries, start, end


class MapAccess(Expr):
    """A map lookup by a literal key, `subject[key]`."""

    __slots__ = ("subject", "key")  # Expr, MapKey

    def __init__(self, subject, key, start=0, end=0):
        self.subject, self.key, self.start, self.end = subject, key, start, end


class BinOp(Expr):
    """A binary operator application, `left op right`."""

    __slots__ = ("op", "left", "right")  # str, Expr, Expr

    def __init__(self, op, left, right, start=0, end=0):
        self.op, self.left, self.right, self.start, self.end = op, left, right, start, end


class UnaryOp(Expr):
    """A unary operator application: `-e` or `not e`."""

    __slots__ = ("op", "operand")  # str, Expr

    def __init__(self, op, operand, start=0, end=0):
        self.op, self.operand, self.start, self.end = op, operand, start, end


class If(Expr):
    """`if cond do then else orelse end`."""

    __slots__ = ("cond", "then", "orelse")  # Expr, Expr, Expr

    def __init__(self, cond, then, orelse, start=0, end=0):
        self.cond, self.then, self.orelse, self.start, self.end = cond, then, orelse, start, end


class CaseClause(Node):
    """One `pattern -> body` clause of a `case`."""

    __slots__ = ("pattern", "body")  # Expr | Pattern, Expr

    def __init__(self, pattern, body, start=0, end=0):
        self.pattern, self.body, self.start, self.end = pattern, body, start, end


class Case(Expr):
    """`case subject do clauses end`."""

    __slots__ = ("subject", "clauses")  # Expr, list[CaseClause]

    def __init__(self, subject, clauses, start=0, end=0):
        self.subject, self.clauses, self.start, self.end = subject, clauses, start, end


class CondClause(Node):
    """One `cond -> body` clause of a `cond`."""

    __slots__ = ("cond", "body")  # Expr, Expr

    def __init__(self, cond, body, start=0, end=0):
        self.cond, self.body, self.start, self.end = cond, body, start, end


class Cond(Expr):
    """`cond do clauses end`."""

    __slots__ = ("clauses",)  # list[CondClause]

    def __init__(self, clauses, start=0, end=0):
        self.clauses, self.start, self.end = clauses, start, end


class Call(Expr):
    """Named function application, optionally qualified by a module path."""

    __slots__ = ("qualifier", "name", "args")  # tuple[str, ...], str, list[Expr]

    def __init__(self, qualifier, name, args, start=0, end=0):
        self.qualifier, self.name, self.args = qualifier, name, args
        self.start, self.end = start, end


class VarCall(Expr):
    """Application of a variable bound to an anonymous function: x.(args)."""

    __slots__ = ("name", "args")  # str, list[Expr]

    def __init__(self, name, args, start=0, end=0):
        self.name, self.args, self.start, self.end = name, args, start, end


class AnonFn(Expr):
    """An anonymous function, `fn (params) -> body end`."""

    __slots__ = ("params", "body")  # list[Expr | Pattern], Expr

    def __init__(self, params, body, start=0, end=0):
        self.params, self.body, self.start, self.end = params, body, start, end


class Match(Expr):
    """A match, `pattern = value`."""

    __slots__ = ("pattern", "value")  # Expr | Pattern, Expr

    def __init__(self, pattern, value, start=0, end=0):
        self.pattern, self.value, self.start, self.end = pattern, value, start, end


class Block(Expr):
    """Two or more statements in order, as Elixir's `__block__`."""

    __slots__ = ("exprs",)  # list[Expr]

    def __init__(self, exprs, start=0, end=0):
        self.exprs, self.start, self.end = exprs, start, end


# --- declarations and programs ----------------------------------------------


class SpecDecl(Node):
    """A signature, `@spec name(params) :: result`."""

    __slots__ = ("name", "params", "result")  # str, list[Type], Type

    def __init__(self, name, params, result, start=0, end=0):
        self.name, self.params, self.result, self.start, self.end = name, params, result, start, end


class FunctionDef(Node):
    """A clause of a named function, `def name(params) do body end`."""

    __slots__ = ("name", "params", "body")  # str, list[Expr | Pattern], Expr

    def __init__(self, name, params, body, start=0, end=0):
        self.name, self.params, self.body, self.start, self.end = name, params, body, start, end


class ModuleDef(Node):
    """A module, `defmodule name do body end`."""

    __slots__ = ("name", "body")  # str, list[Node]

    def __init__(self, name, body, start=0, end=0):
        self.name, self.body, self.start, self.end = name, body, start, end


class Program(Node):
    """A parsed file: its items, its path and its `Source`."""

    __slots__ = ("items", "path", "source")  # list[Node], str, Source
    __match_args__ = ("items", "path")

    def __init__(self, items, path="<input>", *, source, start=0, end=0):
        self.items, self.path, self.source, self.start, self.end = items, path, source, start, end


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

    The walk keeps its own stack, so an operator or access chain of any
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
