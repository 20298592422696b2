"""The type language and its lattice: subtyping, precision, fits, join and meet.

The eight base types (`none`, `term`, `any`, `integer`, `float`, `boolean`,
`string`, `atom`) are the eight values of one class, `BaseType`; atom
singletons and the four constructors (list, tuple, map, function) are a class
each. Each relation is one structural walk: `_sub` serves both `is_subtype` and
`fits`, and `_bound` serves both `join` and `meet`.
"""
from __future__ import annotations

from dataclasses import dataclass

_KEY_KINDS = ("atom", "boolean", "integer")


@dataclass(frozen=True)
class MapKey:
    """A map key: an atom, a boolean or an integer literal.

    Booleans must not be conflated with the integers 0/1 (Python's bool is an
    int), so the kind tag takes part in identity and ordering.
    """

    kind: str
    value: object

    def __post_init__(self):
        if self.kind not in _KEY_KINDS:
            raise ValueError(f"bad map key kind: {self.kind!r}")

    @classmethod
    def atom(cls, name: str) -> "MapKey":
        return cls("atom", name)

    @classmethod
    def boolean(cls, value: bool) -> "MapKey":
        return cls("boolean", bool(value))

    @classmethod
    def integer(cls, value: int) -> "MapKey":
        return cls("integer", int(value))

    def sort_key(self):
        return (_KEY_KINDS.index(self.kind), str(self.value) if self.kind == "atom" else self.value)

    def __str__(self) -> str:
        if self.kind == "atom":
            return f":{self.value}"
        if self.kind == "boolean":
            return "true" if self.value else "false"
        return str(self.value)


class Type:
    """Base class of all types; concrete variants are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class BaseType(Type):
    """A base type, named as in typespecs; the eight constants below are its
    only instances, so a base type is tested with `is`."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        # The capitalized name followed by `Type()`: `extc parse` prints spec
        # types through `syntax.dump`'s `repr`, and `tests/golden/parse.txt`
        # pins those bytes.
        return f"{self.name.capitalize()}Type()"


@dataclass(frozen=True)
class AtomLiteralType(Type):
    """A singleton type: the atom `:name` inhabited only by itself."""

    name: str

    def __str__(self) -> str:
        return f":{self.name}"


@dataclass(frozen=True)
class ListType(Type):
    element: Type

    def __str__(self) -> str:
        return f"[{self.element}]"


@dataclass(frozen=True)
class TupleType(Type):
    items: tuple[Type, ...]

    def __str__(self) -> str:
        return "{" + ", ".join(str(t) for t in self.items) + "}"


@dataclass(frozen=True, init=False)
class MapType(Type):
    """A record-like map type; keys are normalized so equality ignores order."""

    entries: tuple[tuple[MapKey, Type], ...]

    def __init__(self, entries):
        if isinstance(entries, dict):
            entries = entries.items()
        pairs = tuple(sorted(entries, key=lambda kv: kv[0].sort_key()))
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate map key {key}")
            seen.add(key)
        object.__setattr__(self, "entries", pairs)

    def keys(self) -> tuple[MapKey, ...]:
        return tuple(k for k, _ in self.entries)

    def get(self, key: MapKey) -> Type | None:
        for k, t in self.entries:
            if k == key:
                return t
        return None

    def __str__(self) -> str:
        return "%{" + ", ".join(f"{k} => {t}" for k, t in self.entries) + "}"


@dataclass(frozen=True)
class FunctionType(Type):
    params: tuple[Type, ...]
    result: Type

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.params)
        return f"({args}) -> {self.result}"


BASE_TYPE_NAMES = {name: BaseType(name) for name in (
    "none", "term", "any", "integer", "float", "boolean", "string", "atom")}
NONE, TERM, ANY, INTEGER, FLOAT, BOOLEAN, STRING, ATOM = BASE_TYPE_NAMES.values()


def literal_type(lit) -> Type:
    """Type of a literal: numbers, strings and booleans get their base type,
    atoms are singleton types."""
    from . import syntax

    if isinstance(lit, syntax.IntLit):
        return INTEGER
    if isinstance(lit, syntax.FloatLit):
        return FLOAT
    if isinstance(lit, syntax.StringLit):
        return STRING
    if isinstance(lit, syntax.BoolLit):
        return BOOLEAN
    if isinstance(lit, syntax.AtomLit):
        return AtomLiteralType(lit.name)
    raise TypeError(f"not a literal: {lit!r}")


def _sub(t: Type, u: Type, gradual: bool) -> bool:
    """The one structural walk behind `is_subtype` and `fits`, which differ
    only in what `any` relates to once the bounds and equality are settled."""
    if t == u or t is NONE or u is TERM:
        return True
    if t is ANY or u is ANY:
        return gradual
    if t is INTEGER and u is FLOAT:
        return True
    if isinstance(t, AtomLiteralType) and u is ATOM:
        return True
    if isinstance(t, ListType) and isinstance(u, ListType):
        return _sub(t.element, u.element, gradual)
    if isinstance(t, TupleType) and isinstance(u, TupleType):
        return len(t.items) == len(u.items) and all(
            _sub(a, b, gradual) for a, b in zip(t.items, u.items)
        )
    if isinstance(t, MapType) and isinstance(u, MapType):
        # Width subtyping: the supertype may expose fewer keys.
        for key, value_u in u.entries:
            value_t = t.get(key)
            if value_t is None or not _sub(value_t, value_u, gradual):
                return False
        return True
    if isinstance(t, FunctionType) and isinstance(u, FunctionType):
        if len(t.params) != len(u.params):
            return False
        return all(_sub(up, tp, gradual) for up, tp in zip(u.params, t.params)) and _sub(
            t.result, u.result, gradual
        )
    return False


def is_subtype(t: Type, u: Type) -> bool:
    """Structural subtyping.

    `none` is the bottom and `term` the top; `any` is below `term` and above
    `none` like every type, but otherwise relates only to itself.
    """
    return _sub(t, u, False)


def is_more_precise(u: Type, t: Type) -> bool:
    """Precision: u refines occurrences of `any` in t. Covariant everywhere."""
    if u == t:
        return True
    if t is ANY:
        return True
    if isinstance(u, ListType) and isinstance(t, ListType):
        return is_more_precise(u.element, t.element)
    if isinstance(u, TupleType) and isinstance(t, TupleType):
        return len(u.items) == len(t.items) and all(
            is_more_precise(a, b) for a, b in zip(u.items, t.items)
        )
    if isinstance(u, MapType) and isinstance(t, MapType):
        if u.keys() != t.keys():
            return False
        return all(is_more_precise(a, b) for (_, a), (_, b) in zip(u.entries, t.entries))
    if isinstance(u, FunctionType) and isinstance(t, FunctionType):
        if len(u.params) != len(t.params):
            return False
        return all(is_more_precise(a, b) for a, b in zip(u.params, t.params)) and is_more_precise(
            u.result, t.result
        )
    return False


def fits(t: Type, u: Type) -> bool:
    """Whether a value of type t is acceptable where u is expected.

    This is the single compatibility relation used at every expected-type
    position: plain subtyping on static types, with `any` accepted in either
    role (upcast into an unknown position, downcast out of one).
    """
    return _sub(t, u, True)


def _bound(t: Type, u: Type, up: bool) -> Type:
    """The one walk behind `join` (`up`) and `meet`: same constructors combine
    component-wise, with function parameters bounded the other way; otherwise
    a pair ordered by subtyping gives its upper or lower end, and `any`
    materializes to the other side."""
    if t == u:
        return t
    if isinstance(t, ListType) and isinstance(u, ListType):
        return ListType(_bound(t.element, u.element, up))
    if isinstance(t, TupleType) and isinstance(u, TupleType) and len(t.items) == len(u.items):
        return TupleType(tuple(_bound(a, b, up) for a, b in zip(t.items, u.items)))
    if isinstance(t, MapType) and isinstance(u, MapType):
        # The upper bound keeps the shared keys, the lower bound every key.
        mine, theirs = dict(t.entries), dict(u.entries)
        shared = {k: _bound(v, theirs[k], up) for k, v in mine.items() if k in theirs}
        return MapType(shared if up else {**mine, **theirs, **shared})
    if isinstance(t, FunctionType) and isinstance(u, FunctionType) and len(t.params) == len(u.params):
        params = tuple(_bound(a, b, not up) for a, b in zip(t.params, u.params))
        return FunctionType(params, _bound(t.result, u.result, up))
    if _sub(t, u, False):
        return u if up else t
    if _sub(u, t, False):
        return t if up else u
    if t is ANY:
        return u
    if u is ANY:
        return t
    if up and isinstance(t, AtomLiteralType) and isinstance(u, AtomLiteralType):
        return ATOM
    return TERM if up else NONE


def join(t: Type, u: Type) -> Type:
    """Least upper bound under subtyping; `any` joins by materializing to the
    other side, so a gradual branch never widens a static one."""
    return _bound(t, u, True)


def meet(t: Type, u: Type) -> Type:
    """Greatest lower bound under subtyping; dual of join."""
    return _bound(t, u, False)
