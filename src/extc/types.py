"""The type language and its lattice: subtyping, precision, fits, join and meet.

The eight base types (`none`, `term`, `any`, `integer`, `float`, `boolean`,
`string`, `atom`) are the eight values of one class, `BaseType`; atom
singletons and the four constructors (list, tuple, map, function) are a class
each. Each relation is one structural walk: `_sub` serves both `is_subtype` and
`fits`, and `_bound` serves both `join` and `meet`.
"""
from __future__ import annotations

import sys
from operator import attrgetter

_KEY_KINDS = ("atom", "boolean", "integer")


class Record:
    """Equality, hashing and a dataclass-style repr, derived from the fields
    that the `__slots__` of a class and of its bases list, in that order."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += cls.__dict__.get("__slots__", ())
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class DataclassFields:
    """A `__dataclass_fields__` class attribute, so that `dataclasses.fields`
    lists a record's `_fields` without the record being a dataclass.

    Each class's answer is built on first read, from the `dataclasses` that
    the caller has imported, and cached here: set on the class that was read,
    it would also answer for every subclass."""

    def __init__(self):
        self.by_class = {}

    def __get__(self, instance, owner):
        if owner not in self.by_class:
            make = sys.modules["dataclasses"].make_dataclass
            self.by_class[owner] = make(owner.__name__, owner._fields).__dataclass_fields__
        return self.by_class[owner]


class Value(Record):
    """A record set once from its arguments, one per field; it refuses assignment
    and deletion."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} arguments")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class MapKey(Value):
    """A map key: an atom, a boolean or an integer literal.

    Booleans must not be conflated with the integers 0/1 (Python's bool is an
    int), so the kind tag takes part in identity and ordering.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value):
        if kind not in _KEY_KINDS:
            raise ValueError(f"bad map key kind: {kind!r}")
        object.__setattr__(self, "kind", kind)  # as `Value.__init__` does, without its loop
        object.__setattr__(self, "value", value)

    def sort_key(self):
        return (_KEY_KINDS.index(self.kind), str(self.value) if self.kind == "atom" else self.value)

    def __str__(self) -> str:
        if self.kind == "atom":
            return f":{self.value}"
        if self.kind == "boolean":
            return "true" if self.value else "false"
        return str(self.value)


class Type(Value):
    """Base class of all types, which compare and hash by class and fields."""

    __slots__ = ()


class BaseType(Type):
    """A base type, named as in typespecs; the eight constants below are its
    only instances, so a base type is tested, and compares, by identity."""

    __slots__ = ("name",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        # The capitalized name followed by `Type()`: `extc parse` prints spec
        # types through `syntax.dump`'s `repr`, and `tests/golden/parse.txt`
        # pins those bytes.
        return f"{self.name.capitalize()}Type()"


class AtomLiteralType(Type):
    """A singleton type: the atom `:name` inhabited only by itself."""

    __slots__ = ("name",)

    def __str__(self) -> str:
        return f":{self.name}"


class ListType(Type):
    __slots__ = ("element",)

    def __init__(self, element: Type):  # as `Value.__init__` does, without its loop
        object.__setattr__(self, "element", element)

    def __str__(self) -> str:
        return f"[{self.element}]"


class TupleType(Type):
    __slots__ = ("items",)  # tuple[Type, ...]

    def __init__(self, items: tuple[Type, ...]):
        object.__setattr__(self, "items", items)

    def __str__(self) -> str:
        return "{" + ", ".join(str(t) for t in self.items) + "}"


class MapType(Type):
    """A record-like map type; keys are normalized so equality ignores order."""

    __slots__ = ("entries",)  # tuple[tuple[MapKey, Type], ...]

    def __init__(self, entries):
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


class FunctionType(Type):
    __slots__ = ("params", "result")  # tuple[Type, ...], Type

    def __init__(self, params: tuple[Type, ...], result: Type):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "result", result)

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.params)
        return f"({args}) -> {self.result}"


BASE_TYPE_NAMES = {name: BaseType(name) for name in (
    "none", "term", "any", "integer", "float", "boolean", "string", "atom")}
NONE, TERM, ANY, INTEGER, FLOAT, BOOLEAN, STRING, ATOM = BASE_TYPE_NAMES.values()


def pack(t: Type):
    """`t` as `marshal` data, for `unpack` in another process: a base type as
    its name, any other type as a tuple of its tag and its parts."""
    return t.name if t.__class__ is BaseType else _PACK[t.__class__](t)


def unpack(data) -> Type:
    """The type `pack` gave `data` for; a base type is the constant of its name."""
    return BASE_TYPE_NAMES[data] if data.__class__ is str else _UNPACK[data[0]](data)


# A type's tag is the character its `@spec` syntax starts with.
_PACK = {
    AtomLiteralType: lambda t: (":", t.name),
    ListType: lambda t: ("[", pack(t.element)),
    TupleType: lambda t: ("{", *map(pack, t.items)),
    MapType: lambda t: ("%", *[(k.kind, k.value, pack(v)) for k, v in t.entries]),
    FunctionType: lambda t: ("(", pack(t.result), *map(pack, t.params)),
}
_UNPACK = {
    ":": lambda data: AtomLiteralType(data[1]),
    "[": lambda data: ListType(unpack(data[1])),
    "{": lambda data: TupleType(tuple(map(unpack, data[1:]))),
    "%": lambda data: MapType([(MapKey(kind, value), unpack(v)) for kind, value, v in data[1:]]),
    "(": lambda data: FunctionType(tuple(map(unpack, data[2:])), unpack(data[1])),
}


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
        return MapType((shared if up else {**mine, **theirs, **shared}).items())
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
