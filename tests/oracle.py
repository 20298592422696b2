"""Brute-force oracle over a finite type universe.

Computes the declarative subtyping and precision relations as least fixpoints
of their rules, the reachability closure of subsumption + downcast steps, and
minimal upper / maximal lower bounds by exhaustive search. Used by the test
suite to validate the structural `fits`, `join` and `meet` implementations;
never used by the checker itself.
"""
from __future__ import annotations

from itertools import product

from extc.types import (
    ANY, ATOM, AtomLiteralType, BOOLEAN, FLOAT, FunctionType, INTEGER, ListType,
    MapKey, MapType, NONE, STRING, TERM, TupleType, Type,
)

DEFAULT_BASES: tuple[Type, ...] = (
    NONE, TERM, INTEGER, FLOAT, BOOLEAN, STRING, ATOM,
    AtomLiteralType("a"), AtomLiteralType("b"), ANY,
)

DEFAULT_MAP_KEYS: tuple[MapKey, ...] = (MapKey("atom", "a"), MapKey("integer", 1))


def contains_any(t: Type) -> bool:
    if t is ANY:
        return True
    if isinstance(t, ListType):
        return contains_any(t.element)
    if isinstance(t, TupleType):
        return any(contains_any(i) for i in t.items)
    if isinstance(t, MapType):
        return any(contains_any(v) for _, v in t.entries)
    if isinstance(t, FunctionType):
        return any(contains_any(p) for p in t.params) or contains_any(t.result)
    return False


def _key_subsets(keys: tuple[MapKey, ...]):
    for mask in range(1 << len(keys)):
        yield tuple(k for i, k in enumerate(keys) if mask >> i & 1)


def enumerate_types(depth: int = 2, bases: tuple[Type, ...] = DEFAULT_BASES,
                    tuple_arities: tuple[int, ...] = (2,),
                    map_keys: tuple[MapKey, ...] = DEFAULT_MAP_KEYS,
                    fn_arities: tuple[int, ...] = (1,)) -> list[Type]:
    """All types up to the given structural depth, deterministically ordered.

    Depth 1 is the base set; each further level adds lists, tuples, maps and
    functions whose components come from the level below.
    """
    seen = set(bases)
    universe = list(bases)
    level = list(bases)
    for _ in range(depth - 1):
        new: list[Type] = []
        new.extend(ListType(t) for t in level)
        for arity in tuple_arities:
            new.extend(TupleType(combo) for combo in product(level, repeat=arity))
        for subset in _key_subsets(map_keys):
            for values in product(level, repeat=len(subset)):
                new.append(MapType(tuple(zip(subset, values))))
        for arity in fn_arities:
            for params in product(level, repeat=arity):
                new.extend(FunctionType(params, result) for result in level)
        level = universe + [t for t in new if t not in seen]
        for t in new:
            if t not in seen:
                seen.add(t)
                universe.append(t)
    return universe


class AmbiguousBoundError(Exception):
    def __init__(self, candidates: list[Type]):
        super().__init__(f"bound is not unique: {[str(c) for c in candidates]}")
        self.candidates = candidates


class TypeUniverse:
    """A finite set of types with the declarative relations computed over it.

    Relation rows are integer bitmasks: `sub[i]` has bit j set iff the i-th
    type is derivably a subtype of the j-th.
    """

    def __init__(self, types_list: list[Type]):
        self.types = list(types_list)
        self.index = {t: i for i, t in enumerate(self.types)}
        self._sub: list[int] | None = None
        self._sub_col: list[int] | None = None
        self._prec: list[int] | None = None
        self._prec_col: list[int] | None = None
        self._reach: list[int] | None = None

    def __len__(self) -> int:
        return len(self.types)

    def __contains__(self, t: Type) -> bool:
        return t in self.index

    # --- declarative subtyping, as a least fixpoint ---

    @property
    def sub(self) -> list[int]:
        if self._sub is None:
            self._sub = self._compute_sub()
            self._sub_col = _transpose(self._sub)
        return self._sub

    @property
    def sub_col(self) -> list[int]:
        self.sub
        return self._sub_col

    def _compute_sub(self) -> list[int]:
        n = len(self.types)
        full = (1 << n) - 1
        rows = [1 << i for i in range(n)]  # reflexivity
        term_mask = 0
        for j, u in enumerate(self.types):
            if u is TERM:
                term_mask |= 1 << j
        for i, t in enumerate(self.types):
            rows[i] |= term_mask  # everything below term
            if t is NONE:
                rows[i] = full  # none below everything
            for j, u in enumerate(self.types):
                if t is INTEGER and u is FLOAT:
                    rows[i] |= 1 << j
                if isinstance(t, AtomLiteralType) and u is ATOM:
                    rows[i] |= 1 << j

        changed = True
        while changed:
            changed = False
            for i, t in enumerate(self.types):
                for j, u in enumerate(self.types):
                    if rows[i] >> j & 1:
                        continue
                    if self._structural(t, u, rows, precision=False):
                        rows[i] |= 1 << j
                        changed = True
            # transitivity
            for k in range(n):
                bit = 1 << k
                row_k = rows[k]
                for i in range(n):
                    if rows[i] & bit and rows[i] | row_k != rows[i]:
                        rows[i] |= row_k
                        changed = True
        return rows

    def _structural(self, t: Type, u: Type, rows: list[int], precision: bool) -> bool:
        """The one structural rule behind subtyping and precision, given the
        relation so far in `rows`. The two differ only on maps, where
        subtyping allows width and precision needs the same keys, and on
        function parameters, contravariant under subtyping only."""
        rel = lambda a, b: bool(rows[self.index[a]] >> self.index[b] & 1)
        if isinstance(t, ListType) and isinstance(u, ListType):
            return rel(t.element, u.element)
        if isinstance(t, TupleType) and isinstance(u, TupleType):
            return len(t.items) == len(u.items) and all(
                rel(a, b) for a, b in zip(t.items, u.items))
        if isinstance(t, MapType) and isinstance(u, MapType):
            if precision and t.keys() != u.keys():
                return False
            for key, value_u in u.entries:
                value_t = t.get(key)
                if value_t is None or not rel(value_t, value_u):
                    return False
            return True
        if isinstance(t, FunctionType) and isinstance(u, FunctionType):
            if len(t.params) != len(u.params):
                return False
            params = zip(t.params, u.params) if precision else zip(u.params, t.params)
            return all(rel(a, b) for a, b in params) and rel(t.result, u.result)
        return False

    # --- declarative precision ---

    @property
    def prec(self) -> list[int]:
        if self._prec is None:
            self._prec = self._compute_prec()
            self._prec_col = _transpose(self._prec)
        return self._prec

    @property
    def prec_col(self) -> list[int]:
        self.prec
        return self._prec_col

    def _compute_prec(self) -> list[int]:
        n = len(self.types)
        rows = [1 << i for i in range(n)]  # reflexivity
        any_mask = 0
        for j, u in enumerate(self.types):
            if u is ANY:
                any_mask |= 1 << j
        for i in range(n):
            rows[i] |= any_mask  # everything is more precise than any

        changed = True
        while changed:
            changed = False
            for i, t in enumerate(self.types):
                for j, u in enumerate(self.types):
                    if rows[i] >> j & 1:
                        continue
                    if self._structural(t, u, rows, precision=True):
                        rows[i] |= 1 << j
                        changed = True
        return rows

    # --- reachability: subsumption and downcast steps ---

    @property
    def reach(self) -> list[int]:
        if self._reach is None:
            n = len(self.types)
            down = [0] * n  # down[v] = types reachable from v by one downcast
            for w in range(n):
                row = self.prec[w]
                for v in range(n):
                    if row >> v & 1:
                        down[v] |= 1 << w
            rows = [self.sub[i] | down[i] for i in range(n)]
            changed = True
            while changed:
                changed = False
                for k in range(n):
                    bit = 1 << k
                    row_k = rows[k]
                    for i in range(n):
                        if rows[i] & bit and rows[i] | row_k != rows[i]:
                            rows[i] |= row_k
                            changed = True
            self._reach = rows
        return self._reach


def closure_fits(universe: TypeUniverse, t: Type, u: Type) -> bool:
    """Whether u is derivable for an expression of type t by alternating
    subtyping and downcast steps, possibly discharged by a final precision
    premise."""
    i = universe.index[t]
    j = universe.index[u]
    return bool(universe.reach[i] & universe.prec_col[j])


def brute_lub(universe: TypeUniverse, t: Type, u: Type) -> Type:
    """Minimal upper bound of two any-free types under the declarative
    subtyping closure; raises if it is not unique."""
    if contains_any(t) or contains_any(u):
        raise ValueError("brute_lub is defined for any-free types")
    i = universe.index[t]
    j = universe.index[u]
    ubs = universe.sub[i] & universe.sub[j]
    minimal = []
    mask = ubs
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        if universe.sub_col[v] & ubs == 1 << v:
            minimal.append(v)
    if len(minimal) != 1:
        raise AmbiguousBoundError([universe.types[v] for v in minimal])
    return universe.types[minimal[0]]


def brute_glb(universe: TypeUniverse, t: Type, u: Type) -> Type:
    """Maximal lower bound of two any-free types; dual of brute_lub."""
    if contains_any(t) or contains_any(u):
        raise ValueError("brute_glb is defined for any-free types")
    i = universe.index[t]
    j = universe.index[u]
    lbs = universe.sub_col[i] & universe.sub_col[j]
    maximal = []
    mask = lbs
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        if universe.sub[v] & lbs == 1 << v:
            maximal.append(v)
    if len(maximal) != 1:
        raise AmbiguousBoundError([universe.types[v] for v in maximal])
    return universe.types[maximal[0]]


def _transpose(rows: list[int]) -> list[int]:
    n = len(rows)
    cols = [0] * n
    for i in range(n):
        row = rows[i]
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            cols[j] |= 1 << i
    return cols


def default_universe() -> TypeUniverse:
    return TypeUniverse(enumerate_types())
