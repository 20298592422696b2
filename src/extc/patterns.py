"""Pattern checking against an expected type.

A pattern is the node the parser built for it as an expression: a `Var`,
`TupleExpr`, `ElistExpr`, `ConsExpr` or `MapExpr`, or a literal, `Wildcard`
or `PinPattern`. One traversal serves three judgement shapes, selected by mode:

* MATCH  - `p = e`: the matched value's type must convert to the type the
  pattern demands at each position (upcast by subsumption, downcast out of
  `any`).
* CASE   - `case` branches: the pattern's type must sit below the selector
  type at each position.
* SPEC   - `def` parameters against a declared signature: the pattern's type
  must be more precise than the declared one; no subsumption is available
  here, so e.g. map patterns must name exactly the declared keys.
"""
from __future__ import annotations

from . import syntax
from .diagnostics import (
    CheckFailure, E_NONLINEAR_MISMATCH, E_PATTERN_TYPE, E_PIN_UNBOUND,
    E_UNKNOWN_KEY,
)
from .types import (
    ANY, AtomLiteralType, BOOLEAN, FLOAT, INTEGER, ListType, MapType, STRING, TERM,
    TupleType, Type, fits, is_more_precise, join,
)


MATCH, CASE, SPEC = "match", "case", "spec"  # the modes above

# The base type of each literal class; an atom literal has its singleton type.
_LITERAL_TYPES = {syntax.IntLit: INTEGER, syntax.FloatLit: FLOAT, syntax.StringLit: STRING,
                  syntax.BoolLit: BOOLEAN}


def literal_type(lit: syntax.Literal) -> Type:
    return _LITERAL_TYPES.get(type(lit)) or AtomLiteralType(lit.name)


def _mismatch(pattern, expected: Type, actual: Type | None = None) -> CheckFailure:
    return CheckFailure(
        E_PATTERN_TYPE,
        f"pattern cannot match a value of type {expected}",
        pattern,
        expected=str(expected),
        actual=None if actual is None else str(actual),
    )


def _pinned(pattern, sigma: dict) -> Type:
    """The type the enclosing scope gives a pinned variable."""
    pinned = sigma.get(pattern.name)
    if pinned is None:
        raise CheckFailure(E_PIN_UNBOUND, f"pinned variable '{pattern.name}' is not bound "
                           "in the enclosing scope", pattern)
    return pinned


def _fits_in_mode(actual: Type, expected: Type, mode: str) -> bool:
    """Whether a literal or pin of type `actual` may stand where `expected` is."""
    if mode == MATCH:
        return fits(expected, actual)
    if mode == CASE:
        return fits(actual, expected)
    return is_more_precise(actual, expected)


def check_pattern(pattern, expected: Type, sigma: dict, gamma: dict, mode: str):
    """Check `pattern` against `expected`, adding its bindings to `gamma`, the
    caller's. `sigma` is the enclosing scope, consulted for pins."""
    if isinstance(pattern, syntax.Wildcard):
        return

    if isinstance(pattern, syntax.Literal):
        lit_type = literal_type(pattern)
        if not _fits_in_mode(lit_type, expected, mode):
            raise _mismatch(pattern, expected, lit_type)
        return

    if isinstance(pattern, syntax.Var):
        bound = gamma.get(pattern.name)
        if bound is None:
            gamma[pattern.name] = expected
        elif bound != expected:
            raise CheckFailure(
                E_NONLINEAR_MISMATCH,
                f"variable '{pattern.name}' is already bound with type {bound} "
                f"but is required here at type {expected}",
                pattern,
                expected=str(bound),
                actual=str(expected),
            )
        return

    if isinstance(pattern, syntax.PinPattern):
        pinned = _pinned(pattern, sigma)
        if not _fits_in_mode(pinned, expected, mode):
            raise _mismatch(pattern, expected, pinned)
        return

    # Structured patterns. Against `any` every sub-position is checked against
    # `any`; against `term` (the case-fallback widening) sub-positions recurse
    # against `term`, which only the CASE direction licenses.
    if expected is ANY or (expected is TERM and mode == CASE):
        for sub in syntax.children(pattern):
            check_pattern(sub, expected, sigma, gamma, mode)
        return
    if expected is TERM:
        raise _mismatch(pattern, expected)

    if isinstance(pattern, syntax.TupleExpr):
        if not isinstance(expected, TupleType) or len(expected.items) != len(pattern.items):
            raise _mismatch(pattern, expected)
        for sub, sub_type in zip(pattern.items, expected.items):
            check_pattern(sub, sub_type, sigma, gamma, mode)
        return

    if isinstance(pattern, syntax.ElistExpr):
        if not isinstance(expected, ListType):
            raise _mismatch(pattern, expected)
        return

    if isinstance(pattern, syntax.ConsExpr):
        if not isinstance(expected, ListType):
            raise _mismatch(pattern, expected)
        check_pattern(pattern.head, expected.element, sigma, gamma, mode)
        check_pattern(pattern.tail, expected, sigma, gamma, mode)
        return

    if isinstance(pattern, syntax.MapExpr):
        if not isinstance(expected, MapType):
            raise _mismatch(pattern, expected)
        for key, sub in pattern.entries:
            value_type = expected.get(key)
            if value_type is None:
                raise CheckFailure(
                    E_UNKNOWN_KEY,
                    f"key {key} does not occur in the expected map type {expected}",
                    pattern,
                    expected=str(expected),
                )
            check_pattern(sub, value_type, sigma, gamma, mode)
        if mode == SPEC and len(pattern.entries) != len(expected.entries):
            # Precision relates maps with identical key sets only.
            raise CheckFailure(
                E_PATTERN_TYPE,
                f"map pattern must name exactly the keys of the declared type {expected}",
                pattern,
                expected=str(expected),
            )
        return

    raise _mismatch(pattern, expected)


def check_case_pattern(pattern, selector_type: Type, sigma: dict) -> tuple[dict, bool]:
    """Case-branch pattern check with fallback. Returns the bindings and
    whether the fallback widening was needed (the branch can never match).
    After a structural failure against the selector type the pattern is
    re-checked against `term`: the selector is upcast to the top type."""
    bindings: dict = {}
    try:
        check_pattern(pattern, selector_type, sigma, bindings, CASE)
        return bindings, False
    except CheckFailure as err:
        if err.code not in (E_PATTERN_TYPE, E_UNKNOWN_KEY):
            raise
    bindings = {}
    check_pattern(pattern, TERM, sigma, bindings, CASE)
    return bindings, True


def natural_type(pattern, sigma: dict) -> Type:
    """The type of an anonymous-function parameter pattern, which has no
    expected type: literals keep their own type, variables and wildcards are
    unknown, pins take the enclosing binding, structured patterns compose."""
    if isinstance(pattern, (syntax.Wildcard, syntax.Var)):
        return ANY
    if isinstance(pattern, syntax.Literal):
        return literal_type(pattern)
    if isinstance(pattern, syntax.PinPattern):
        return _pinned(pattern, sigma)
    if isinstance(pattern, syntax.TupleExpr):
        return TupleType(tuple(natural_type(p, sigma) for p in pattern.items))
    if isinstance(pattern, syntax.ElistExpr):
        return ListType(ANY)
    if isinstance(pattern, syntax.ConsExpr):
        head = natural_type(pattern.head, sigma)
        tail = natural_type(pattern.tail, sigma)
        if tail is ANY:
            tail_elem: Type = ANY
        elif isinstance(tail, ListType):
            tail_elem = tail.element
        else:
            raise _mismatch(pattern.tail, ListType(head), tail)
        return ListType(join(head, tail_elem))
    if isinstance(pattern, syntax.MapExpr):
        return MapType([(k, natural_type(p, sigma)) for k, p in pattern.entries])
    raise _mismatch(pattern, ANY)
