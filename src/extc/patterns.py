"""Pattern checking against an expected type.

One traversal serves three judgement shapes, selected by mode:

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

from enum import Enum

from . import syntax, types
from .diagnostics import (
    CheckFailure, E_NONLINEAR_MISMATCH, E_PATTERN_TYPE, E_PIN_UNBOUND,
    E_UNKNOWN_KEY,
)
from .types import ANY, ListType, MapType, TERM, TupleType, Type, fits, is_more_precise, join


class PatternMode(Enum):
    MATCH = "match"
    CASE = "case"
    SPEC = "spec"


def _mismatch(pattern, expected: Type, actual: Type | None = None) -> CheckFailure:
    return CheckFailure(
        E_PATTERN_TYPE,
        f"pattern cannot match a value of type {expected}",
        pattern.span,
        expected=str(expected),
        actual=None if actual is None else str(actual),
    )


def _pinned(pattern, sigma: dict) -> Type:
    """The type the enclosing scope gives a pinned variable."""
    pinned = sigma.get(pattern.name)
    if pinned is None:
        raise CheckFailure(E_PIN_UNBOUND, f"pinned variable '{pattern.name}' is not bound "
                           "in the enclosing scope", pattern.span)
    return pinned


def _fits_in_mode(actual: Type, expected: Type, mode: PatternMode) -> bool:
    """Whether a literal or pin of type `actual` may stand where `expected` is."""
    if mode is PatternMode.MATCH:
        return fits(expected, actual)
    if mode is PatternMode.CASE:
        return fits(actual, expected)
    return is_more_precise(actual, expected)


def check_pattern(pattern, expected: Type, sigma: dict, gamma: dict,
                  mode: PatternMode) -> dict:
    """Check `pattern` against `expected`, returning `gamma` extended with the
    pattern's bindings. `sigma` is the enclosing scope, consulted for pins."""
    out = dict(gamma)
    _check(pattern, expected, sigma, out, mode)
    return out


def _check(pattern, expected: Type, sigma: dict, gamma: dict, mode: PatternMode):
    if isinstance(pattern, syntax.Wildcard):
        return

    if isinstance(pattern, syntax.Literal):
        lit_type = types.literal_type(pattern)
        if not _fits_in_mode(lit_type, expected, mode):
            raise _mismatch(pattern, expected, lit_type)
        return

    if isinstance(pattern, syntax.VarPattern):
        bound = gamma.get(pattern.name)
        if bound is None:
            gamma[pattern.name] = expected
        elif bound != expected:
            raise CheckFailure(
                E_NONLINEAR_MISMATCH,
                f"variable '{pattern.name}' is already bound with type {bound} "
                f"but is required here at type {expected}",
                pattern.span,
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
    if expected is ANY or (expected is TERM and mode is PatternMode.CASE):
        for sub in syntax.children(pattern):
            _check(sub, expected, sigma, gamma, mode)
        return
    if expected is TERM:
        raise _mismatch(pattern, expected)

    if isinstance(pattern, syntax.TuplePattern):
        if not isinstance(expected, TupleType) or len(expected.items) != len(pattern.items):
            raise _mismatch(pattern, expected)
        for sub, sub_type in zip(pattern.items, expected.items):
            _check(sub, sub_type, sigma, gamma, mode)
        return

    if isinstance(pattern, syntax.ElistPattern):
        if not isinstance(expected, ListType):
            raise _mismatch(pattern, expected)
        return

    if isinstance(pattern, syntax.ConsPattern):
        if not isinstance(expected, ListType):
            raise _mismatch(pattern, expected)
        _check(pattern.head, expected.element, sigma, gamma, mode)
        _check(pattern.tail, expected, sigma, gamma, mode)
        return

    if isinstance(pattern, syntax.MapPattern):
        if not isinstance(expected, MapType):
            raise _mismatch(pattern, expected)
        for key, sub in pattern.entries:
            value_type = expected.get(key)
            if value_type is None:
                raise CheckFailure(
                    E_UNKNOWN_KEY,
                    f"key {key} does not occur in the expected map type {expected}",
                    pattern.span,
                    expected=str(expected),
                )
            _check(sub, value_type, sigma, gamma, mode)
        if mode is PatternMode.SPEC and len(pattern.entries) != len(expected.entries):
            # Precision relates maps with identical key sets only.
            raise CheckFailure(
                E_PATTERN_TYPE,
                f"map pattern must name exactly the keys of the declared type {expected}",
                pattern.span,
                expected=str(expected),
            )
        return

    raise _mismatch(pattern, expected)


def check_case_pattern(pattern, selector_type: Type, sigma: dict) -> tuple[dict, bool]:
    """Case-branch pattern check with fallback. Returns the bindings and
    whether the fallback widening was needed (the branch can never match).
    After a structural failure against the selector type the pattern is
    re-checked against `term`: the selector is upcast to the top type."""
    try:
        return check_pattern(pattern, selector_type, sigma, {}, PatternMode.CASE), False
    except CheckFailure as err:
        if err.code in (E_PATTERN_TYPE, E_UNKNOWN_KEY):
            return check_pattern(pattern, TERM, sigma, {}, PatternMode.CASE), True
        raise


def natural_pattern_type(pattern, sigma: dict, gamma: dict | None = None) -> tuple[Type, dict]:
    """Type an anonymous-function parameter pattern with no expected type.

    Literals keep their own type, variables and wildcards are unknown, pins
    take the enclosing binding, structured patterns compose.
    """
    natural = _natural_type(pattern, sigma)
    bindings = check_pattern(pattern, natural, sigma, gamma or {}, PatternMode.CASE)
    return natural, bindings


def _natural_type(pattern, sigma: dict) -> Type:
    if isinstance(pattern, (syntax.Wildcard, syntax.VarPattern)):
        return ANY
    if isinstance(pattern, syntax.Literal):
        return types.literal_type(pattern)
    if isinstance(pattern, syntax.PinPattern):
        return _pinned(pattern, sigma)
    if isinstance(pattern, syntax.TuplePattern):
        return TupleType(tuple(_natural_type(p, sigma) for p in pattern.items))
    if isinstance(pattern, syntax.ElistPattern):
        return ListType(ANY)
    if isinstance(pattern, syntax.ConsPattern):
        head = _natural_type(pattern.head, sigma)
        tail = _natural_type(pattern.tail, sigma)
        if tail is ANY:
            tail_elem: Type = ANY
        elif isinstance(tail, ListType):
            tail_elem = tail.element
        else:
            raise _mismatch(pattern.tail, ListType(head), tail)
        return ListType(join(head, tail_elem))
    if isinstance(pattern, syntax.MapPattern):
        return MapType([(k, _natural_type(p, sigma)) for k, p in pattern.entries])
    raise _mismatch(pattern, ANY)
