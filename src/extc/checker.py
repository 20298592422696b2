"""Whole-program checking: signature collection, module traversal, function
clause checking and top-level expressions."""
from __future__ import annotations

from . import syntax
from .diagnostics import (
    CheckFailure, Diagnostic, E_PARSE, E_PATTERN_TYPE, E_SPEC_BODY_MISMATCH,
    E_SPEC_PARAM_MISMATCH, I_UNTYPED_DEF,
)
from .envs import qualify
from .expressions import ExprChecker
from .patterns import SPEC, check_pattern
from .signatures import collect_all, scopes
from .types import fits


def check_programs(programs: list[syntax.Program], collected=None) -> list[Diagnostic]:
    """Check several files against their shared signatures, `collect_all(programs)`
    if not given. The diagnostics come in the order found; callers sort them."""
    sigs, diags = collected or collect_all(programs)
    for program, prefix, items in scopes(programs):
        checker = ExprChecker(sigs, prefix, program, sink=diags)
        for item in items:
            try:
                if isinstance(item, syntax.FunctionDef):
                    check_function_clause(item, checker)
                elif not isinstance(item, (syntax.ModuleDef, syntax.SpecDecl)):  # specs are trusted
                    checker.synthesize(item, {})
            except CheckFailure as err:
                diags.append(Diagnostic.at(program, err, err.code, err.message,
                                           expected=err.expected, actual=err.actual))
            except RecursionError:  # a type that variables carry past `RECURSION_LIMIT`
                diags.append(Diagnostic.at(program, item, E_PARSE, "nesting too deep"))
    return diags


def check_function_clause(clause: syntax.FunctionDef, checker: ExprChecker):
    """Check one `def` clause against its declared signature, if any, with the
    checker of its module scope; raise the failure that stops it."""
    name = qualify(checker.prefix, clause.name)
    arity = len(clause.params)
    fn_type = checker.sigs.lookup(name, arity)
    if fn_type is None:
        checker.sink.append(Diagnostic.at(
            checker.program, clause, I_UNTYPED_DEF,
            f"{name}/{arity} has no @spec; the definition is accepted unchecked"))
        return

    # Parameter patterns are checked left to right against the declared
    # parameter types, sharing one binding environment; the enclosing scope is
    # empty, so pins can never resolve here.
    gamma: dict = {}
    try:
        for pattern, declared in zip(clause.params, fn_type.params):
            check_pattern(pattern, declared, {}, gamma, SPEC)
    except CheckFailure as err:
        if err.code != E_PATTERN_TYPE:
            raise
        raise CheckFailure(
            E_SPEC_PARAM_MISMATCH,
            f"parameter pattern of {name}/{arity} does not refine its declared type: "
            f"{err.message}",
            err,
            expected=err.expected,
            actual=err.actual,
        ) from None

    body_t, _ = checker.synthesize(clause.body, gamma)
    if not fits(body_t, fn_type.result):
        raise CheckFailure(
            E_SPEC_BODY_MISMATCH,
            f"body of {name}/{arity} has type {body_t} but the @spec declares "
            f"{fn_type.result}",
            clause.body,
            expected=str(fn_type.result),
            actual=str(body_t),
        )
