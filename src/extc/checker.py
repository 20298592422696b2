"""Whole-program checking: signature collection, module traversal, function
clause checking and top-level expressions."""
from __future__ import annotations

from . import syntax
from .diagnostics import (
    CheckFailure, Diagnostic, E_PATTERN_TYPE, E_SPEC_BODY_MISMATCH,
    E_SPEC_PARAM_MISMATCH, I_UNTYPED_DEF, sort_diagnostics,
)
from .envs import SignatureEnv, qualify
from .expressions import ExprChecker
from .patterns import PatternMode, check_pattern
from .signatures import collect_all
from .types import fits


def check_program(program: syntax.Program) -> list[Diagnostic]:
    """Check one program; an empty result means it is well-typed."""
    return check_programs([program])


def check_programs(programs: list[syntax.Program], collected=None) -> list[Diagnostic]:
    """Check several files against their shared signatures, `collect_all(programs)` if not given."""
    sigs, diags = collected or collect_all(programs)
    for program in programs:
        _check_items(program.items, (), sigs, diags, program.path)
    return sort_diagnostics(diags)


def _check_items(items, prefix: tuple[str, ...], sigs: SignatureEnv,
                 diags: list[Diagnostic], file: str):
    for item in items:
        if isinstance(item, syntax.ModuleDef):
            _check_items(item.body, (*prefix, item.name), sigs, diags, file)
        elif isinstance(item, syntax.SpecDecl):
            pass  # specs are trusted
        elif isinstance(item, syntax.FunctionDef):
            check_function_clause(item, prefix, sigs, diags, file)
        else:
            checker = ExprChecker(sigs, prefix, file, sink=diags)
            try:
                checker.synthesize(item, {})
            except CheckFailure as err:
                diags.append(err.to_diagnostic(file))


def check_function_clause(clause: syntax.FunctionDef, prefix: tuple[str, ...],
                          sigs: SignatureEnv, diags: list[Diagnostic], file: str):
    """Check one `def` clause against its declared signature, if any."""
    name = qualify(prefix, clause.name)
    arity = len(clause.params)
    fn_type = sigs.lookup(name, arity)
    if fn_type is None:
        diags.append(Diagnostic(
            I_UNTYPED_DEF,
            f"{name}/{arity} has no @spec; the definition is accepted unchecked",
            clause.span,
            file=file,
        ))
        return

    # Parameter patterns are checked left to right against the declared
    # parameter types, sharing one binding environment; the enclosing scope is
    # empty, so pins can never resolve here.
    gamma: dict = {}
    try:
        for pattern, declared in zip(clause.params, fn_type.params):
            gamma = check_pattern(pattern, declared, {}, gamma, PatternMode.SPEC)
    except CheckFailure as err:
        if err.code == E_PATTERN_TYPE:
            diags.append(Diagnostic(
                E_SPEC_PARAM_MISMATCH,
                f"parameter pattern of {name}/{arity} does not refine its declared type: "
                f"{err.message}",
                err.span,
                file=file,
                expected=err.expected,
                actual=err.actual,
            ))
        else:
            diags.append(err.to_diagnostic(file))
        return

    checker = ExprChecker(sigs, prefix, file, sink=diags)
    try:
        result = checker.synthesize(clause.body, gamma)
    except CheckFailure as err:
        diags.append(err.to_diagnostic(file))
        return
    if not fits(result.type, fn_type.result):
        diags.append(Diagnostic(
            E_SPEC_BODY_MISMATCH,
            f"body of {name}/{arity} has type {result.type} but the @spec declares "
            f"{fn_type.result}",
            clause.body.span,
            file=file,
            expected=str(fn_type.result),
            actual=str(result.type),
        ))
