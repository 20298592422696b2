"""First pass: gather `@spec` signatures into the signature environment.

A file's declarations, `declarations(program)`, are `marshal` data, so a file
that another process parsed takes part as its declarations alone: `collect`
unpacks every file's into one table, and diagnoses only the files it holds."""
from __future__ import annotations

from . import syntax
from .diagnostics import Diagnostic, E_DUP_SPEC, Span, W_SPEC_NO_DEF
from .envs import SignatureEnv, qualify
from .types import FunctionType, pack, unpack


def scopes(programs: list[syntax.Program]):
    """Every module scope as `(program, prefix, items)`: each file's top level
    and its modules, outer before inner and in document order. Both passes
    walk this; specs and defs are matched within one scope."""
    for program in programs:
        stack = [((), program.items)]
        while stack:
            prefix, items = stack.pop()
            yield program, prefix, items
            stack.extend(reversed([((*prefix, item.name), item.body) for item in items
                                   if isinstance(item, syntax.ModuleDef)]))


def declarations(program: syntax.Program) -> tuple:
    """The file's `@spec`s in `scopes` order, as `marshal` data: each is `(prefix,
    name, pack(FunctionType), start, end, defined)`, where `defined` says
    whether its scope has a `def` of that name and arity."""
    found = []
    for _, prefix, items in scopes([program]):
        defs = {(item.name, len(item.params)) for item in items
                if isinstance(item, syntax.FunctionDef)}
        found += [(prefix, item.name, pack(FunctionType(tuple(item.params), item.result)),
                   item.start, item.end, (item.name, len(item.params)) in defs)
                  for item in items if isinstance(item, syntax.SpecDecl)]
    return tuple(found)


def collect(files: list) -> tuple[SignatureEnv, list[Diagnostic]]:
    """One environment from `(program or None, declarations)` pairs in
    command-line order, each type unpacked (`types.unpack`) as it enters;
    the first `@spec` of a name and arity stays in effect. Only a pair with
    its program gets the `E_DUP_SPEC` and `W_SPEC_NO_DEF` of its declarations."""
    env = SignatureEnv()
    diags: list[Diagnostic] = []
    for program, declared in files:
        for prefix, name, packed, start, end, defined in declared:
            fn_type = unpack(packed)
            arity = len(fn_type.params)
            if not env.add(prefix, name, fn_type):
                code, message = E_DUP_SPEC, (f"duplicate @spec for {qualify(prefix, name)}/{arity}; "
                                             "the first declaration stays in effect")
            elif not defined:
                code, message = W_SPEC_NO_DEF, (f"@spec {qualify(prefix, name)}/{arity} has no "
                                                "matching definition in this module")
            else:
                continue
            if program is not None:
                diags.append(Diagnostic(code, message, Span(start, end, program.source),
                                        file=program.path))
    return env, diags


def collect_all(programs: list[syntax.Program]) -> tuple[SignatureEnv, list[Diagnostic]]:
    """Collect signatures across several files into one shared environment."""
    return collect([(program, declarations(program)) for program in programs])
