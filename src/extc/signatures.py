"""First pass: gather `@spec` signatures into the signature environment."""
from __future__ import annotations

from . import syntax
from .diagnostics import Diagnostic, E_DUP_SPEC, W_SPEC_NO_DEF
from .envs import SignatureEnv, qualify
from .types import FunctionType


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


def collect_all(programs: list[syntax.Program]) -> tuple[SignatureEnv, list[Diagnostic]]:
    """Collect signatures across several files into one shared environment."""
    env = SignatureEnv()
    diags: list[Diagnostic] = []
    for program, prefix, items in scopes(programs):
        local_specs: list[tuple[syntax.SpecDecl, int]] = []
        local_defs: set[tuple[str, int]] = set()
        for item in items:
            if isinstance(item, syntax.SpecDecl):
                fn_type = FunctionType(tuple(item.params), item.result)
                if env.add(prefix, item.name, fn_type):
                    local_specs.append((item, len(item.params)))
                else:
                    diags.append(Diagnostic.at(
                        program, item, E_DUP_SPEC,
                        f"duplicate @spec for {qualify(prefix, item.name)}/{len(item.params)}; "
                        "the first declaration stays in effect"))
            elif isinstance(item, syntax.FunctionDef):
                local_defs.add((item.name, len(item.params)))
        for spec, arity in local_specs:
            if (spec.name, arity) not in local_defs:
                diags.append(Diagnostic.at(
                    program, spec, W_SPEC_NO_DEF,
                    f"@spec {qualify(prefix, spec.name)}/{arity} has no matching definition "
                    "in this module"))
    return env, diags
