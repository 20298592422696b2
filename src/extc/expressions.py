"""Type synthesis for expressions.

An expression is synthesized in an environment and leaves one behind, but no
construct copies the environment to say so: each returns its type and the
bindings it adds (new names and rebindings, usually none). Siblings - tuple,
map and cons items, call arguments and binary operands - are each synthesized
in the incoming environment, and combine as their whole environments united
right-biased would: a name the incoming environment holds takes its type from
the last sibling, which restores it unless that sibling rebinds it. A sequence
threads its scope; control structures keep branch bindings local.
"""
from __future__ import annotations

from typing import NamedTuple

from . import syntax, types
from .diagnostics import (
    CheckFailure, Diagnostic, E_ARITY, E_NOT_FUNCTION, E_TYPE_MISMATCH,
    E_UNBOUND_VAR, E_UNKNOWN_KEY, W_UNREACHABLE_PATTERN,
)
from .envs import SignatureEnv, merge, qualify, sibling_bindings
from .patterns import PatternMode, check_case_pattern, check_pattern, natural_pattern_type
from .types import (
    ANY, BOOLEAN, FLOAT, FunctionType, ListType, MapType, NONE, STRING,
    TupleType, Type, fits, join,
)

ARITH_OPS = {"+", "-", "*"}
COMPARISON_OPS = {"<", ">", "<=", ">=", "==", "!=", "===", "!=="}
LIST_OPS = {"++", "--"}
# The type both operands must fit, for the operators that demand one.
OPERAND_TYPES = {**dict.fromkeys((*ARITH_OPS, "/"), FLOAT), "and": BOOLEAN, "or": BOOLEAN,
                 "<>": STRING}
UNARY_OPERAND_TYPES = {"-": FLOAT, "not": BOOLEAN}


class SynthResult(NamedTuple):
    type: Type
    env: dict


class ExprChecker:
    """Synthesizes types for expressions against a fixed signature environment
    and module prefix; warnings go to the sink."""

    def __init__(self, sigs: SignatureEnv | None = None, prefix: tuple[str, ...] = (),
                 file: str = "<input>", sink: list | None = None):
        self.sigs = sigs if sigs is not None else SignatureEnv()
        self.prefix = prefix
        self.file = file
        self.sink = sink if sink is not None else []

    # --- helpers ---

    def _mismatch(self, actual: Type, expected_text: str, span) -> CheckFailure:
        return CheckFailure(
            E_TYPE_MISMATCH,
            f"expression has type {actual}, expected {expected_text}",
            span,
            expected=expected_text,
            actual=str(actual),
        )

    def _require_fits(self, actual: Type, expected: Type, span):
        if not fits(actual, expected):
            raise self._mismatch(actual, str(expected), span)

    def _list_element(self, t: Type, span) -> Type:
        if isinstance(t, ListType):
            return t.element
        if t is ANY or t is NONE:
            return t
        raise self._mismatch(t, "[term]", span)

    # --- synthesis ---

    def synthesize(self, expr, env: dict) -> SynthResult:
        """The type of `expr` in `env` and the environment it leaves behind."""
        t, added = self._synth(expr, env)
        return SynthResult(t, merge(env, added))

    def _synth(self, expr, env: dict) -> tuple[Type, dict]:
        """The type of `expr` in `env` and the bindings it adds to `env`.
        Neither `env` nor the returned bindings may be mutated."""
        handler = _SYNTH.get(type(expr))
        if handler is None:
            raise TypeError(f"cannot synthesize {type(expr).__name__}")
        return handler(self, expr, env)

    def _literal(self, expr, env: dict):
        return types.literal_type(expr), _NO_BINDINGS

    def _var(self, expr, env: dict):
        """The type bound to a `Var` or to a `VarCall`'s name."""
        bound = env.get(expr.name)
        if bound is None:
            raise CheckFailure(E_UNBOUND_VAR, f"variable '{expr.name}' is not bound", expr.span)
        return bound, _NO_BINDINGS

    def _tuple(self, expr, env: dict):
        item_types, added = self._synth_each(expr.items, env)
        return TupleType(tuple(item_types)), added

    def _elist(self, expr, env: dict):
        # The least list type, so [] fits wherever any list is expected.
        return ListType(NONE), _NO_BINDINGS

    def _cons(self, expr, env: dict):
        (head_t, tail_t), added = self._synth_each((expr.head, expr.tail), env)
        element = self._list_element(tail_t, expr.tail.span)
        return ListType(join(head_t, element)), added

    def _map(self, expr, env: dict):
        value_types, added = self._synth_each([v for _, v in expr.entries], env)
        return MapType(zip([k for k, _ in expr.entries], value_types)), added

    def _map_access(self, expr, env: dict):
        # A chain such as `m[:a][:b]` is walked with a loop (see `_binop`).
        chain = []
        while type(expr) is syntax.MapAccess:
            chain.append(expr)
            expr = expr.subject
        result, added = self._synth(expr, env)
        for node in reversed(chain):
            if isinstance(result, MapType):
                value = result.get(node.key)
                if value is None:
                    raise CheckFailure(E_UNKNOWN_KEY, f"map of type {result} has no key {node.key}",
                                       node.span, expected=str(result))
                result = value
            elif result is not ANY and result is not NONE:
                raise self._mismatch(result, "%{" + f"{node.key} => term" + "}", node.subject.span)
        return result, added

    def _match(self, expr, env: dict):
        # A chain such as `x = y = 1` is walked with a loop (see `_binop`);
        # every pattern is checked against the innermost value's type.
        patterns = []
        while type(expr) is syntax.Match:
            patterns.append(expr.pattern)
            expr = expr.value
        value_t, added = self._synth(expr, env)
        for pattern in reversed(patterns):
            bindings = check_pattern(pattern, value_t, env, {}, PatternMode.MATCH)
            added = {**added, **bindings} if added else bindings
        return value_t, added

    def _seq(self, expr, env: dict):
        # A loop, so a body's length is not bounded by the recursion limit.
        # The scope is copied on the first binding, then updated in place.
        scope, added = env, {}
        while True:
            last = type(expr) is not syntax.Seq
            t, new = self._synth(expr if last else expr.first, scope)
            if new:
                if scope is env:
                    scope = merge(env, new)
                else:
                    scope.update(new)
                added.update(new)
            if last:
                return t, added
            expr = expr.second

    def _if(self, expr, env: dict):
        cond_t, added = self._synth(expr.cond, env)
        self._require_fits(cond_t, BOOLEAN, expr.cond.span)
        branch_env = merge(env, added) if added else env
        then_t, _ = self._synth(expr.then, branch_env)
        else_t, _ = self._synth(expr.orelse, branch_env)
        return join(then_t, else_t), added

    def _cond(self, expr, env: dict):
        result: Type | None = None
        for clause in expr.clauses:
            cond_t, added = self._synth(clause.cond, env)
            self._require_fits(cond_t, BOOLEAN, clause.cond.span)
            body_t, _ = self._synth(clause.body, merge(env, added) if added else env)
            result = body_t if result is None else join(result, body_t)
        return result, _NO_BINDINGS

    def _anon_fn(self, expr, env: dict):
        param_types = []
        bindings: dict = {}
        for param in expr.params:
            t, bindings = natural_pattern_type(param, env, bindings)
            param_types.append(t)
        body_t, _ = self._synth(expr.body, merge(env, bindings) if bindings else env)
        # Parameters and body bindings stay local to the function.
        return FunctionType(tuple(param_types), body_t), _NO_BINDINGS

    def _unary(self, expr, env: dict):
        # A chain such as `not not x` is walked with a loop (see `_binop`).
        chain = []
        while type(expr) is syntax.UnaryOp:
            chain.append(expr)
            expr = expr.operand
        result, added = self._synth(expr, env)
        for node in reversed(chain):
            required = UNARY_OPERAND_TYPES.get(node.op)
            if required is None:
                raise TypeError(f"unknown unary operator {node.op!r}")
            self._require_fits(result, required, node.operand.span)
            # `not` gives boolean; negation keeps a number's type, and an
            # unknown operand settles on float.
            if node.op == "not" or result is ANY:
                result = required
        return result, added

    def _binop(self, expr, env: dict):
        # A left-nested chain such as `1 + 1 + ... + 1` is walked with a loop,
        # so its length is not bounded by the interpreter's recursion limit.
        # Every operand is synthesized in `env`, and each operator is checked
        # after its left subtree and its right operand.
        chain = []
        while type(expr) is syntax.BinOp:
            chain.append(expr)
            expr = expr.left
        result, added = self._synth(expr, env)
        for node in reversed(chain):
            right_t, right_added = self._synth(node.right, env)
            added = sibling_bindings(env, added, right_added)
            result = self._binop_type(node, result, right_t)
        return result, added

    def _binop_type(self, expr, left_t: Type, right_t: Type) -> Type:
        op = expr.op
        required = OPERAND_TYPES.get(op)
        if required is not None:
            self._require_fits(left_t, required, expr.left.span)
            self._require_fits(right_t, required, expr.right.span)
            if op not in ARITH_OPS:
                return required
            # An `any` operand materializes to the other operand's numeric
            # type; two unknowns settle on float.
            known = [t for t in (left_t, right_t) if t is not ANY] or [FLOAT]
            return join(known[0], known[-1])
        if op in COMPARISON_OPS:
            # Heterogeneous comparisons are allowed; the result is boolean.
            return BOOLEAN
        if op in LIST_OPS:
            left_elem = self._list_element(left_t, expr.left.span)
            right_elem = self._list_element(right_t, expr.right.span)
            return ListType(join(left_elem, right_elem))
        raise TypeError(f"unknown binary operator {op!r}")

    def _case(self, expr, env: dict):
        subject_t, added = self._synth(expr.subject, env)
        subject_env = merge(env, added) if added else env
        result: Type | None = None
        for clause in expr.clauses:
            bindings, fell_back = check_case_pattern(clause.pattern, subject_t, subject_env)
            if fell_back:
                self.sink.append(Diagnostic(
                    W_UNREACHABLE_PATTERN,
                    f"pattern can never match the selector type {subject_t}; "
                    "checked against term instead",
                    clause.pattern.span,
                    file=self.file,
                    expected=str(subject_t),
                ))
            body_t, _ = self._synth(clause.body,
                                    merge(subject_env, bindings) if bindings else subject_env)
            result = body_t if result is None else join(result, body_t)
        return result, added

    def _call(self, expr, env: dict):
        qualified = expr.qualified_name() if expr.qualifier else qualify(self.prefix, expr.name)
        fn_type = self.sigs.lookup(qualified, len(expr.args))
        if fn_type is None:
            # An untyped callee: arguments only need to typecheck on their own.
            return ANY, self._synth_each(expr.args, env)[1]
        added = self._synth_each(expr.args, env, fn_type.params,
                                 f" of {qualified}/{len(expr.args)}")[1]
        return fn_type.result, added

    def _var_call(self, expr, env: dict):
        fn_type, _ = self._var(expr, env)
        if fn_type is ANY:
            return ANY, self._synth_each(expr.args, env)[1]
        if not isinstance(fn_type, FunctionType):
            raise CheckFailure(E_NOT_FUNCTION, f"variable '{expr.name}' has type {fn_type}, "
                               "which is not a function", expr.span, actual=str(fn_type))
        if len(fn_type.params) != len(expr.args):
            raise CheckFailure(E_ARITY, f"function '{expr.name}' takes {len(fn_type.params)} "
                               f"argument(s), got {len(expr.args)}", expr.span)
        return fn_type.result, self._synth_each(expr.args, env, fn_type.params)[1]

    def _synth_each(self, exprs, env: dict, params=None,
                    callee: str = "") -> tuple[list[Type], dict]:
        """Types of siblings, each synthesized in `env`, and the bindings they
        add together. With `params`, the arguments of a call, each must fit
        its parameter type; `callee` ends the message."""
        item_types = []
        added = _NO_BINDINGS
        for i, item in enumerate(exprs):
            t, item_added = self._synth(item, env)
            if params is not None and not fits(t, params[i]):
                raise CheckFailure(
                    E_TYPE_MISMATCH,
                    f"argument of type {t} does not fit parameter type {params[i]}{callee}",
                    item.span, expected=str(params[i]), actual=str(t))
            item_types.append(t)
            added = sibling_bindings(env, added, item_added)
        return item_types, added


_NO_BINDINGS: dict = {}  # what the many expressions that bind nothing add; never mutated

# One handler per concrete expression class, dispatched on `type(expr)`.
_SYNTH = {
    **dict.fromkeys((syntax.IntLit, syntax.FloatLit, syntax.StringLit, syntax.BoolLit,
                     syntax.AtomLit), ExprChecker._literal),
    syntax.Var: ExprChecker._var, syntax.TupleExpr: ExprChecker._tuple,
    syntax.ElistExpr: ExprChecker._elist, syntax.ConsExpr: ExprChecker._cons,
    syntax.MapExpr: ExprChecker._map, syntax.MapAccess: ExprChecker._map_access,
    syntax.UnaryOp: ExprChecker._unary, syntax.BinOp: ExprChecker._binop,
    syntax.Match: ExprChecker._match, syntax.Seq: ExprChecker._seq,
    syntax.If: ExprChecker._if, syntax.Case: ExprChecker._case, syntax.Cond: ExprChecker._cond,
    syntax.Call: ExprChecker._call, syntax.VarCall: ExprChecker._var_call,
    syntax.AnonFn: ExprChecker._anon_fn,
}


def synthesize(expr, env: dict | None = None, sigs: SignatureEnv | None = None,
               prefix: tuple[str, ...] = ()) -> SynthResult:
    """Convenience wrapper: synthesize one expression in a fresh checker."""
    checker = ExprChecker(sigs, prefix)
    return checker.synthesize(expr, env or {})
