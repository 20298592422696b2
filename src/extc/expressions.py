"""Type synthesis for expressions.

An expression is synthesized in an environment and leaves one behind, but no
construct copies the environment to say so: each returns its type and the
bindings it adds (new names and rebindings, usually none). Siblings - tuple,
map and cons items, call arguments and binary operands - are each synthesized
in the incoming environment, and their bindings unite right-biased through
`extend`, as every construct's do: a later sibling's binding of a name wins,
and an earlier one holds after them. A `Block` threads its scope through its
statements in order; control structures keep branch bindings local.
"""
from __future__ import annotations

from . import syntax
from .diagnostics import (
    CheckFailure, Diagnostic, E_ARITY, E_NOT_FUNCTION, E_TYPE_MISMATCH,
    E_UNBOUND_VAR, E_UNKNOWN_KEY, W_UNREACHABLE_PATTERN,
)
from .envs import SignatureEnv, extend, qualify
from .patterns import CASE, MATCH, check_case_pattern, check_pattern, literal_type, natural_type
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


class ExprChecker:
    """Synthesizes types for expressions against a fixed signature environment
    and module prefix, in `program`; warnings go to the sink."""

    def __init__(self, sigs: SignatureEnv, prefix: tuple[str, ...], program, sink: list):
        self.sigs = sigs
        self.prefix = prefix
        self.program = program
        self.sink = sink

    # --- helpers ---

    def _mismatch(self, actual: Type, expected_text: str, at) -> CheckFailure:
        return CheckFailure(
            E_TYPE_MISMATCH,
            f"expression has type {actual}, expected {expected_text}",
            at,
            expected=expected_text,
            actual=str(actual),
        )

    def _require_fits(self, actual: Type, expected: Type, at):
        if not fits(actual, expected):
            raise self._mismatch(actual, str(expected), at)

    def _list_element(self, t: Type, at) -> Type:
        if isinstance(t, ListType):
            return t.element
        if t is ANY or t is NONE:
            return t
        raise self._mismatch(t, "[term]", at)

    # --- synthesis ---

    def synthesize(self, expr, env: dict) -> tuple[Type, dict]:
        """The type of `expr` in `env` and the bindings it adds to `env`.
        Neither `env` nor the returned bindings may be mutated."""
        handler = _SYNTH.get(type(expr))
        if handler is None:
            raise TypeError(f"cannot synthesize {type(expr).__name__}")
        return handler(self, expr, env)

    def _literal(self, expr, env: dict):
        return literal_type(expr), _NO_BINDINGS

    def _var(self, expr, env: dict):
        """The type bound to a `Var` or to a `VarCall`'s name."""
        bound = env.get(expr.name)
        if bound is None:
            raise CheckFailure(E_UNBOUND_VAR, f"variable '{expr.name}' is not bound", expr)
        return bound, _NO_BINDINGS

    def _tuple(self, expr, env: dict):
        item_types, added = self._synth_each(expr.items, env)
        return TupleType(tuple(item_types)), added

    def _elist(self, expr, env: dict):
        # The least list type, so [] fits wherever any list is expected.
        return ListType(NONE), _NO_BINDINGS

    def _cons(self, expr, env: dict):
        (head_t, tail_t), added = self._synth_each((expr.head, expr.tail), env)
        element = self._list_element(tail_t, expr.tail)
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
        result, added = self.synthesize(expr, env)
        for node in reversed(chain):
            if isinstance(result, MapType):
                value = result.get(node.key)
                if value is None:
                    raise CheckFailure(E_UNKNOWN_KEY, f"map of type {result} has no key {node.key}",
                                       node, expected=str(result))
                result = value
            elif result is not ANY and result is not NONE:
                raise self._mismatch(result, "%{" + f"{node.key} => term" + "}", node.subject)
        return result, added

    def _match(self, expr, env: dict):
        value_t, added = self.synthesize(expr.value, env)
        bindings: dict = {}  # not `added`, whose names the pattern may rebind at any type
        check_pattern(expr.pattern, value_t, env, bindings, MATCH)
        return value_t, extend(added, bindings)

    def _block(self, expr, env: dict):
        # The scope is copied on the first binding, then updated in place.
        scope, added = env, {}
        for statement in expr.exprs:
            t, new = self.synthesize(statement, scope)
            if new:
                if scope is env:
                    scope = extend(env, new)
                else:
                    scope.update(new)
                added.update(new)
        return t, added

    def _if(self, expr, env: dict):
        cond_t, added = self.synthesize(expr.cond, env)
        self._require_fits(cond_t, BOOLEAN, expr.cond)
        branch_env = extend(env, added)
        then_t, _ = self.synthesize(expr.then, branch_env)
        else_t, _ = self.synthesize(expr.orelse, branch_env)
        return join(then_t, else_t), added

    def _cond(self, expr, env: dict):
        result: Type | None = None
        for clause in expr.clauses:
            cond_t, added = self.synthesize(clause.cond, env)
            self._require_fits(cond_t, BOOLEAN, clause.cond)
            body_t, _ = self.synthesize(clause.body, extend(env, added))
            result = body_t if result is None else join(result, body_t)
        return result, _NO_BINDINGS

    def _anon_fn(self, expr, env: dict):
        param_types = []
        bindings: dict = {}
        for param in expr.params:  # each typed and bound before the next
            t = natural_type(param, env)
            check_pattern(param, t, env, bindings, CASE)
            param_types.append(t)
        body_t, _ = self.synthesize(expr.body, extend(env, bindings))
        # Parameters and body bindings stay local to the function.
        return FunctionType(tuple(param_types), body_t), _NO_BINDINGS

    def _unary(self, expr, env: dict):
        operand_t, added = self.synthesize(expr.operand, env)
        required = UNARY_OPERAND_TYPES.get(expr.op)
        if required is None:
            raise TypeError(f"unknown unary operator {expr.op!r}")
        self._require_fits(operand_t, required, expr.operand)
        # `not` gives boolean; negation keeps a number's type, and an unknown
        # operand settles on float.
        return required if expr.op == "not" or operand_t is ANY else operand_t, added

    def _binop(self, expr, env: dict):
        # A left-nested chain such as `1 + 1 + ... + 1` is walked with a loop,
        # so its length is not bounded by the interpreter's recursion limit.
        # Every operand is synthesized in `env`, and each operator is checked
        # after its left subtree and its right operand.
        chain = []
        while type(expr) is syntax.BinOp:
            chain.append(expr)
            expr = expr.left
        result, added = self.synthesize(expr, env)
        for node in reversed(chain):
            right_t, right_added = self.synthesize(node.right, env)
            added = extend(added, right_added)
            result = self._binop_type(node, result, right_t)
        return result, added

    def _binop_type(self, expr, left_t: Type, right_t: Type) -> Type:
        op = expr.op
        required = OPERAND_TYPES.get(op)
        if required is not None:
            self._require_fits(left_t, required, expr.left)
            self._require_fits(right_t, required, expr.right)
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
            left_elem = self._list_element(left_t, expr.left)
            right_elem = self._list_element(right_t, expr.right)
            return ListType(join(left_elem, right_elem))
        raise TypeError(f"unknown binary operator {op!r}")

    def _case(self, expr, env: dict):
        subject_t, added = self.synthesize(expr.subject, env)
        subject_env = extend(env, added)
        result: Type | None = None
        for clause in expr.clauses:
            bindings, fell_back = check_case_pattern(clause.pattern, subject_t, subject_env)
            if fell_back:
                self.sink.append(Diagnostic.at(
                    self.program, clause.pattern, W_UNREACHABLE_PATTERN,
                    f"pattern can never match the selector type {subject_t}; "
                    "checked against term instead", expected=str(subject_t)))
            body_t, _ = self.synthesize(clause.body, extend(subject_env, bindings))
            result = body_t if result is None else join(result, body_t)
        return result, added

    def _call(self, expr, env: dict):
        qualified = qualify(expr.qualifier or self.prefix, expr.name)
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
                               "which is not a function", expr, actual=str(fn_type))
        if len(fn_type.params) != len(expr.args):
            raise CheckFailure(E_ARITY, f"function '{expr.name}' takes {len(fn_type.params)} "
                               f"argument(s), got {len(expr.args)}", expr)
        return fn_type.result, self._synth_each(expr.args, env, fn_type.params)[1]

    def _synth_each(self, exprs, env: dict, params=None,
                    callee: str = "") -> tuple[list[Type], dict]:
        """Types of siblings, each synthesized in `env`, and the bindings they
        add together. With `params`, the arguments of a call, each must fit
        its parameter type; `callee` ends the message."""
        item_types = []
        added = _NO_BINDINGS
        for i, item in enumerate(exprs):
            t, item_added = self.synthesize(item, env)
            if params is not None and not fits(t, params[i]):
                raise CheckFailure(
                    E_TYPE_MISMATCH,
                    f"argument of type {t} does not fit parameter type {params[i]}{callee}",
                    item, expected=str(params[i]), actual=str(t))
            item_types.append(t)
            added = extend(added, item_added)
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
    syntax.Match: ExprChecker._match, syntax.Block: ExprChecker._block,
    syntax.If: ExprChecker._if, syntax.Case: ExprChecker._case, syntax.Cond: ExprChecker._cond,
    syntax.Call: ExprChecker._call, syntax.VarCall: ExprChecker._var_call,
    syntax.AnonFn: ExprChecker._anon_fn,
}

