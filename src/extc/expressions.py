"""Type synthesis for expressions.

Every construct returns the synthesized type together with the environment it
leaves behind; binary operands are checked independently in the incoming
environment and their bindings merged right-biased, control structures keep
branch bindings local.
"""
from __future__ import annotations

from typing import NamedTuple

from . import syntax, types
from .diagnostics import (
    CheckFailure, Diagnostic, E_ARITY, E_NOT_FUNCTION, E_TYPE_MISMATCH,
    E_UNBOUND_VAR, E_UNKNOWN_KEY, W_UNREACHABLE_PATTERN,
)
from .envs import SignatureEnv, merge, qualify
from .patterns import PatternMode, check_case_pattern, check_pattern, natural_pattern_type
from .types import (
    ANY, BOOLEAN, FLOAT, FunctionType, ListType, MapType, NONE, STRING,
    TupleType, Type, fits, join,
)

ARITH_OPS = {"+", "-", "*"}
BOOL_OPS = {"and", "or"}
COMPARISON_OPS = {"<", ">", "<=", ">=", "==", "!=", "===", "!=="}
LIST_OPS = {"++", "--"}


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
        if isinstance(t, types.AnyType):
            return ANY
        if isinstance(t, types.NoneType):
            return NONE
        raise self._mismatch(t, "[term]", span)

    # --- synthesis ---

    def synthesize(self, expr, env: dict) -> SynthResult:
        if isinstance(expr, syntax.Literal):
            return SynthResult(types.literal_type(expr), env)

        if isinstance(expr, syntax.Var):
            bound = env.get(expr.name)
            if bound is None:
                raise CheckFailure(E_UNBOUND_VAR, f"variable '{expr.name}' is not bound",
                                   expr.span)
            return SynthResult(bound, env)

        if isinstance(expr, syntax.TupleExpr):
            item_types, out = self._synth_each(expr.items, env)
            return SynthResult(TupleType(tuple(item_types)), out)

        if isinstance(expr, syntax.ElistExpr):
            # The least list type, so [] fits wherever any list is expected.
            return SynthResult(ListType(NONE), env)

        if isinstance(expr, syntax.ConsExpr):
            head_t, head_env = self.synthesize(expr.head, env)
            tail_t, tail_env = self.synthesize(expr.tail, env)
            element = self._list_element(tail_t, expr.tail.span)
            return SynthResult(ListType(join(head_t, element)), merge(head_env, tail_env))

        if isinstance(expr, syntax.MapExpr):
            value_types, out = self._synth_each([v for _, v in expr.entries], env)
            keys = [k for k, _ in expr.entries]
            return SynthResult(MapType(zip(keys, value_types)), out)

        if isinstance(expr, syntax.MapAccess):
            subject_t, out = self.synthesize(expr.subject, env)
            if isinstance(subject_t, MapType):
                value = subject_t.get(expr.key)
                if value is None:
                    raise CheckFailure(
                        E_UNKNOWN_KEY,
                        f"map of type {subject_t} has no key {expr.key}",
                        expr.span,
                        expected=str(subject_t),
                    )
                return SynthResult(value, out)
            if isinstance(subject_t, types.AnyType):
                return SynthResult(ANY, out)
            if isinstance(subject_t, types.NoneType):
                return SynthResult(NONE, out)
            raise self._mismatch(subject_t, "%{" + f"{expr.key} => term" + "}",
                                 expr.subject.span)

        if isinstance(expr, syntax.UnaryOp):
            return self._synth_unary(expr, env)

        if isinstance(expr, syntax.BinOp):
            return self._synth_binop(expr, env)

        if isinstance(expr, syntax.Match):
            value_t, value_env = self.synthesize(expr.value, env)
            bindings = check_pattern(expr.pattern, value_t, env, {}, PatternMode.MATCH)
            return SynthResult(value_t, merge(value_env, bindings))

        if isinstance(expr, syntax.Seq):
            # A loop down the right-nested chain, so a body's length is not
            # bounded by the interpreter's recursion limit.
            while isinstance(expr, syntax.Seq):
                _, env = self.synthesize(expr.first, env)
                expr = expr.second
            return self.synthesize(expr, env)

        if isinstance(expr, syntax.If):
            cond_t, cond_env = self.synthesize(expr.cond, env)
            self._require_fits(cond_t, BOOLEAN, expr.cond.span)
            then_t, _ = self.synthesize(expr.then, cond_env)
            else_t, _ = self.synthesize(expr.orelse, cond_env)
            return SynthResult(join(then_t, else_t), cond_env)

        if isinstance(expr, syntax.Case):
            return self._synth_case(expr, env)

        if isinstance(expr, syntax.Cond):
            result: Type | None = None
            for clause in expr.clauses:
                cond_t, cond_env = self.synthesize(clause.cond, env)
                self._require_fits(cond_t, BOOLEAN, clause.cond.span)
                body_t, _ = self.synthesize(clause.body, cond_env)
                result = body_t if result is None else join(result, body_t)
            return SynthResult(result, env)

        if isinstance(expr, syntax.Call):
            return self._synth_call(expr, env)

        if isinstance(expr, syntax.VarCall):
            return self._synth_var_call(expr, env)

        if isinstance(expr, syntax.AnonFn):
            param_types = []
            bindings: dict = {}
            for param in expr.params:
                t, bindings = natural_pattern_type(param, env, bindings)
                param_types.append(t)
            body_t, _ = self.synthesize(expr.body, merge(env, bindings))
            # Parameters and body bindings stay local to the function.
            return SynthResult(FunctionType(tuple(param_types), body_t), env)

        raise TypeError(f"cannot synthesize {type(expr).__name__}")

    def _synth_unary(self, expr, env: dict) -> SynthResult:
        operand_t, out = self.synthesize(expr.operand, env)
        if expr.op == "-":
            self._require_fits(operand_t, FLOAT, expr.operand.span)
            result = FLOAT if isinstance(operand_t, types.AnyType) else operand_t
            return SynthResult(result, out)
        if expr.op == "not":
            self._require_fits(operand_t, BOOLEAN, expr.operand.span)
            return SynthResult(BOOLEAN, out)
        raise TypeError(f"unknown unary operator {expr.op!r}")

    def _synth_binop(self, expr, env: dict) -> SynthResult:
        # A left-nested chain such as `1 + 1 + ... + 1` is walked with a loop,
        # so its length is not bounded by the interpreter's recursion limit.
        # Every operand is synthesized in `env`, and each operator is checked
        # after its left subtree and its right operand.
        chain = []
        while isinstance(expr, syntax.BinOp):
            chain.append(expr)
            expr = expr.left
        result, out = self.synthesize(expr, env)
        for node in reversed(chain):
            right_t, right_env = self.synthesize(node.right, env)
            out = merge(out, right_env)
            result = self._binop_type(node, result, right_t)
        return SynthResult(result, out)

    def _binop_type(self, expr, left_t: Type, right_t: Type) -> Type:
        op = expr.op
        if op in ARITH_OPS:
            self._require_fits(left_t, FLOAT, expr.left.span)
            self._require_fits(right_t, FLOAT, expr.right.span)
            return self._numeric_result(left_t, right_t)
        if op == "/":
            self._require_fits(left_t, FLOAT, expr.left.span)
            self._require_fits(right_t, FLOAT, expr.right.span)
            return FLOAT
        if op in BOOL_OPS:
            self._require_fits(left_t, BOOLEAN, expr.left.span)
            self._require_fits(right_t, BOOLEAN, expr.right.span)
            return BOOLEAN
        if op in COMPARISON_OPS:
            # Heterogeneous comparisons are allowed; the result is boolean.
            return BOOLEAN
        if op in LIST_OPS:
            left_elem = self._list_element(left_t, expr.left.span)
            right_elem = self._list_element(right_t, expr.right.span)
            return ListType(join(left_elem, right_elem))
        if op == "<>":
            self._require_fits(left_t, STRING, expr.left.span)
            self._require_fits(right_t, STRING, expr.right.span)
            return STRING
        raise TypeError(f"unknown binary operator {op!r}")

    @staticmethod
    def _numeric_result(left: Type, right: Type) -> Type:
        # An `any` operand materializes to the other operand's numeric type;
        # two unknowns settle on float.
        if isinstance(left, types.AnyType) and isinstance(right, types.AnyType):
            return FLOAT
        if isinstance(left, types.AnyType):
            left = right
        elif isinstance(right, types.AnyType):
            right = left
        return join(left, right)

    def _synth_case(self, expr, env: dict) -> SynthResult:
        subject_t, subject_env = self.synthesize(expr.subject, env)
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
            body_t, _ = self.synthesize(clause.body, merge(subject_env, bindings))
            result = body_t if result is None else join(result, body_t)
        return SynthResult(result, subject_env)

    def _synth_call(self, expr, env: dict) -> SynthResult:
        if expr.qualifier:
            qualified = expr.qualified_name()
        else:
            qualified = qualify(self.prefix, expr.name)
        fn_type = self.sigs.lookup(qualified, len(expr.args))
        if fn_type is None:
            return self._untyped_call(expr.args, env)
        return self._typed_call(expr.args, fn_type, env, f" of {qualified}/{len(expr.args)}")

    def _synth_var_call(self, expr, env: dict) -> SynthResult:
        fn_type = env.get(expr.name)
        if fn_type is None:
            raise CheckFailure(E_UNBOUND_VAR, f"variable '{expr.name}' is not bound",
                               expr.span)
        if isinstance(fn_type, types.AnyType):
            return self._untyped_call(expr.args, env)
        if not isinstance(fn_type, FunctionType):
            raise CheckFailure(
                E_NOT_FUNCTION,
                f"variable '{expr.name}' has type {fn_type}, which is not a function",
                expr.span,
                actual=str(fn_type),
            )
        if len(fn_type.params) != len(expr.args):
            raise CheckFailure(
                E_ARITY,
                f"function '{expr.name}' takes {len(fn_type.params)} argument(s), "
                f"got {len(expr.args)}",
                expr.span,
            )
        return self._typed_call(expr.args, fn_type, env)

    def _synth_each(self, exprs, env: dict) -> tuple[list[Type], dict]:
        """Types of independent subexpressions, each synthesized in `env`, and
        their bindings merged left to right."""
        item_types = []
        out = env
        for item in exprs:
            t, item_env = self.synthesize(item, env)
            item_types.append(t)
            out = merge(out, item_env)
        return item_types, out

    def _untyped_call(self, args, env: dict) -> SynthResult:
        # An untyped callee: arguments only need to typecheck on their own.
        return SynthResult(ANY, self._synth_each(args, env)[1])

    def _typed_call(self, args, fn_type: FunctionType, env: dict,
                    callee: str = "") -> SynthResult:
        """Each argument must fit its parameter type; `callee` ends the message."""
        out = env
        for arg, param_t in zip(args, fn_type.params):
            arg_t, arg_env = self.synthesize(arg, env)
            if not fits(arg_t, param_t):
                raise CheckFailure(
                    E_TYPE_MISMATCH,
                    f"argument of type {arg_t} does not fit parameter type {param_t}{callee}",
                    arg.span,
                    expected=str(param_t),
                    actual=str(arg_t),
                )
            out = merge(out, arg_env)
        return SynthResult(fn_type.result, out)


def synthesize(expr, env: dict | None = None, sigs: SignatureEnv | None = None,
               prefix: tuple[str, ...] = ()) -> SynthResult:
    """Convenience wrapper: synthesize one expression in a fresh checker."""
    checker = ExprChecker(sigs, prefix)
    return checker.synthesize(expr, dict(env or {}))
