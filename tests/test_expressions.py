import pytest

from extc import envs, expressions, syntax
from extc.checker import check_programs
from extc.diagnostics import CheckFailure, Source
from extc.envs import SignatureEnv
from extc.expressions import ExprChecker
from extc.parser import parse_program
from extc.types import (
    ANY, ATOM, AtomLiteralType, BOOLEAN, FLOAT, FunctionType, INTEGER,
    ListType, MapKey, MapType, NONE, STRING, TERM, TupleType,
)


def checker(program, sigs=None, prefix=()):
    return ExprChecker(sigs or SignatureEnv(), prefix, program, [])


def synth(source, env=None, sigs=None, prefix=()):
    """The type of the statements `source` holds, and the bindings they add."""
    program = parse_program(source)
    return checker(program, sigs, prefix).synthesize(program.items[0], dict(env or {}))


def synth_type(source, env=None, sigs=None, prefix=()):
    return synth(source, env, sigs, prefix)[0]


def failure(source, env=None, sigs=None, prefix=()):
    with pytest.raises(CheckFailure) as exc:
        synth(source, env, sigs, prefix)
    return exc.value


def sigs_with(name, fn_type, prefix=()):
    sigs = SignatureEnv()
    sigs.add(prefix, name, fn_type)
    return sigs


class TestLiteralsAndVariables:
    def test_t_lit(self):
        assert synth_type("9") == INTEGER
        assert synth_type(":yes") == AtomLiteralType("yes")
        assert synth_type("true") == BOOLEAN

    def test_t_var(self):
        assert synth_type("x", {"x": STRING}) == STRING

    def test_unbound_var(self):
        assert failure("x").code == "E_UNBOUND_VAR"


class TestArithmetic:
    def test_t_neg_keeps_operand_type(self):
        assert synth_type("-9") == INTEGER
        assert synth_type("-9.5") == FLOAT

    def test_t_arith(self):
        assert synth_type("4 + 5") == INTEGER
        assert synth_type("4.0 + 5") == FLOAT
        assert synth_type("3.4 + 5.6") == FLOAT
        assert synth_type("2 * 3 - 1") == INTEGER

    def test_t_div_always_float(self):
        assert synth_type("9.0 / 2") == FLOAT
        assert synth_type("4 / 2") == FLOAT

    def test_wrong_operand(self):
        err = failure('3 + "hi"')
        assert err.code == "E_TYPE_MISMATCH"
        assert err.expected == "float" and err.actual == "string"

    def test_any_materializes_to_other_side(self):
        assert synth_type("x + 2", {"x": ANY}) == INTEGER
        assert synth_type("x + 2.0", {"x": ANY}) == FLOAT
        assert synth_type("x + y", {"x": ANY, "y": ANY}) == FLOAT
        assert synth_type("-x", {"x": ANY}) == FLOAT


class TestBooleansAndComparisons:
    def test_t_not(self):
        assert synth_type("not true") == BOOLEAN
        assert failure("not 1").code == "E_TYPE_MISMATCH"

    def test_t_bop(self):
        assert synth_type('("hi" > 5.0) or false') == BOOLEAN

    def test_t_cmp_heterogeneous(self):
        assert synth_type('"hi" > 5.0') == BOOLEAN
        assert synth_type("f == 3", {"f": FunctionType((INTEGER,), INTEGER)}) == BOOLEAN

    def test_cmp_result_is_not_numeric(self):
        assert failure('("hi" > 5.0) * 3').code == "E_TYPE_MISMATCH"


class TestListAndStringOps:
    def test_t_concat(self):
        assert synth_type('"a" <> "b"') == STRING
        assert failure('"a" <> 1').code == "E_TYPE_MISMATCH"

    def test_t_lop_joins_elements(self):
        env = {"xs": ListType(INTEGER), "ys": ListType(FLOAT)}
        assert synth_type("xs ++ ys", env) == ListType(FLOAT)
        assert synth_type("xs -- xs", env) == ListType(INTEGER)

    def test_t_lop_with_any(self):
        assert synth_type("xs ++ ys", {"xs": ANY, "ys": ListType(INTEGER)}) == \
            ListType(INTEGER)

    def test_t_lop_requires_lists(self):
        assert failure("xs ++ 3", {"xs": ListType(INTEGER)}).code == "E_TYPE_MISMATCH"


class TestDataStructures:
    def test_empty_list_is_least(self):
        assert synth_type("[]") == ListType(NONE)

    def test_cons_joins_head_and_tail(self):
        assert synth_type("[9 | []]") == ListType(INTEGER)
        assert synth_type("[2.0 | [9 | []]]") == ListType(FLOAT)
        assert synth_type("[true | [2.0 | []]]") == ListType(TERM)

    def test_cons_tail_must_be_a_list(self):
        assert failure("[1 | 2]").code == "E_TYPE_MISMATCH"

    def test_tuple(self):
        assert synth_type('{"one", 2, :three}') == \
            TupleType((STRING, INTEGER, AtomLiteralType("three")))

    def test_map_exposes_keys(self):
        t = synth_type('%{:strange => "hello", 9 => true}')
        assert t == MapType([(MapKey("atom", "strange"), STRING),
                             (MapKey("integer", 9), BOOLEAN)])

    def test_map_access(self):
        env = {"m": MapType([(MapKey("atom", "strange"), STRING),
                             (MapKey("integer", 9), BOOLEAN)])}
        assert synth_type("m[9]", env) == BOOLEAN
        assert synth_type('m[:strange] <> "bye"', env) == STRING
        assert failure("m[:strange] + 3", env).code == "E_TYPE_MISMATCH"
        assert failure("m[10]", env).code == "E_UNKNOWN_KEY"

    def test_map_access_on_any(self):
        assert synth_type("m[9]", {"m": ANY}) == ANY

    def test_map_access_on_non_map(self):
        assert failure("m[9]", {"m": INTEGER}).code == "E_TYPE_MISMATCH"


class TestMatchAndSequence:
    def test_match_result_is_value_type(self):
        assert synth("x = 10 * 9") == (INTEGER, {"x": INTEGER})

    def test_sequence_threads_env(self):
        assert synth_type("x = 10 * 9; x + 10") == INTEGER

    def test_match_pattern_failure(self):
        assert failure("{x, y} = xs", {"xs": ListType(INTEGER)}).code == "E_PATTERN_TYPE"

    def test_pattern_bindings_win_over_expression_bindings(self):
        _, added = synth("x = (x = 1.5; 2)")
        assert added["x"] == INTEGER


class TestControlStructures:
    def test_if_joins_branches(self):
        assert synth_type("if true do 1 else 2 end") == INTEGER
        assert synth_type("if true do 1 else 2.0 end") == FLOAT
        assert synth_type('if true do 1 else "x" end') == TERM

    def test_if_condition_must_be_boolean(self):
        assert failure("if 1 do 2 else 3 end").code == "E_TYPE_MISMATCH"

    def test_if_condition_bindings_escape_branch_bindings_do_not(self):
        t = synth_type('y = if (x = 3) > 2 do x = "bye" end; {x, y}')
        assert t == TupleType((INTEGER, TERM))

    def test_scope_listing(self):
        t, added = synth("x = 1; y = if true do x = 2; x + 1 else 4 end; {x, y}")
        assert t == TupleType((INTEGER, INTEGER))
        assert added == {"x": INTEGER, "y": INTEGER}

    def test_case_joins_bodies(self):
        assert synth_type("case :yes do :yes -> 1\n:no -> 2 end") == INTEGER

    def test_case_env_is_post_selector(self):
        t, added = synth("case (x = 1) do _ -> y = 2 end; x")
        assert t == INTEGER
        assert "y" not in added

    def test_case_pattern_bindings_visible_in_body(self):
        env = {"m": MapType([(MapKey("atom", "strange"), STRING),
                             (MapKey("integer", 9), BOOLEAN)])}
        assert synth_type("case m do %{9 => b} -> b end", env) == BOOLEAN

    def test_case_selector_widening_warns(self):
        program = parse_program("case :yes do :yes -> 1\n:no -> 2 end")
        case = checker(program)
        t, _ = case.synthesize(program.items[0], {})
        assert t == INTEGER
        assert [(d.code, d.span.start, d.span.source) for d in case.sink] == [
            ("W_UNREACHABLE_PATTERN", 23, program.source)]

    def test_cond_env_unchanged(self):
        assert synth("cond do (z = true) -> 1 end") == (INTEGER, {})
        assert failure("cond do (z = true) -> 1 end; z").code == "E_UNBOUND_VAR"

    def test_cond_joins_bodies(self):
        assert synth_type("cond do true -> 1\nfalse -> 2.0 end") == FLOAT

    def test_cond_body_sees_its_condition_bindings(self):
        assert synth_type("cond do (z = 1) > 0 -> z end") == INTEGER


class TestCaseJoin:
    """A `case` has the join of its bodies' types, not the first body's."""

    def test_unrelated_bodies_join_to_term(self):
        assert synth_type('case b do true -> 1; false -> "s" end', {"b": BOOLEAN}) == TERM

    def test_numeric_bodies_join_to_float(self):
        assert synth_type("case b do true -> 1; false -> 2.5 end", {"b": BOOLEAN}) == FLOAT


class TestSiblingIndependence:
    def test_binop_right_does_not_see_left_bindings(self):
        assert failure("(x = 3) + x").code == "E_UNBOUND_VAR"

    def test_env_after_binop_merges_both(self):
        assert synth("(x = 3) + (y = 4)")[1] == {"x": INTEGER, "y": INTEGER}

    def test_right_bias_on_collision(self):
        assert synth("(x = 3) + (x = 4.0)")[1] == {"x": FLOAT}

    def test_tuple_siblings_independent(self):
        assert failure("{x = 1, x}").code == "E_UNBOUND_VAR"

    def test_operator_chain_operands_see_only_the_incoming_env(self):
        assert failure("(x = 3) + 1 + x").code == "E_UNBOUND_VAR"
        assert synth("(x = 3) + (y = 4) * 2 + (z = 5)")[1] == {
            "x": INTEGER, "y": INTEGER, "z": INTEGER}

    def test_operator_chain_checks_each_operator_before_the_next_operand(self):
        source = '1 + "a" + y'
        mismatch = failure(source)
        col = Source(source).position(mismatch.start)[1]
        assert (mismatch.code, col) == ("E_TYPE_MISMATCH", 5)


class TestCalls:
    def test_known_local_call(self):
        sigs = sigs_with("func", FunctionType((INTEGER,), FLOAT), prefix=("M",))
        assert synth_type("func(2)", sigs=sigs, prefix=("M",)) == FLOAT

    def test_known_call_bad_argument(self):
        sigs = sigs_with("func", FunctionType((INTEGER,), FLOAT), prefix=("M",))
        err = failure("func(2.0)", sigs=sigs, prefix=("M",))
        assert err.code == "E_TYPE_MISMATCH"

    def test_local_resolution_uses_exact_prefix(self):
        sigs = sigs_with("func", FunctionType((INTEGER,), FLOAT), prefix=("M",))
        # from inside M.N the bare name does not resolve: untyped call
        assert synth_type("func(2.0)", sigs=sigs, prefix=("M", "N")) == ANY

    def test_qualified_call_is_absolute(self):
        sigs = sigs_with("dec", FunctionType((INTEGER,), INTEGER), prefix=("Base", "Math"))
        assert synth_type("Base.Math.dec(7)", sigs=sigs, prefix=("Main",)) == INTEGER

    def test_unknown_call_returns_any(self):
        assert synth_type("Main.fact(9)") == ANY
        assert synth_type("Main.fact(9) + 2") == INTEGER

    def test_unknown_call_arguments_still_checked(self):
        assert failure('Main.fact(3 + "hi")').code == "E_TYPE_MISMATCH"

    def test_gradual_param(self):
        sigs = sigs_with("foo", FunctionType((ANY,), INTEGER))
        assert synth_type("foo(9)", sigs=sigs) == INTEGER

    def test_gradual_results_are_downcast_by_context(self):
        sigs = sigs_with("id", FunctionType((ANY,), ANY))
        assert synth_type("id(8) + 10", sigs=sigs) == INTEGER
        assert synth_type("id(8) and true", sigs=sigs) == BOOLEAN
        assert synth_type('"hello" <> id(8)', sigs=sigs) == STRING

    def test_arity_mismatch_is_an_untyped_call(self):
        sigs = sigs_with("func", FunctionType((INTEGER,), FLOAT))
        assert synth_type("func(1, 2)", sigs=sigs) == ANY


class TestVarCalls:
    def test_t_vappt(self):
        env = {"f": FunctionType((INTEGER,), INTEGER)}
        assert synth_type("f.(8)", env) == INTEGER

    def test_var_call_argument_fits(self):
        env = {"f": FunctionType((FLOAT,), INTEGER)}
        assert synth_type("f.(8)", env) == INTEGER
        assert failure('f.("8")', env).code == "E_TYPE_MISMATCH"

    def test_var_call_arity(self):
        env = {"f": FunctionType((INTEGER,), INTEGER)}
        assert failure("f.(1, 2)", env).code == "E_ARITY"

    def test_var_call_on_non_function(self):
        assert failure("f.(1)", {"f": INTEGER}).code == "E_NOT_FUNCTION"

    def test_var_call_on_any(self):
        assert synth_type("f.(1, 2)", {"f": ANY}) == ANY

    def test_var_call_unbound(self):
        assert failure("f.(1)").code == "E_UNBOUND_VAR"


class TestAnonymousFunctions:
    def test_t_anon_simple(self):
        assert synth_type("fn (x) -> x + 1 end") == FunctionType((ANY,), INTEGER)

    def test_define_then_apply(self):
        assert synth_type("f = fn (x) -> x + 1 end; f.(8)") == INTEGER

    def test_literal_param(self):
        assert synth_type("fn (0) -> 1 end") == FunctionType((INTEGER,), INTEGER)

    def test_nested_cons_param_types_its_head(self):
        t = synth_type("fn ([h | [1 | []]]) -> h end")
        assert t == FunctionType((ListType(INTEGER),), INTEGER)

    def test_pin_param_uses_enclosing_scope(self):
        t = synth_type("x = 3; fn (^x, y) -> x + y end")
        assert t == FunctionType((INTEGER, ANY), INTEGER)

    def test_params_do_not_leak(self):
        _, added = synth("f = fn (x) -> x + 1 end")
        assert set(added) == {"f"}
        assert failure("f = fn (x) -> x + 1 end; x").code == "E_UNBOUND_VAR"

    def test_body_bindings_do_not_leak(self):
        _, added = synth("f = fn (x) -> y = 1; x end")
        assert "y" not in added

    def test_body_sees_outer_scope(self):
        assert synth_type("a = 1; f = fn (x) -> x + a end; f.(2)") == INTEGER

    def test_parameters_fail_in_order(self):
        # The first parameter's failure reports, not the unbound pin after it.
        source = "f = fn([x | x], ^y) -> 1 end"
        mismatch = failure(source)
        position = Source(source).position(mismatch.start)
        assert (mismatch.code, position) == ("E_NONLINEAR_MISMATCH", (1, 13))


class TestGradualMonotonicity:
    def test_routing_through_any_preserves_acceptance(self):
        sigs = sigs_with("blur", FunctionType((ANY,), ANY))
        pairs = [
            ("3 + 4", "3 + blur(4)"),
            ("not true", "not blur(true)"),
            ('"a" <> "b"', '"a" <> blur("b")'),
            ("[1 | []] ++ [2 | []]", "[1 | []] ++ blur([2 | []])"),
            ("if true do 1 else 2 end", "if blur(true) do 1 else 2 end"),
        ]
        for static, gradual in pairs:
            synth(static, sigs=sigs)  # must not raise
            synth(gradual, sigs=sigs)  # and neither must this


class TestSiblingRevert:
    """No sibling reverts an outer name to its old type: as in Elixir, a
    rebinding in a sibling holds after the siblings unless a later sibling
    rebinds the name, since siblings unite what they bind right-biased."""

    EARLIER = ['{x = "a", 1}', '(x = "a") <> "b"', 'f(x = "a", 1)', '[x = "a" | []]',
               '%{:k => (x = "a"), :j => 1}']

    @pytest.mark.parametrize("statement", EARLIER)
    def test_an_earlier_sibling_keeps_its_rebinding(self, statement):
        assert synth_type(f'x = 1; {statement}; x <> "b"') == STRING

    def test_the_last_sibling_keeps_its_rebinding(self):
        assert synth_type('x = 1; {1, x = "a"}; x <> "b"') == STRING

    @pytest.mark.parametrize("statement", [*EARLIER, '{1, x = "a"}'])
    def test_the_outer_type_is_gone_after_a_rebinding(self, statement):
        mismatch = failure(f"x = 1; {statement}; x + 1")
        assert (mismatch.code, mismatch.message) == (
            "E_TYPE_MISMATCH", "expression has type string, expected float")

    def test_a_later_sibling_wins(self):
        assert synth_type('x = 1; {x = "a", x = 2.5}; x') == FLOAT


class TestScopesAreNotShared:
    """A sequence updates its own copy of the scope in place; no binding may
    reach a scope that encloses it or the caller's environment."""

    @pytest.mark.parametrize("statement", [
        'if true do x = "s"; x else "t" end',
        'case 1 do _ -> x = "s"; x end',
        'cond do true -> x = "s"; x end',
        'fn (y) -> x = "s"; y end',
    ])
    def test_a_nested_sequence_keeps_its_bindings(self, statement):
        assert synth_type(f"x = 1; {statement}; x + 1") == INTEGER

    def test_the_given_environment_is_left_alone(self):
        env = {"x": INTEGER}
        _, added = synth('x = "a"; y = x', env)
        assert env == {"x": INTEGER}
        assert added == {"x": STRING, "y": STRING}


def _concrete_expression_classes():
    classes = [c for c in vars(syntax).values()
               if isinstance(c, type) and issubclass(c, syntax.Expr)]
    return [c for c in classes if not any(o is not c and issubclass(o, c) for o in classes)]


class TestDispatch:
    def test_every_concrete_expression_class_has_a_handler(self):
        concrete = _concrete_expression_classes()
        assert syntax.Block in concrete and syntax.IntLit in concrete
        assert [c.__name__ for c in concrete if c not in expressions._SYNTH] == []

    def test_a_node_without_a_handler_cannot_be_synthesized(self):
        class Unhandled(syntax.Expr):
            pass

        with pytest.raises(TypeError, match="cannot synthesize Unhandled"):
            checker(parse_program("")).synthesize(Unhandled(), {})


def _typed_body(statements: int) -> str:
    """A `def` of `statements` statements `x_i = ...`, each typed integer.
    Nothing binds inside a branch, which would still copy the scope it
    extends."""
    kinds = [
        "{p} + 1",
        "if {p} > 0 do {p} else 0 end",
        "case {{{p}, 1}} do\n{{0, _}} -> 1\n_ -> {p}\nend",
        "f({p})",
        "%{{:a => {p}}}[:a]",
    ]
    lines = ["@spec f(integer) :: integer", "def f(x_0) do"]
    for i in range(1, statements + 1):
        lines.append(f"x_{i} = " + kinds[i % len(kinds)].format(p=f"x_{i - 1}"))
    lines += [f"x_{statements}", "end"]
    return "\n".join(lines) + "\n"


def _entries_copied(monkeypatch, statements: int) -> int:
    """Environment entries copied while checking `_typed_body(statements)`,
    counted through `extend`, the one helper that copies an environment, in
    the calls that return a new dict."""
    copied = 0

    def counting_extend(env, added):
        nonlocal copied
        out = envs.extend(env, added)
        if out is not env:
            copied += len(out)
        return out

    monkeypatch.setattr(expressions, "extend", counting_extend)
    assert check_programs([parse_program(_typed_body(statements))]) == []
    return copied


def test_entries_copied_grow_linearly_with_body_length(monkeypatch):
    short, long = (_entries_copied(monkeypatch, n) for n in (1000, 2000))
    assert short > 0
    assert long <= 2.1 * short
