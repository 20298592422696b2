import inspect
import itertools
import sys
from collections import Counter

import pytest

import printer
from conftest import DATA_DIR, corpus_files
from extc import syntax
from extc.lexer import tokenize
from extc.parser import (
    MAX_NESTING, MAX_TYPE_DEPTH, ParseError, Parser, parse_expression, parse_program,
    parse_spec, parse_type_text,
)
from extc.syntax import (
    AtomLit, BinOp, Call, Case, ConsPattern, If, IntLit, MapAccess, Match,
    ModuleDef, Seq, TuplePattern, UnaryOp, Var, VarCall, VarPattern, Wildcard,
)
from extc.types import (
    ANY, AtomLiteralType, FLOAT, FunctionType, INTEGER, ListType, MapKey,
    MapType, STRING, TupleType,
)


class TestExpressions:
    def test_sequence_with_match(self):
        expr = parse_expression("x = 10 * 9\nx + 10")
        assert expr == Seq(
            Match(VarPattern("x"), BinOp("*", IntLit(10), IntLit(9))),
            BinOp("+", Var("x"), IntLit(10)),
        )

    def test_semicolon_and_newline_interchangeable(self):
        assert parse_expression("x = 1; x") == parse_expression("x = 1\nx")

    def test_multiplication_binds_tighter(self):
        assert parse_expression("1 + 2 * 3") == \
            BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3)))

    def test_comparison_looser_than_arith(self):
        expr = parse_expression("1 + 2 > 2")
        assert expr.op == ">"

    def test_and_or_precedence(self):
        expr = parse_expression("true and false or true")
        assert expr.op == "or"
        assert expr.left.op == "and"

    def test_concat_right_associative(self):
        expr = parse_expression('"a" <> "b" <> "c"')
        assert expr.op == "<>"
        assert isinstance(expr.right, BinOp) and expr.right.op == "<>"

    def test_unary_minus_binds_tightest(self):
        expr = parse_expression("-1 + 2")
        assert expr.op == "+"
        assert expr.left == syntax.UnaryOp("-", IntLit(1))

    def test_match_is_lowest_and_right_associative(self):
        expr = parse_expression("x = y = 3")
        assert isinstance(expr, Match)
        assert isinstance(expr.value, Match)

    def test_non_pattern_lhs_is_an_error(self):
        with pytest.raises(ParseError, match="not a valid pattern") as exc:
            parse_expression("3 + x = 5")
        assert exc.value.span.start == 0

    @pytest.mark.parametrize("source, start", [
        ("(x) = 1", 1), ("{(x), y} = t", 0), ("[(1) | t] = l", 0),
    ])
    def test_parenthesized_lhs_is_not_a_pattern(self, source, start):
        with pytest.raises(ParseError, match="not a valid pattern") as exc:
            parse_expression(source)
        assert exc.value.span.start == start

    def test_parenthesized_match_inside_expression(self):
        expr = parse_expression("(x = 3) > 2")
        assert expr.op == ">"
        assert isinstance(expr.left, Match)

    def test_map_access_key_must_be_literal(self):
        with pytest.raises(ParseError):
            parse_expression("m[x]")

    def test_map_access(self):
        expr = parse_expression("m[9]")
        assert expr == syntax.MapAccess(Var("m"), MapKey.integer(9))

    def test_duplicate_map_literal_keys_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_expression("%{:a => 1, :a => 2}")

    def test_qualified_call(self):
        expr = parse_expression("Base.Math.dec(n)")
        assert expr == Call(("Base", "Math"), "dec", [Var("n")])

    def test_local_call(self):
        assert parse_expression("dec(1)") == Call((), "dec", [IntLit(1)])

    def test_var_call(self):
        assert parse_expression("f.(8)") == VarCall("f", [IntLit(8)])

    def test_anon_fn(self):
        expr = parse_expression("fn (x, _) -> x end")
        assert expr == syntax.AnonFn([VarPattern("x"), Wildcard()], Var("x"))

    def test_case_branches(self):
        expr = parse_expression("case :yes do :yes -> 1\n:no -> 2 end")
        assert isinstance(expr, Case)
        assert len(expr.clauses) == 2
        assert expr.clauses[1].pattern == AtomLit("no")

    def test_case_branch_body_can_be_a_sequence(self):
        expr = parse_expression("case x do :a -> y = 1\ny + 1\n:b -> 2 end")
        assert len(expr.clauses) == 2
        assert isinstance(expr.clauses[0].body, Seq)

    def test_cond(self):
        expr = parse_expression("cond do x > 1 -> 1\ntrue -> 2 end")
        assert isinstance(expr, syntax.Cond)
        assert len(expr.clauses) == 2

    def test_wildcard_is_not_an_expression(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("_ + 1")
        assert (exc.value.message, exc.value.span.start) == (
            "wildcard '_' is not an expression", 0)

    @pytest.mark.parametrize("source, message, start", [
        ("f(_)", "wildcard '_' is not an expression", 2),
        ("x = _", "wildcard '_' is not an expression", 4),
        ("^x", "expected an expression, found '^'", 0),
        ("y = {1, ^x}", "expected an expression, found '^'", 8),
    ])
    def test_pattern_only_forms_are_not_expressions(self, source, message, start):
        with pytest.raises(ParseError) as exc:
            parse_expression(source)
        assert (exc.value.message, exc.value.span.start) == (message, start)


# The binary operators by level, loosest first; the flag marks a right
# associative level. Written out here so the parser's own table is checked
# against it rather than against itself.
_LEVELS = [
    (("or",), False),
    (("and",), False),
    (("<", ">", "<=", ">=", "==", "!=", "===", "!=="), False),
    (("++", "--", "<>"), True),
    (("+", "-"), False),
    (("*", "/"), False),
]
_PRECEDENCE = {op: (level, right) for level, (ops, right) in enumerate(_LEVELS) for op in ops}


def _assert_binop_spans_cover_operands(expr):
    if isinstance(expr, BinOp):
        assert (expr.span.start, expr.span.end) == (expr.left.span.start, expr.right.span.end)
        _assert_binop_spans_cover_operands(expr.left)
        _assert_binop_spans_cover_operands(expr.right)


class TestOperatorTable:
    def test_seventeen_binary_operators(self):
        assert len(_PRECEDENCE) == 17

    @pytest.mark.parametrize("op1,op2", itertools.product(_PRECEDENCE, repeat=2))
    def test_grouping_of_every_operator_pair(self, op1, op2):
        source = f"a {op1} b {op2} c"
        expr = parse_expression(source)
        (level1, right1), (level2, _) = _PRECEDENCE[op1], _PRECEDENCE[op2]
        a, b, c = Var("a"), Var("b"), Var("c")
        if level1 > level2 or (level1 == level2 and not right1):
            assert expr == BinOp(op2, BinOp(op1, a, b), c)
        else:
            assert expr == BinOp(op1, a, BinOp(op2, b, c))
        assert (expr.span.start, expr.span.end) == (0, len(source))
        _assert_binop_spans_cover_operands(expr)

    def test_unary_minus_applies_to_map_access(self):
        expr = parse_expression("-a[:k]")
        assert expr == UnaryOp("-", MapAccess(Var("a"), MapKey.atom("k")))
        assert (expr.span.start, expr.span.end) == (0, 6)

    def test_not_binds_tighter_than_and(self):
        assert parse_expression("not a and b") == BinOp("and", UnaryOp("not", Var("a")), Var("b"))

    def test_unary_minus_nests(self):
        expr = parse_expression("- - a")
        assert expr == UnaryOp("-", UnaryOp("-", Var("a")))
        assert (expr.operand.span.start, expr.operand.span.end) == (2, 5)

    def test_string_with_operator_text_is_not_an_operator(self):
        with pytest.raises(ParseError, match="expected 'eof', found '\\+'"):
            parse_expression('a "+" b')


class TestNesting:
    def test_hundred_nested_parentheses(self):
        program = parse_program("x = " + "(" * 100 + "1" + ")" * 100)
        assert program.items[0] == Match(VarPattern("x"), IntLit(1))

    def test_hundred_element_cons_list(self):
        cons = "[]"
        for i in reversed(range(100)):
            cons = f"[{i} | {cons}]"
        program = parse_program(f"xs = {cons}")
        assert isinstance(program.items[0].value, syntax.ConsExpr)

    def test_too_deep_nesting_is_a_parse_error(self):
        source = "x = " + "(" * 5000 + "1" + ")" * 5000
        with pytest.raises(ParseError, match="nesting too deep") as exc:
            parse_program(source)
        assert 0 < exc.value.span.start < len(source)

    @pytest.mark.parametrize("parse, prefix", [(parse_program, "x = "), (parse_expression, "")])
    def test_four_hundred_nested_parentheses_are_too_deep(self, parse, prefix):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(prefix + "(" * 400 + "1" + ")" * 400)

    @pytest.mark.parametrize("parse, prefix", [
        (parse_spec, "@spec f() :: "), (parse_type_text, ""),
    ])
    def test_type_entry_points_turn_recursion_into_a_parse_error(self, parse, prefix):
        # A type at MAX_TYPE_DEPTH recurses about once per level; on a stack
        # with less room than that the entry point reports nesting too deep.
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            with pytest.raises(ParseError, match="nesting too deep"):
                parse(prefix + "[" * MAX_TYPE_DEPTH + "integer" + "]" * MAX_TYPE_DEPTH)
        finally:
            sys.setrecursionlimit(limit)

    def test_limit_is_the_module_constant(self):
        depth = MAX_NESTING - 1
        assert parse_expression("(" * depth + "1" + ")" * depth) == IntLit(1)
        depth = MAX_NESTING
        with pytest.raises(ParseError, match="nesting too deep") as exc:
            parse_expression("(" * depth + "1" + ")" * depth)
        assert (exc.value.span.start, exc.value.span.end) == (depth, depth + 1)

    @pytest.mark.parametrize("source", [
        "x = " + "- " * 400 + "1",
        "x = " + " <> ".join(['"a"'] * 400),
        " = ".join(f"x{i}" for i in range(400)) + " = 1",
        "x = m" + "[:a]" * 400,
    ], ids=["unary", "concat", "match", "map_access"])
    def test_operator_chains_count_towards_the_limit(self, source):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_program(source)

    def test_error_span_does_not_depend_on_the_callers_stack(self):
        source = f"xs = {_cons_list(1000)}"

        def span_from(frames):
            if frames:
                return span_from(frames - 1)
            with pytest.raises(ParseError, match="nesting too deep") as exc:
                parse_program(source)
            return exc.value.span.start, exc.value.span.end

        assert span_from(0) == span_from(200)

    def test_overlong_integer_literal_is_a_parse_error(self):
        with pytest.raises(ParseError, match="integer literal is too long") as exc:
            parse_program("x = " + "1" * 5000)
        assert (exc.value.span.start, exc.value.span.end) == (4, 5004)


def _cons_list(length):
    cons = "[]"
    for i in reversed(range(length)):
        cons = f"[{i} | {cons}]"
    return cons


def _taken(monkeypatch, tokens, parse):
    """How many times `parse(tokens)` takes each token, by index."""
    counts = Counter()
    take = Parser.take

    def counting_take(self):
        if self.peek().kind != "eof":
            counts[self.pos] += 1
        return take(self)

    monkeypatch.setattr(Parser, "take", counting_take)
    parse(tokens)
    return counts


class TestParseOnce:
    """No rewinds: every token is taken once, so parsing is linear in the input."""

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_corpus_tokens_are_taken_once(self, monkeypatch, path):
        tokens = tokenize(path.read_text())
        counts = _taken(monkeypatch, tokens, parse_program)
        assert counts == Counter(range(len(tokens) - 1))

    def test_tokens_before_a_syntax_error_are_taken_once(self, monkeypatch):
        tokens = tokenize((DATA_DIR / "bad_syntax.ex").read_text())

        def parse(tokens):
            with pytest.raises(ParseError):
                parse_program(tokens)

        counts = _taken(monkeypatch, tokens, parse)
        assert counts and set(counts.values()) == {1}

    @pytest.mark.parametrize("depth", [50, 100, 200])
    def test_nested_tuples_are_taken_once(self, monkeypatch, depth):
        tokens = tokenize("f(" + "{1, " * depth + "2" + "}" * depth + ")")
        counts = _taken(monkeypatch, tokens, parse_program)
        assert counts == Counter(range(len(tokens) - 1))


class TestIfDesugaring:
    def test_else_kept(self):
        expr = parse_expression("if c do 1 else 2 end")
        assert expr == If(Var("c"), IntLit(1), IntLit(2))

    def test_else_less_if_desugars_to_nil(self):
        expr = parse_expression("if c do 1 end")
        assert expr == If(Var("c"), IntLit(1), AtomLit("nil"))

    def test_synthetic_else_span_is_the_if_keyword(self):
        source = "y = if c do 1 end"
        expr = parse_expression(source)
        synthetic = expr.value.orelse
        assert source[synthetic.span.start:synthetic.span.end] == "if"


class TestPatterns:
    def test_pin_and_tuple(self):
        expr = parse_expression("{^x, y} = {1, 2}")
        assert expr.pattern == TuplePattern([syntax.PinPattern("x"), VarPattern("y")])

    def test_cons_pattern(self):
        expr = parse_expression("[x | _] = l")
        assert expr.pattern == ConsPattern(VarPattern("x"), Wildcard())

    def test_map_pattern(self):
        expr = parse_expression("%{9 => b} = m")
        assert expr.pattern == syntax.MapPattern([(MapKey.integer(9), VarPattern("b"))])

    def test_duplicate_map_pattern_keys_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_expression("%{9 => a, 9 => b} = m")

    def test_wildcards_and_pins_inside_patterns(self):
        assert parse_expression("{_, y} = t").pattern == TuplePattern([Wildcard(), VarPattern("y")])
        assert parse_expression("{1, ^y} = t").pattern == \
            TuplePattern([IntLit(1), syntax.PinPattern("y")])
        expr = parse_expression("case t do\n{^x, _} -> 1\n[_ | ^y] -> 2\n_ -> 3\nend")
        assert [clause.pattern for clause in expr.clauses] == [
            TuplePattern([syntax.PinPattern("x"), Wildcard()]),
            ConsPattern(Wildcard(), syntax.PinPattern("y")),
            Wildcard(),
        ]

    def test_cond_clause_body_of_several_statements(self):
        expr = parse_expression("cond do\nx -> a = 1\nb = a\nb\ntrue -> 2\nend")
        assert [clause.cond for clause in expr.clauses] == [Var("x"), syntax.BoolLit(True)]
        assert expr.clauses[0].body == Seq(
            Match(VarPattern("a"), IntLit(1)), Seq(Match(VarPattern("b"), Var("a")), Var("b")))


class TestPrograms:
    def test_nested_modules(self):
        program = parse_program(
            "defmodule Base do defmodule Math do def dec(x) do x - 1 end end end")
        assert isinstance(program.items[0], ModuleDef)
        outer = program.items[0]
        assert outer.name == "Base"
        assert isinstance(outer.body[0], ModuleDef)
        assert outer.body[0].name == "Math"

    def test_top_level_expressions_group_into_one_sequence(self):
        program = parse_program("x = 1\nx + 1\ndef f(y) do y end\n2 + 2")
        assert len(program.items) == 3
        assert isinstance(program.items[0], Seq)
        assert isinstance(program.items[1], syntax.FunctionDef)

    def test_def_params_are_patterns(self):
        program = parse_program("def fact(0) do 1 end")
        assert program.items[0].params == [IntLit(0)]

    def test_unbalanced_end(self):
        with pytest.raises(ParseError):
            parse_program("def f(x) do x end end")

    def test_missing_end(self):
        with pytest.raises(ParseError):
            parse_program("defmodule M do def f(x) do x end")


class TestSpecParsing:
    def test_simple_spec(self):
        decl = parse_spec("@spec func(integer) :: float")
        assert decl.name == "func"
        assert decl.params == [INTEGER]
        assert decl.result == FLOAT

    def test_list_of_any(self):
        decl = parse_spec("@spec length([any]) :: integer")
        assert decl.params == [ListType(ANY)]
        assert decl.result == INTEGER

    def test_function_typed_parameter(self):
        decl = parse_spec("@spec f((integer) -> integer) :: integer")
        assert decl.params == [FunctionType((INTEGER,), INTEGER)]

    def test_compound_types(self):
        assert parse_type_text("{any, float}") == TupleType((ANY, FLOAT))
        assert parse_type_text("%{:a => integer, 9 => boolean}") == MapType([
            (MapKey.atom("a"), INTEGER),
            (MapKey.integer(9), parse_type_text("boolean")),
        ])
        assert parse_type_text(":ok") == AtomLiteralType("ok")
        assert parse_type_text("(string) -> (integer) -> integer") == \
            FunctionType((STRING,), FunctionType((INTEGER,), INTEGER))

    def test_duplicate_map_type_keys_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_type_text("%{:a => integer, :a => float}")

    def test_unknown_type_name(self):
        with pytest.raises(ParseError, match="unknown type"):
            parse_type_text("number")

    def test_boolean_literals_are_not_types(self):
        with pytest.raises(ParseError):
            parse_type_text("true")


class TestSpansAndRoundTrip:
    def test_span_of_records_parse_position(self):
        source = "x + 10"
        expr = parse_expression(source)
        span = expr.span
        assert (span.start, span.end) == (0, 6)
        assert (*span.source.position(span.start), span.source.position(span.end)[1]) == (1, 1, 7)

    def test_span_of_nested_node_contained_in_parent(self):
        expr = parse_expression("1 + 2 * 3")
        inner = expr.right.span
        outer = expr.span
        assert outer.start <= inner.start and inner.end <= outer.end

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_spans_index_valid_source(self, path):
        source = path.read_text()
        stack = [parse_program(source, path=path.name)]
        while stack:
            node = stack.pop()
            stack.extend(syntax.children(node))
            span = node.span
            assert 0 <= span.start <= span.end <= len(source)
            line, col = span.source.position(span.start)
            assert span.source.text == source and line >= 1 and col >= 1

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_child_spans_contained_in_parents(self, path):
        program = parse_program(path.read_text(), path=path.name)
        stack = [program]
        while stack:
            node = stack.pop()
            for child in syntax.children(node):
                assert node.span.start <= child.span.start
                assert child.span.end <= node.span.end
                stack.append(child)

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_pretty_print_reparses_to_equal_ast(self, path):
        first = parse_program(path.read_text(), path=path.name)
        second = parse_program(printer.source(first), path=path.name)
        assert first == second

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_nodes_are_slotted(self, path):
        stack = [parse_program(path.read_text())]
        while stack:
            node = stack.pop()
            assert not hasattr(node, "__dict__"), type(node).__name__
            stack.extend(syntax.children(node))

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_parse_is_deterministic(self, path):
        source = path.read_text()
        assert parse_program(source) == parse_program(source)
