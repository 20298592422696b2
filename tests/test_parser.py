import dataclasses
import inspect
import itertools
import sys
import textwrap
from collections import Counter

import pytest

import printer
from conftest import DATA_DIR, corpus_files
from extc import syntax, types
from extc.checker import check_programs
from extc.diagnostics import Span
from extc.lexer import tokenize
from extc.parser import MAX_NESTING, MAX_TYPE_DEPTH, ParseError, Parser, parse_program
from extc.syntax import (
    AtomLit, BinOp, Block, Call, Case, ConsExpr, If, IntLit, MapAccess, Match,
    ModuleDef, PinPattern, TupleExpr, UnaryOp, Var, VarCall, Wildcard, dump,
)
from extc.types import (
    ANY, AtomLiteralType, FLOAT, FunctionType, INTEGER, ListType, MapKey,
    MapType, STRING, TupleType,
)


def expression(source):
    """The statements of `source`, a program that declares nothing."""
    return parse_program(source).items[0]


def spec_type(text):
    """The result type of a `@spec` that declares `text`."""
    return parse_program(f"@spec f() :: {text}").items[0].result


class TestExpressions:
    def test_sequence_with_match(self):
        expr = expression("x = 10 * 9\nx + 10")
        assert dump(expr) == dump(Block([
            Match(Var("x"), BinOp("*", IntLit(10), IntLit(9))),
            BinOp("+", Var("x"), IntLit(10)),
        ]))

    def test_semicolon_and_newline_interchangeable(self):
        assert dump(expression("x = 1; x")) == dump(expression("x = 1\nx"))

    def test_multiplication_binds_tighter(self):
        assert dump(expression("1 + 2 * 3")) == \
            dump(BinOp("+", IntLit(1), BinOp("*", IntLit(2), IntLit(3))))

    def test_comparison_looser_than_arith(self):
        expr = expression("1 + 2 > 2")
        assert expr.op == ">"

    def test_and_or_precedence(self):
        expr = expression("true and false or true")
        assert expr.op == "or"
        assert expr.left.op == "and"

    def test_concat_right_associative(self):
        expr = expression('"a" <> "b" <> "c"')
        assert expr.op == "<>"
        assert isinstance(expr.right, BinOp) and expr.right.op == "<>"

    def test_unary_minus_binds_tightest(self):
        expr = expression("-1 + 2")
        assert expr.op == "+"
        assert dump(expr.left) == dump(syntax.UnaryOp("-", IntLit(1)))

    def test_match_is_lowest_and_right_associative(self):
        expr = expression("x = y = 3")
        assert isinstance(expr, Match)
        assert isinstance(expr.value, Match)

    def test_non_pattern_lhs_is_an_error(self):
        with pytest.raises(ParseError, match="not a valid pattern") as exc:
            expression("3 + x = 5")
        assert exc.value.span.start == 0

    @pytest.mark.parametrize("source, start", [
        ("(x) = 1", 1), ("{(x), y} = t", 0), ("[(1) | t] = l", 0),
    ])
    def test_parenthesized_lhs_is_not_a_pattern(self, source, start):
        with pytest.raises(ParseError, match="not a valid pattern") as exc:
            expression(source)
        assert exc.value.span.start == start

    def test_parenthesized_match_inside_expression(self):
        expr = expression("(x = 3) > 2")
        assert expr.op == ">"
        assert isinstance(expr.left, Match)

    def test_map_access_key_must_be_literal(self):
        with pytest.raises(ParseError):
            expression("m[x]")

    def test_map_access(self):
        expr = expression("m[9]")
        assert dump(expr) == dump(syntax.MapAccess(Var("m"), MapKey("integer", 9)))

    def test_duplicate_map_literal_keys_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            expression("%{:a => 1, :a => 2}")

    def test_qualified_call(self):
        expr = expression("Base.Math.dec(n)")
        assert dump(expr) == dump(Call(("Base", "Math"), "dec", [Var("n")]))

    def test_local_call(self):
        assert dump(expression("dec(1)")) == dump(Call((), "dec", [IntLit(1)]))

    def test_var_call(self):
        assert dump(expression("f.(8)")) == dump(VarCall("f", [IntLit(8)]))

    def test_anon_fn(self):
        expr = expression("fn (x, _) -> x end")
        assert dump(expr) == dump(syntax.AnonFn([Var("x"), Wildcard()], Var("x")))

    def test_case_branches(self):
        expr = expression("case :yes do :yes -> 1\n:no -> 2 end")
        assert isinstance(expr, Case)
        assert len(expr.clauses) == 2
        assert dump(expr.clauses[1].pattern) == dump(AtomLit("no"))

    def test_case_branch_body_can_be_a_sequence(self):
        expr = expression("case x do :a -> y = 1\ny + 1\n:b -> 2 end")
        assert len(expr.clauses) == 2
        assert isinstance(expr.clauses[0].body, Block)

    def test_cond(self):
        expr = expression("cond do x > 1 -> 1\ntrue -> 2 end")
        assert isinstance(expr, syntax.Cond)
        assert len(expr.clauses) == 2

    @pytest.mark.parametrize("source, message, span", [
        ("case x do end", "case expression needs at least one clause", (10, 13)),
        ("cond do\nend", "cond expression needs at least one clause", (8, 11)),
    ])
    def test_clauses_need_a_clause_before_end(self, source, message, span):
        with pytest.raises(ParseError) as exc:
            expression(source)
        assert (exc.value.message, (exc.value.span.start, exc.value.span.end)) == (message, span)

    @pytest.mark.parametrize("source, found, span", [
        ("case x do 1 -> 2 3 -> 4 end", "'3'", (17, 18)),
        ("cond do true -> 1 false -> 2 end", "'false'", (18, 23)),
        ("case x do 1 -> y = 2 y -> 4 end", "'y'", (21, 22)),
        ("case x do 1 -> 2) end", "')'", (16, 17)),
    ])
    def test_clauses_need_a_separator_between_them(self, source, found, span):
        """As between statements, a clause's body ends at a newline, `;` or `end`."""
        with pytest.raises(ParseError) as exc:
            expression(source)
        assert (exc.value.message, (exc.value.span.start, exc.value.span.end)) == (
            f"expected a newline or ';', found {found}", span)

    @pytest.mark.parametrize("source", [
        "case x do 1 -> 2; 3 -> 4 end", "case x do 1 -> 2\n3 -> 4 end",
        "cond do true -> 1; false -> 2 end", "cond do true -> 1\nfalse -> 2; end",
    ])
    def test_separated_clauses_parse(self, source):
        assert len(expression(source).clauses) == 2

    def test_wildcard_is_not_an_expression(self):
        with pytest.raises(ParseError) as exc:
            expression("_ + 1")
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
            expression(source)
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
        assert (expr.start, expr.end) == (expr.left.start, expr.right.end)
        _assert_binop_spans_cover_operands(expr.left)
        _assert_binop_spans_cover_operands(expr.right)


class TestOperatorTable:
    def test_seventeen_binary_operators(self):
        assert len(_PRECEDENCE) == 17

    @pytest.mark.parametrize("op1,op2", itertools.product(_PRECEDENCE, repeat=2))
    def test_grouping_of_every_operator_pair(self, op1, op2):
        source = f"a {op1} b {op2} c"
        expr = expression(source)
        (level1, right1), (level2, _) = _PRECEDENCE[op1], _PRECEDENCE[op2]
        a, b, c = Var("a"), Var("b"), Var("c")
        if level1 > level2 or (level1 == level2 and not right1):
            assert dump(expr) == dump(BinOp(op2, BinOp(op1, a, b), c))
        else:
            assert dump(expr) == dump(BinOp(op1, a, BinOp(op2, b, c)))
        assert (expr.start, expr.end) == (0, len(source))
        _assert_binop_spans_cover_operands(expr)

    def test_unary_minus_applies_to_map_access(self):
        expr = expression("-a[:k]")
        assert dump(expr) == dump(UnaryOp("-", MapAccess(Var("a"), MapKey("atom", "k"))))
        assert (expr.start, expr.end) == (0, 6)

    def test_not_binds_tighter_than_and(self):
        assert dump(expression("not a and b")) == \
            dump(BinOp("and", UnaryOp("not", Var("a")), Var("b")))

    def test_unary_minus_nests(self):
        expr = expression("- - a")
        assert dump(expr) == dump(UnaryOp("-", UnaryOp("-", Var("a"))))
        assert (expr.operand.start, expr.operand.end) == (2, 5)

    def test_string_with_operator_text_is_not_an_operator(self):
        with pytest.raises(ParseError) as exc:
            parse_program('def f() do a "+" b end')
        assert exc.value.message == "expected 'end', found '\"+\"'"
        with pytest.raises(ParseError) as exc:
            parse_program('a "+" b')
        assert exc.value.message == "expected a newline or ';', found '\"+\"'"

    @pytest.mark.parametrize("source, expected", [
        ('{"(", "a", x} = t', Match(TupleExpr([syntax.StringLit("("), syntax.StringLit("a"),
                                                  Var("x")]), Var("t"))),
        ('f(x, "(")', Call((), "f", [Var("x"), syntax.StringLit("(")])),
        ("%{:do => 1}", syntax.MapExpr([(MapKey("atom", "do"), IntLit(1))])),
        ('if "do" do :end end', If(syntax.StringLit("do"), AtomLit("end"), AtomLit("nil"))),
    ], ids=["group-check", "call-argument", "map-key", "if"])
    def test_string_or_atom_that_spells_a_symbol_is_no_symbol(self, source, expected):
        # Such a token keeps kind `string` or `atom`, so no kind test takes it for the symbol.
        assert dump(expression(source)) == dump(expected)


@pytest.mark.parametrize("source, message, span", [
    ('def f() do a "" b end', "expected 'end', found '\"\"'", (13, 15)),
    ('@spec f("x") :: integer', "expected a type, found '\"x\"'", (8, 11)),
    ('@spec f("a\\"b") :: integer', "expected a type, found '\"a\\\\\"b\"'", (8, 14)),
    ("@spec f(", "expected a type, found 'eof'", (8, 8)),
    ("x = ", "expected an expression, found 'eof'", (4, 4)),
    ("def f(", "expected a pattern, found 'eof'", (6, 6)),
    ("def f() do 1", "expected 'end', found 'eof'", (12, 12)),
    ("x = 1 :ok", "expected a newline or ';', found ':ok'", (6, 9)),
    ("def f() do a :ok end", "expected 'end', found ':ok'", (13, 16)),
    ("defmodule 1 do end", "expected module name, found '1'", (10, 11)),
    ("def 1() do 1 end", "expected function name, found '1'", (4, 5)),
    ("@spec 1() :: integer", "expected function name, found '1'", (6, 7)),
    ("x = M.1()", "expected name after '.', found '1'", (6, 7)),
    ("def f(^1) do 1 end", "expected variable after '^', found '1'", (7, 8)),
    ("x = ^1", "expected variable after '^', found '1'", (5, 6)),
    ("case x do 1 -> 2", "expected 'end', found 'eof'", (16, 16)),
    ("cond do true -> 1", "expected 'end', found 'eof'", (17, 17)),
    ("case x do", "expected 'end', found 'eof'", (9, 9)),
])
def test_found_token_is_named_as_written(source, message, span):
    """A string is named with its quotes and escapes, an atom with its colon,
    the end of file as `eof`. An expected token kind is quoted, a description is not."""
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert (exc.value.message, (exc.value.span.start, exc.value.span.end)) == (message, span)


@pytest.mark.parametrize("source, span", [
    ("def f(x + 1) do 1 end", (6, 11)),
    ("fn (g(x)) -> 1 end", (4, 8)),
    ("case x do f(y) -> 1 end", (10, 14)),
    ("case x do 1 -> 2\nf(y) -> 3 end", (17, 21)),
    ("case x do 1 -> 2; f(y) -> 3 end", (18, 22)),
    ("f(x) = 1", (0, 4)),
    ("{_, f(x)} = t", (0, 9)),
    ("def f({_, g(x)}) do 1 end", (6, 15)),
    ("case t do {^y, f(x)} -> 1 end", (10, 20)),
], ids=["parameter", "fn-parameter", "first-head", "later-head", "head-after-semicolon",
        "left-of-match", "wildcard-left-of-match", "wildcard-parameter", "pin-head"])
def test_every_pattern_position_rejects_an_expression_alike(source, span):
    """A parameter, a `case` head and the left of `=` are each an expression
    converted to a pattern; one that is none fails over its whole span, and
    the `_` or `^x` in it is not reported on its own."""
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert (exc.value.message, (exc.value.span.start, exc.value.span.end)) == (
        "expression is not a valid pattern", span)


@pytest.mark.parametrize("source, message, span", [
    ("def f({_, )}) do 1 end", "expected an expression, found ')'", (10, 11)),
    ("{_, )} = t", "expected an expression, found ')'", (4, 5)),
    ("case x do [^y | ] -> 1 end", "expected an expression, found ']'", (16, 17)),
])
def test_a_pattern_cut_short_reports_where_it_stops(source, message, span):
    """A syntax error inside a pattern is reported where it stands, not at an
    `_` or `^x` before it, which the pattern would have claimed."""
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert (exc.value.message, (exc.value.span.start, exc.value.span.end)) == (message, span)


@pytest.mark.parametrize("source, message, span", [
    ("x = %{:a => 1, :a => 2}", "duplicate keys in map", (4, 23)),
    ("%{:a => x, :a => y} = m", "duplicate keys in map", (0, 19)),
    ("def f(%{:a => x, :a => y}) do 1 end", "duplicate keys in map", (6, 25)),
    ("@spec f(%{:a => integer, :a => float}) :: integer", "duplicate keys in map type", (8, 37)),
], ids=["value", "left-of-match", "parameter", "type"])
def test_duplicate_keys_name_a_value_map_and_a_map_type(source, message, span):
    """A map left of `=` is parsed before it is known to be a pattern, so
    every value map is named alike."""
    with pytest.raises(ParseError) as exc:
        parse_program(source)
    assert (exc.value.message, (exc.value.span.start, exc.value.span.end)) == (message, span)


class TestNesting:
    def test_hundred_nested_parentheses(self):
        program = parse_program("x = " + "(" * 100 + "1" + ")" * 100)
        assert dump(program.items[0]) == dump(Match(Var("x"), IntLit(1)))

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

    @pytest.mark.parametrize("parse, prefix", [(parse_program, "x = "), (expression, "")])
    def test_four_hundred_nested_parentheses_are_too_deep(self, parse, prefix):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse(prefix + "(" * 400 + "1" + ")" * 400)

    def test_program_entry_point_turns_type_recursion_into_a_parse_error(self):
        # A type at MAX_TYPE_DEPTH recurses about once per level; on a stack
        # with less room than that `parse_program` reports nesting too deep.
        depth = len(inspect.stack(0))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            with pytest.raises(ParseError, match="nesting too deep"):
                spec_type("[" * MAX_TYPE_DEPTH + "integer" + "]" * MAX_TYPE_DEPTH)
        finally:
            sys.setrecursionlimit(limit)

    def test_limit_is_the_module_constant(self):
        depth = MAX_NESTING - 1
        assert dump(expression("(" * depth + "1" + ")" * depth)) == dump(IntLit(1))
        depth = MAX_NESTING
        with pytest.raises(ParseError, match="nesting too deep") as exc:
            expression("(" * depth + "1" + ")" * depth)
        assert (exc.value.span.start, exc.value.span.end) == (depth, depth + 1)

    @pytest.mark.parametrize("source", [
        "x = " + "- " * 400 + "1",
        "x = " + " <> ".join(['"a"'] * 400),
        " = ".join(f"x{i}" for i in range(400)) + " = 1",
    ], ids=["unary", "concat", "match"])
    def test_operator_chains_count_towards_the_limit(self, source):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_program(source)

    def test_map_access_chain_is_not_a_level(self):
        # The checker and `syntax.dump` walk access chains with loops.
        program = parse_program("x = g(1)" + "[:a]" * 1000)
        assert check_programs([program]) == []
        assert syntax.dump(program).count(" MapAccess") == 1000

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
    """How many times `parse(tokens)` takes each token, by index. The parser
    takes tokens by writing `pos`, often inline, so a property on `Parser.pos`
    credits every token a write steps over; a write that steps back fails."""
    counts = Counter()

    def step(self, pos):
        old = vars(self).get("pos", 0)
        if pos < old:
            pytest.fail(f"pos stepped back from {old} to {pos}")
        counts.update(range(old, pos))
        vars(self)["pos"] = pos

    monkeypatch.setattr(Parser, "pos", property(lambda self: vars(self)["pos"], step),
                        raising=False)
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
        expr = expression("if c do 1 else 2 end")
        assert dump(expr) == dump(If(Var("c"), IntLit(1), IntLit(2)))

    def test_else_less_if_desugars_to_nil(self):
        expr = expression("if c do 1 end")
        assert dump(expr) == dump(If(Var("c"), IntLit(1), AtomLit("nil")))

    def test_synthetic_else_span_is_the_if_keyword(self):
        source = "y = if c do 1 end"
        expr = expression(source)
        synthetic = expr.value.orelse
        assert source[synthetic.start:synthetic.end] == "if"


class TestPatterns:
    def test_pin_and_tuple(self):
        expr = expression("{^x, y} = {1, 2}")
        assert dump(expr.pattern) == dump(TupleExpr([PinPattern("x"), Var("y")]))

    def test_cons_pattern(self):
        expr = expression("[x | _] = l")
        assert dump(expr.pattern) == dump(ConsExpr(Var("x"), Wildcard()))

    def test_map_pattern(self):
        expr = expression("%{9 => b} = m")
        assert dump(expr.pattern) == dump(syntax.MapExpr([(MapKey("integer", 9), Var("b"))]))

    def test_duplicate_map_pattern_keys_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            expression("%{9 => a, 9 => b} = m")

    def test_wildcards_and_pins_inside_patterns(self):
        assert dump(expression("{_, y} = t").pattern) == dump(TupleExpr([Wildcard(), Var("y")]))
        assert dump(expression("{1, ^y} = t").pattern) == \
            dump(TupleExpr([IntLit(1), PinPattern("y")]))
        expr = expression("case t do\n{^x, _} -> 1\n[_ | ^y] -> 2\n_ -> 3\nend")
        assert [dump(clause.pattern) for clause in expr.clauses] == list(map(dump, [
            TupleExpr([PinPattern("x"), Wildcard()]),
            ConsExpr(Wildcard(), PinPattern("y")),
            Wildcard(),
        ]))

    def test_cond_clause_body_of_several_statements(self):
        expr = expression("cond do\nx -> a = 1\nb = a\nb\ntrue -> 2\nend")
        assert [dump(clause.cond) for clause in expr.clauses] == \
            list(map(dump, [Var("x"), syntax.BoolLit(True)]))
        assert dump(expr.clauses[0].body) == dump(Block([
            Match(Var("a"), IntLit(1)), Match(Var("b"), Var("a")), Var("b")]))

    def test_pattern_is_the_parsed_expression(self):
        """Every pattern position holds the expression node that was parsed,
        over the offsets of its own text."""
        source = ("def f({a, [b | c]}) do fn (%{:k => d}) -> d end end\n"
                  "case t do [] -> 1\n{x, _} -> 2 end\n[h | t] = xs")
        fdef, statements = parse_program(source).items
        case, match = statements.exprs
        positions = [
            (fdef.params[0], "{a, [b | c]}", TupleExpr([Var("a"), ConsExpr(Var("b"), Var("c"))])),
            (fdef.body.params[0], "%{:k => d}", syntax.MapExpr([(MapKey("atom", "k"), Var("d"))])),
            (case.clauses[0].pattern, "[]", syntax.ElistExpr()),
            (case.clauses[1].pattern, "{x, _}", TupleExpr([Var("x"), Wildcard()])),
            (match.pattern, "[h | t]", ConsExpr(Var("h"), Var("t"))),
        ]
        for pattern, text, expected in positions:
            assert dump(pattern) == dump(expected)
            assert source[pattern.start:pattern.end] == text
            stack = [pattern]
            while stack:
                node = stack.pop()
                assert isinstance(node, (syntax.Expr, Wildcard)), node
                assert source[node.start:node.end] == printer.pattern_source(node)
                stack.extend(syntax.children(node))

    def test_dump_names_patterns_by_position(self):
        """A variable, tuple, list or map dumps under its pattern name in a
        `def` or `fn` parameter, a `case` head or the left of `=`, and
        everywhere under one, and under its expression name elsewhere."""
        source = """def f({a, _}, [b | []], %{:k => 1}) do
  g = fn ({^a, [c | _]}, %{1 => :ok}) -> c end
  {x, [y | []], true} = case b do
    [] -> {a, [b | []], %{:k => g}}
    {"s", ^a, %{:k => [d | _]}} -> d
  end
  x
end
"""
        assert syntax.dump(parse_program(source)) == textwrap.dedent("""\
        Program path='<input>'
          items:
            FunctionDef name='f'
              params:
                TuplePattern
                  items:
                    VarPattern name='a'
                    Wildcard
                ConsPattern
                  head:
                    VarPattern name='b'
                  tail:
                    ElistPattern
                MapPattern
                  entries:
                    :k =>
                      IntLit value=1
              body:
                Block
                  exprs:
                    Match
                      pattern:
                        VarPattern name='g'
                      value:
                        AnonFn
                          params:
                            TuplePattern
                              items:
                                PinPattern name='a'
                                ConsPattern
                                  head:
                                    VarPattern name='c'
                                  tail:
                                    Wildcard
                            MapPattern
                              entries:
                                1 =>
                                  AtomLit name='ok'
                          body:
                            Var name='c'
                    Match
                      pattern:
                        TuplePattern
                          items:
                            VarPattern name='x'
                            ConsPattern
                              head:
                                VarPattern name='y'
                              tail:
                                ElistPattern
                            BoolLit value=True
                      value:
                        Case
                          subject:
                            Var name='b'
                          clauses:
                            CaseClause
                              pattern:
                                ElistPattern
                              body:
                                TupleExpr
                                  items:
                                    Var name='a'
                                    ConsExpr
                                      head:
                                        Var name='b'
                                      tail:
                                        ElistExpr
                                    MapExpr
                                      entries:
                                        :k =>
                                          Var name='g'
                            CaseClause
                              pattern:
                                TuplePattern
                                  items:
                                    StringLit value='s'
                                    PinPattern name='a'
                                    MapPattern
                                      entries:
                                        :k =>
                                          ConsPattern
                                            head:
                                              VarPattern name='d'
                                            tail:
                                              Wildcard
                              body:
                                Var name='d'
                    Var name='x'""")


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
        assert isinstance(program.items[0], Block)
        assert isinstance(program.items[1], syntax.FunctionDef)

    def test_def_params_are_patterns(self):
        program = parse_program("def fact(0) do 1 end")
        assert list(map(dump, program.items[0].params)) == [dump(IntLit(0))]

    @pytest.mark.parametrize("source, col", [
        ("x = 1 y = 2", 7), ('a "+" b', 3), ("x = 1 def f() do 1 end", 7),
        ("defmodule M do x = 1 y = 2 end", 22),
        ("defmodule M do\n  x = 1 @spec f() :: atom\nend", 9),
    ])
    def test_statements_need_a_separator_before_the_next_item(self, source, col):
        with pytest.raises(ParseError, match="expected a newline or ';'") as exc:
            parse_program(source)
        assert exc.value.span.source.position(exc.value.span.start)[1] == col

    @pytest.mark.parametrize("source, count", [
        ("x = 1; y = 2", 1), ("x = 1\ny = 2\n", 1), ("x = 1;\ndef f() do 1 end", 2),
        ("def f() do 1 end def g() do 1 end", 2), ("defmodule M do x = 1 end", 1),
        ("defmodule M do\n  x = 1\n  def f() do 1 end\nend", 1),
    ])
    def test_separated_statements_and_declarations_parse(self, source, count):
        assert len(parse_program(source).items) == count

    def test_unbalanced_end(self):
        with pytest.raises(ParseError):
            parse_program("def f(x) do x end end")

    def test_missing_end(self):
        with pytest.raises(ParseError):
            parse_program("defmodule M do def f(x) do x end")


class TestSpecParsing:
    def test_simple_spec(self):
        decl = parse_program("@spec func(integer) :: float").items[0]
        assert decl.name == "func"
        assert decl.params == [INTEGER]
        assert decl.result == FLOAT

    def test_list_of_any(self):
        decl = parse_program("@spec length([any]) :: integer").items[0]
        assert decl.params == [ListType(ANY)]
        assert decl.result == INTEGER

    def test_function_typed_parameter(self):
        decl = parse_program("@spec f((integer) -> integer) :: integer").items[0]
        assert decl.params == [FunctionType((INTEGER,), INTEGER)]

    def test_compound_types(self):
        assert spec_type("{any, float}") == TupleType((ANY, FLOAT))
        assert spec_type("%{:a => integer, 9 => boolean}") == MapType([
            (MapKey("atom", "a"), INTEGER),
            (MapKey("integer", 9), spec_type("boolean")),
        ])
        assert spec_type(":ok") == AtomLiteralType("ok")
        assert spec_type("(string) -> (integer) -> integer") == \
            FunctionType((STRING,), FunctionType((INTEGER,), INTEGER))

    def test_duplicate_map_type_keys_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            spec_type("%{:a => integer, :a => float}")

    def test_unknown_type_name(self):
        with pytest.raises(ParseError, match="unknown type"):
            spec_type("number")

    def test_boolean_literals_are_not_types(self):
        with pytest.raises(ParseError):
            spec_type("true")


class TestSpansAndRoundTrip:
    def test_span_of_records_parse_position(self):
        program = parse_program("x + 10")
        expr, source = program.items[0], program.source
        assert (expr.start, expr.end) == (0, 6)
        assert (*source.position(expr.start), source.position(expr.end)[1]) == (1, 1, 7)

    def test_a_parenthesised_group_is_a_block_of_its_own(self):
        source = "x = 1; (y = 2; y); x"
        outer = expression(source)
        group = outer.exprs[1]
        assert [type(e) for e in outer.exprs] == [Match, Block, Var]
        assert source[group.start:group.end] == "y = 2; y"
        assert dump(expression(printer.source(outer))) == dump(outer)

    def test_span_of_nested_node_contained_in_parent(self):
        outer = expression("1 + 2 * 3")
        inner = outer.right
        assert outer.start <= inner.start and inner.end <= outer.end

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_spans_index_valid_source(self, path):
        source = path.read_text()
        program = parse_program(source, path=path.name)
        assert program.source.text == source
        stack = [program]
        while stack:
            node = stack.pop()
            stack.extend(syntax.children(node))
            assert 0 <= node.start <= node.end <= len(source)
            line, col = program.source.position(node.start)
            assert line >= 1 and col >= 1

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_child_spans_contained_in_parents(self, path):
        program = parse_program(path.read_text(), path=path.name)
        stack = [program]
        while stack:
            node = stack.pop()
            for child in syntax.children(node):
                assert node.start <= child.start
                assert child.end <= node.end
                stack.append(child)

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_clean_parse_builds_no_span(self, monkeypatch, path):
        """Nodes hold offsets; a `Span` is built only for a reported location."""
        built = []
        init = Span.__init__
        monkeypatch.setattr(Span, "__init__",
                            lambda span, *args: built.append(args) or init(span, *args))
        parse_program(path.read_text(), path=path.name)
        assert built == []

    @pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.name)
    def test_pretty_print_reparses_to_equal_ast(self, path):
        first = parse_program(path.read_text(), path=path.name)
        second = parse_program(printer.source(first), path=path.name)
        assert dump(first) == dump(second)

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
        assert dump(parse_program(source)) == dump(parse_program(source))


NODE_CLASSES = [value for value in vars(syntax).values()
                if isinstance(value, type) and issubclass(value, syntax.Node)]


class TestNodeContract:
    """What every node class shares through `Node`: fields derived from its
    `__slots__`, `Record`'s `__eq__` and `__repr__`, no hash, and the
    `__dataclass_fields__` that perfbench's traced node count reads. Tests
    that compare trees but not their offsets compare their `dump`s."""

    def test_syntax_defines_only_nodes(self):
        defined = [value for value in vars(syntax).values()
                   if isinstance(value, type) and value.__module__ == syntax.__name__]
        assert [cls for cls in defined if not issubclass(cls, syntax.Node)] == []

    def test_repr_comes_from_record(self):
        assert syntax.Node.__repr__ is types.Record.__repr__

    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
    def test_eq_and_repr_come_from_node_except_on_program(self, cls):
        # No node class overrides either, `Program` included; the name is
        # kept so that the test's ids stay stable.
        assert (cls.__eq__, cls.__repr__) == (types.Record.__eq__, types.Record.__repr__)

    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
    def test_fields_are_the_offsets_then_the_match_args(self, cls):
        extra = ["source"] if cls is syntax.Program else []
        assert [f.name for f in dataclasses.fields(cls)] == \
            ["start", "end", *cls.__match_args__, *extra]
        assert cls._fields == ("start", "end", *cls.__match_args__, *extra)
        assert not hasattr(object.__new__(cls), "__dict__")

    def test_fields_of_a_subclass_read_after_node(self):
        # Caching the first answer on `Node` would hand it to every subclass.
        assert [f.name for f in dataclasses.fields(syntax.Node)] == ["start", "end"]
        assert [f.name for f in dataclasses.fields(IntLit)] == ["start", "end", "value"]
        assert [f.name for f in dataclasses.fields(IntLit(5))] == ["start", "end", "value"]

    def test_equality_compares_offsets(self):
        assert IntLit(5, 7, 9) == IntLit(5, 7, 9)
        assert IntLit(5, 0, 1) != IntLit(5, 7, 9)
        assert BinOp("+", IntLit(1, 0, 1), Var("x", 4, 5), 0, 5) != BinOp("+", IntLit(1), Var("x"))
        assert IntLit(5) != IntLit(6)
        assert Call(("M",), "f", [IntLit(1)]) != Call(("N",), "f", [IntLit(1)])

    def test_equality_tells_classes_apart(self):
        assert IntLit(1) != syntax.FloatLit(1.0)
        assert Var("x") != PinPattern("x")
        assert IntLit(1).__eq__(1) is NotImplemented
        with pytest.raises(TypeError, match="unhashable"):
            hash(IntLit(5))

    def test_repr_is_the_dataclass_form(self):
        assert repr(IntLit(5)) == "IntLit(start=0, end=0, value=5)"
        assert repr(Wildcard(3, 4)) == "Wildcard(start=3, end=4)"
        assert repr(expression("x = [1 | t]")) == (
            "Match(start=0, end=11, pattern=Var(start=0, end=1, name='x'), "
            "value=ConsExpr(start=4, end=11, head=IntLit(start=5, end=6, value=1), "
            "tail=Var(start=9, end=10, name='t')))")

    def test_a_long_body_reprs_and_compares(self):
        # A `Block` holds its statements in a list, not in a chain that nests
        # one level deeper for each statement.
        source = "def f(n) do\n" + "".join(f"x{i} = {i}\n" for i in range(1200)) + "n\nend\n"
        program = parse_program(source)
        assert program == program and program.items == parse_program(source).items
        assert repr(program).count("Match(") == 1200

    def test_program_repr_writes_every_field(self):
        assert repr(parse_program("x = 1", path="a.ex")).startswith(
            "Program(start=0, end=5, items=[Match(start=0, end=5, "
            "pattern=Var(start=0, end=1, name='x'), value=IntLit(start=4, end=5, value=1))], "
            "path='a.ex', source=<extc.diagnostics.Source object at ")
