import pytest
from hypothesis import given
from hypothesis import strategies as st

from extc.diagnostics import CheckFailure
from extc.parser import Parser
from extc.lexer import tokenize
from extc.patterns import (
    CASE, MATCH, SPEC, check_case_pattern, check_pattern, natural_type,
)
from extc.types import (
    ANY, ATOM, AtomLiteralType, BOOLEAN, FLOAT, INTEGER, ListType, MapKey,
    MapType, NONE, STRING, TERM, TupleType,
)


def pat(source):
    parser = Parser(tokenize(source))
    pattern = parser.pattern()
    parser.expect("eof")
    return pattern


def check(source, expected, mode, sigma=None, gamma=None):
    """The bindings of `source`'s pattern, added to a copy of `gamma`."""
    gamma = dict(gamma or {})
    check_pattern(pat(source), expected, sigma or {}, gamma, mode)
    return gamma


def natural(source, sigma=None, gamma=None):
    """The natural type of `source`'s pattern, and its bindings at that type
    added to `gamma`, as an anonymous function's parameter binds."""
    pattern, sigma = pat(source), sigma or {}
    gamma = {} if gamma is None else gamma
    t = natural_type(pattern, sigma)
    check_pattern(pattern, t, sigma, gamma, CASE)
    return t, gamma


def error_code(source, expected, mode, sigma=None, gamma=None):
    with pytest.raises(CheckFailure) as exc:
        check(source, expected, mode, sigma, gamma)
    return exc.value.code


class TestWildcardAndLiterals:
    def test_tp_wild_accepts_anything(self):
        for t in (INTEGER, TERM, ANY, ListType(NONE)):
            assert check("_", t, MATCH) == {}

    def test_tp_lit_match_upcasts_the_value(self):
        assert check("1", INTEGER, MATCH) == {}
        assert check("1.0", INTEGER, MATCH) == {}  # integer value fits float pattern
        assert error_code("1", STRING, MATCH) == "E_PATTERN_TYPE"
        assert error_code("1", TERM, MATCH) == "E_PATTERN_TYPE"

    def test_tp_lit_case_needs_pattern_below_selector(self):
        assert check(":yes", ATOM, CASE) == {}
        assert check("1", FLOAT, CASE) == {}
        assert error_code("1.0", INTEGER, CASE) == "E_PATTERN_TYPE"

    def test_tp_lit_spec_uses_precision(self):
        assert check("0", INTEGER, SPEC) == {}
        assert check("0", ANY, SPEC) == {}
        # no subtyping inside precision: an integer literal does not refine float
        assert error_code("0", FLOAT, SPEC) == "E_PATTERN_TYPE"

    def test_literal_against_any(self):
        for mode in (MATCH, CASE, SPEC):
            assert check(":ok", ANY, mode) == {}


class TestVariables:
    def test_tp_varn_binds_expected(self):
        assert check("x", INTEGER, MATCH) == {"x": INTEGER}

    def test_tp_vare_requires_exact_equality(self):
        gamma = check("{x, x}", TupleType((INTEGER, INTEGER)), MATCH)
        assert gamma == {"x": INTEGER}
        assert error_code("{x, x}", TupleType((INTEGER, STRING)), MATCH) == \
            "E_NONLINEAR_MISMATCH"

    def test_tp_vare_not_satisfied_by_subtyping(self):
        assert error_code("{x, x}", TupleType((INTEGER, FLOAT)), MATCH) == \
            "E_NONLINEAR_MISMATCH"

    def test_vare_equality_ignores_map_key_order(self):
        t1 = MapType([(MapKey("atom", "a"), INTEGER), (MapKey("integer", 1), FLOAT)])
        t2 = MapType([(MapKey("integer", 1), FLOAT), (MapKey("atom", "a"), INTEGER)])
        gamma = check("{x, x}", TupleType((t1, t2)), MATCH)
        assert gamma["x"] == t1


class TestPins:
    def test_tp_pin_ok_no_binding(self):
        assert check("^x", INTEGER, MATCH, sigma={"x": INTEGER}) == {}

    def test_tp_pin_unbound(self):
        assert error_code("^x", INTEGER, MATCH) == "E_PIN_UNBOUND"

    def test_pin_match_direction(self):
        # the matched value (integer) upcasts into the pinned float
        assert check("^x", INTEGER, MATCH, sigma={"x": FLOAT}) == {}
        assert error_code("^x", FLOAT, MATCH, sigma={"x": INTEGER}) == "E_PATTERN_TYPE"

    def test_pin_case_direction(self):
        # the pattern type (pinned) must sit below the selector
        assert check("^x", FLOAT, CASE, sigma={"x": INTEGER}) == {}
        assert check("^x", TERM, CASE, sigma={"x": INTEGER}) == {}
        assert error_code("^x", INTEGER, CASE, sigma={"x": FLOAT}) == "E_PATTERN_TYPE"

    def test_pin_with_any(self):
        assert check("^x", ANY, MATCH, sigma={"x": INTEGER}) == {}
        assert check("^x", INTEGER, MATCH, sigma={"x": ANY}) == {}


class TestStructures:
    def test_tuple_componentwise(self):
        gamma = check("{a, b}", TupleType((INTEGER, STRING)), MATCH)
        assert gamma == {"a": INTEGER, "b": STRING}

    def test_tuple_arity_mismatch(self):
        assert error_code("{a, b}", TupleType((INTEGER,)), MATCH) == "E_PATTERN_TYPE"

    def test_tuple_against_list_is_an_error(self):
        assert error_code("{x, y}", ListType(INTEGER), MATCH) == "E_PATTERN_TYPE"

    def test_cons_binds_head_and_tail(self):
        gamma = check("[z | rest]", ListType(TERM), MATCH)
        assert gamma == {"z": TERM, "rest": ListType(TERM)}

    def test_elist_accepts_any_list(self):
        assert check("[]", ListType(INTEGER), MATCH) == {}
        assert error_code("[]", INTEGER, MATCH) == "E_PATTERN_TYPE"

    def test_map_subset_of_keys(self):
        expected = MapType([(MapKey("atom", "strange"), STRING),
                            (MapKey("integer", 9), BOOLEAN)])
        gamma = check("%{9 => b}", expected, CASE)
        assert gamma == {"b": BOOLEAN}

    def test_map_unknown_key(self):
        expected = MapType([(MapKey("integer", 9), BOOLEAN)])
        assert error_code("%{10 => b}", expected, MATCH) == "E_UNKNOWN_KEY"

    def test_spec_mode_map_requires_exact_keys(self):
        expected = MapType([(MapKey("atom", "a"), INTEGER), (MapKey("atom", "b"), FLOAT)])
        assert error_code("%{:a => x}", expected, SPEC) == "E_PATTERN_TYPE"
        gamma = check("%{:a => x, :b => y}", expected, SPEC)
        assert gamma == {"x": INTEGER, "y": FLOAT}

    def test_binding_is_left_to_right(self):
        gamma = check("{x, [y | _]}", TupleType((INTEGER, ListType(STRING))), MATCH)
        assert list(gamma) == ["x", "y"]


class TestOpaqueExpectations:
    def test_everything_binds_any_against_any(self):
        gamma = check("{a, [b | c], %{1 => d}}",
                      ANY, MATCH)
        assert gamma == {"a": ANY, "b": ANY, "c": ANY, "d": ANY}

    def test_structured_against_term_fails_in_match_mode(self):
        assert error_code("{a, b}", TERM, MATCH) == "E_PATTERN_TYPE"

    def test_structured_against_term_fails_in_spec_mode(self):
        assert error_code("{a, b}", TERM, SPEC) == "E_PATTERN_TYPE"
        assert error_code("5", TERM, SPEC) == "E_PATTERN_TYPE"
        assert check("x", TERM, SPEC) == {"x": TERM}

    def test_structured_against_term_recurses_in_case_mode(self):
        gamma = check("{a, b}", TERM, CASE)
        assert gamma == {"a": TERM, "b": TERM}


class TestCaseFallback:
    def test_literal_widens_with_no_bindings(self):
        gamma, fell_back = check_case_pattern(pat(":no"), AtomLiteralType("yes"), {})
        assert gamma == {} and fell_back

    def test_matching_literal_needs_no_fallback(self):
        gamma, fell_back = check_case_pattern(pat(":yes"), AtomLiteralType("yes"), {})
        assert gamma == {} and not fell_back

    def test_tuple_against_integer_selector_binds_term(self):
        gamma, fell_back = check_case_pattern(pat("{a, b}"), INTEGER, {})
        assert fell_back
        assert gamma == {"a": TERM, "b": TERM}

    def test_pin_unbound_survives_fallback(self):
        with pytest.raises(CheckFailure) as exc:
            check_case_pattern(pat("^x"), INTEGER, {})
        assert exc.value.code == "E_PIN_UNBOUND"

    def test_nonlinear_mismatch_survives_fallback(self):
        with pytest.raises(CheckFailure) as exc:
            check_case_pattern(pat("{x, x}"), TupleType((INTEGER, STRING)), {})
        assert exc.value.code == "E_NONLINEAR_MISMATCH"

    def test_case_fallback_entry_point(self):
        gamma, fell_back = check_case_pattern(pat("{a, b}"), STRING, {})
        assert gamma == {"a": TERM, "b": TERM}
        assert fell_back is True

    def test_pin_below_selector_needs_no_fallback(self):
        gamma, fell_back = check_case_pattern(pat("^x"), TERM, {"x": INTEGER})
        assert gamma == {} and not fell_back


class TestNaturalPatternType:
    def test_variable_is_unknown(self):
        t, gamma = natural("x")
        assert t == ANY and gamma == {"x": ANY}

    def test_literal_keeps_its_type(self):
        t, gamma = natural("0")
        assert t == INTEGER and gamma == {}

    def test_pin_takes_enclosing_type(self):
        t, gamma = natural("^x", {"x": INTEGER})
        assert t == INTEGER and gamma == {}

    def test_pin_unbound(self):
        with pytest.raises(CheckFailure) as exc:
            natural("^x")
        assert exc.value.code == "E_PIN_UNBOUND"

    def test_tuple_composes(self):
        t, gamma = natural("{x, 1}")
        assert t == TupleType((ANY, INTEGER))
        assert gamma == {"x": ANY}

    def test_empty_list(self):
        t, _ = natural("[]")
        assert t == ListType(ANY)

    def test_cons_takes_informative_element(self):
        t, gamma = natural("[1 | rest]")
        assert t == ListType(INTEGER)
        assert gamma == {"rest": ListType(INTEGER)}

    def test_cons_takes_a_nested_tail_element(self):
        """The element that a literal gives an inner list reaches the outer one."""
        t, gamma = natural("[h | [1 | []]]")
        assert t == ListType(INTEGER)
        assert gamma == {"h": INTEGER}

    def test_cons_of_variables(self):
        t, gamma = natural("[x | xs]")
        assert t == ListType(ANY)
        assert gamma == {"x": ANY, "xs": ListType(ANY)}

    def test_literal_tail_is_an_error(self):
        with pytest.raises(CheckFailure) as exc:
            natural("[x | 5]")
        assert exc.value.code == "E_PATTERN_TYPE"

    def test_map_exposes_keys(self):
        t, gamma = natural("%{:a => x}")
        assert t == MapType([(MapKey("atom", "a"), ANY)])
        assert gamma == {"x": ANY}

    def test_threading_detects_nonlinear_conflicts(self):
        _, gamma = natural("x")
        t, gamma = natural("{x, y}", gamma=gamma)
        assert gamma == {"x": ANY, "y": ANY}


# --- properties ---------------------------------------------------------------

_leaf = st.sampled_from(["_", "x", "y", "1", "2.5", '"s"', "true", ":ok", "[]"])


def _render(node):
    kind = node[0]
    if kind == "leaf":
        return node[1]
    if kind == "tuple":
        return "{" + ", ".join(_render(c) for c in node[1]) + "}"
    if kind == "cons":
        return "[" + _render(node[1]) + " | " + _render(node[2]) + "]"
    return "%{" + ", ".join(f"{k} => {_render(v)}" for k, v in zip((":k", "1"), node[1])) + "}"


_pattern_nodes = st.recursive(
    st.tuples(st.just("leaf"), _leaf),
    lambda children: st.one_of(
        st.tuples(st.just("tuple"), st.lists(children, min_size=1, max_size=3)),
        st.tuples(st.just("cons"), children, children),
        st.tuples(st.just("map"), st.lists(children, min_size=1, max_size=2)),
    ),
    max_leaves=8,
)


@given(_pattern_nodes)
def test_any_expected_always_succeeds_binding_any(node):
    source = _render(node)
    try:
        pattern = pat(source)
    except Exception:
        return  # a malformed rendering is outside the property
    for mode in (MATCH, CASE, SPEC):
        gamma = {}
        check_pattern(pattern, ANY, {}, gamma, mode)
        assert all(t == ANY for t in gamma.values())


@given(_pattern_nodes)
def test_output_gamma_extends_input(node):
    source = _render(node)
    try:
        pattern = pat(source)
    except Exception:
        return
    gamma = {"w": STRING}
    check_pattern(pattern, ANY, {}, gamma, MATCH)
    assert gamma["w"] == STRING  # bindings are added; those already there stay


@given(_pattern_nodes)
def test_case_mode_with_fallback_never_fails_for_linear_pin_free(node):
    source = _render(node)
    try:
        pattern = pat(source)
    except Exception:
        return
    # patterns built here are pin-free; repeated x/y bind any/term uniformly
    gamma, _ = check_case_pattern(pattern, INTEGER, {})
    assert isinstance(gamma, dict)
