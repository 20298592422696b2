import pytest

from extc.parser import parse_type_text
from extc.syntax import AtomLit, BoolLit, FloatLit, IntLit, StringLit
from extc.types import (
    ANY, ATOM, AtomLiteralType, BASE_TYPE_NAMES, BOOLEAN, FLOAT, FunctionType,
    INTEGER, ListType, MapKey, MapType, NONE, STRING, TERM, TupleType, fits,
    is_more_precise, is_subtype, join, literal_type, meet,
)
from oracle import enumerate_types

AL = AtomLiteralType


def map_of(*pairs):
    return MapType(list(pairs))


K_A = MapKey.atom("a")
K_B = MapKey.atom("b")
K_STRANGE = MapKey.atom("strange")
K_9 = MapKey.integer(9)


class TestBaseTypeNames:
    # `repr` keeps the spelling that `extc parse` prints for spec types.
    @pytest.mark.parametrize("name, spelling", [
        ("none", "NoneType()"), ("term", "TermType()"), ("any", "AnyType()"),
        ("integer", "IntegerType()"), ("float", "FloatType()"),
        ("boolean", "BooleanType()"), ("string", "StringType()"), ("atom", "AtomType()"),
    ])
    def test_name_parses_prints_and_reprs(self, name, spelling):
        t = parse_type_text(name)
        assert t is BASE_TYPE_NAMES[name]
        assert str(t) == name
        assert repr(t) == spelling

    def test_nested_repr(self):
        assert repr(ListType(BOOLEAN)) == "ListType(element=BooleanType())"


class TestLiteralType:
    def test_integer(self):
        assert literal_type(IntLit(9)) == INTEGER

    def test_float(self):
        assert literal_type(FloatLit(1.5)) == FLOAT

    def test_string(self):
        assert literal_type(StringLit("hi")) == STRING

    def test_boolean_is_not_an_atom(self):
        assert literal_type(BoolLit(True)) == BOOLEAN

    def test_atom_is_singleton(self):
        assert literal_type(AtomLit("yes")) == AL("yes")


class TestSubtyping:
    def test_st_num(self):
        assert is_subtype(INTEGER, FLOAT)
        assert not is_subtype(FLOAT, INTEGER)

    def test_st_none_and_term(self):
        for t in (INTEGER, ListType(STRING), map_of((K_A, FLOAT)), ANY):
            assert is_subtype(NONE, t)
            assert is_subtype(t, TERM)

    def test_st_atom(self):
        assert is_subtype(AL("ok"), ATOM)
        assert not is_subtype(ATOM, AL("ok"))
        assert not is_subtype(AL("ok"), AL("no"))

    def test_booleans_unrelated_to_atoms(self):
        assert not is_subtype(BOOLEAN, ATOM)
        assert not is_subtype(ATOM, BOOLEAN)

    def test_st_map_width(self):
        wide = map_of((K_A, INTEGER), (K_B, FLOAT))
        narrow = map_of((K_A, INTEGER))
        assert is_subtype(wide, narrow)
        assert not is_subtype(narrow, wide)

    def test_st_map_depth(self):
        assert is_subtype(map_of((K_A, INTEGER)), map_of((K_A, FLOAT)))
        assert not is_subtype(map_of((K_A, FLOAT)), map_of((K_A, INTEGER)))

    def test_map_key_order_is_irrelevant(self):
        one = MapType([(K_A, INTEGER), (K_9, BOOLEAN)])
        other = MapType([(K_9, BOOLEAN), (K_A, INTEGER)])
        assert one == other
        assert is_subtype(one, other) and is_subtype(other, one)

    def test_map_keys_distinguish_kinds(self):
        assert MapKey.integer(1) != MapKey.boolean(True)
        assert MapType([(MapKey.integer(1), INTEGER), (MapKey.boolean(True), FLOAT)])

    def test_st_list_covariant(self):
        assert is_subtype(ListType(INTEGER), ListType(FLOAT))
        assert not is_subtype(ListType(FLOAT), ListType(INTEGER))

    def test_st_tuple(self):
        assert is_subtype(TupleType((INTEGER, AL("ok"))), TupleType((FLOAT, ATOM)))
        assert not is_subtype(TupleType((INTEGER,)), TupleType((INTEGER, INTEGER)))

    def test_st_fun_contravariant(self):
        f = FunctionType((FLOAT,), INTEGER)
        g = FunctionType((INTEGER,), FLOAT)
        assert is_subtype(f, g)
        assert not is_subtype(g, f)

    def test_any_relates_only_to_bounds_and_itself(self):
        assert is_subtype(ANY, ANY)
        assert is_subtype(ANY, TERM)
        assert is_subtype(NONE, ANY)
        assert not is_subtype(ANY, INTEGER)
        assert not is_subtype(INTEGER, ANY)


class TestPrecision:
    def test_reflexive(self):
        for t in (INTEGER, ANY, ListType(BOOLEAN), map_of((K_A, ANY))):
            assert is_more_precise(t, t)

    def test_any_is_least_precise(self):
        assert is_more_precise(INTEGER, ANY)
        assert is_more_precise(TERM, ANY)
        assert is_more_precise(ListType(ANY), ANY)

    def test_list_covariant(self):
        assert is_more_precise(ListType(BOOLEAN), ListType(ANY))
        assert not is_more_precise(ListType(ANY), ListType(BOOLEAN))

    def test_tuple_componentwise(self):
        assert is_more_precise(TupleType((ANY, INTEGER)), TupleType((ANY, ANY)))
        assert not is_more_precise(TupleType((ANY, ANY)), TupleType((ANY, INTEGER)))

    def test_no_subtyping_inside_precision(self):
        assert not is_more_precise(INTEGER, FLOAT)
        assert not is_more_precise(INTEGER, TERM)

    def test_map_requires_identical_keys(self):
        assert is_more_precise(map_of((K_A, INTEGER)), map_of((K_A, ANY)))
        assert not is_more_precise(map_of((K_A, INTEGER), (K_B, INTEGER)),
                                   map_of((K_A, ANY)))

    def test_function_covariant_params(self):
        assert is_more_precise(FunctionType((INTEGER,), INTEGER),
                               FunctionType((ANY,), ANY))
        assert not is_more_precise(FunctionType((ANY,), ANY),
                                   FunctionType((INTEGER,), INTEGER))


class TestFits:
    def test_plain_subtyping(self):
        assert fits(INTEGER, FLOAT)
        assert not fits(FLOAT, INTEGER)

    def test_any_in_either_role(self):
        assert fits(ANY, INTEGER)  # downcast out of the unknown
        assert fits(INTEGER, ANY)  # more precise than the unknown

    def test_boolean_float_rejected(self):
        assert not fits(BOOLEAN, FLOAT)

    def test_bounds(self):
        for t in (INTEGER, ANY, ListType(ANY), TupleType((STRING,))):
            assert fits(NONE, t)
            assert fits(t, TERM)

    def test_structural_any(self):
        assert fits(ListType(ANY), ListType(INTEGER))
        assert fits(ListType(INTEGER), ListType(ANY))
        assert fits(TupleType((ANY, INTEGER)), TupleType((INTEGER, ANY)))

    def test_map_width(self):
        assert fits(map_of((K_STRANGE, STRING), (K_9, BOOLEAN)), map_of((K_9, BOOLEAN)))
        assert not fits(map_of((K_9, BOOLEAN)), map_of((K_STRANGE, STRING), (K_9, BOOLEAN)))

    def test_function_positions(self):
        assert fits(FunctionType((ANY,), INTEGER), FunctionType((INTEGER,), FLOAT))
        assert not fits(FunctionType((INTEGER,), INTEGER), FunctionType((FLOAT,), INTEGER))


class TestJoinMeet:
    def test_join_unrelated_is_term(self):
        assert join(BOOLEAN, FLOAT) == TERM
        assert join(ListType(INTEGER), TupleType((INTEGER,))) == TERM

    def test_join_atoms(self):
        assert join(AL("yes"), AL("no")) == ATOM
        assert join(AL("yes"), AL("yes")) == AL("yes")
        assert join(AL("yes"), ATOM) == ATOM

    def test_join_materializes_any(self):
        assert join(ANY, STRING) == STRING
        assert join(STRING, ANY) == STRING
        assert join(ANY, ANY) == ANY

    def test_join_numeric(self):
        assert join(INTEGER, FLOAT) == FLOAT

    def test_join_bounds(self):
        assert join(NONE, INTEGER) == INTEGER
        assert join(TERM, INTEGER) == TERM
        assert join(NONE, ANY) == ANY
        assert join(TERM, ANY) == TERM

    def test_join_lists(self):
        assert join(ListType(INTEGER), ListType(BOOLEAN)) == ListType(TERM)
        assert join(ListType(NONE), ListType(INTEGER)) == ListType(INTEGER)

    def test_join_tuples(self):
        assert join(TupleType((INTEGER, STRING)), TupleType((FLOAT, STRING))) == \
            TupleType((FLOAT, STRING))
        assert join(TupleType((INTEGER,)), TupleType((INTEGER, INTEGER))) == TERM

    def test_join_maps_intersects_keys(self):
        left = map_of((K_A, INTEGER), (K_B, STRING))
        right = map_of((K_A, FLOAT))
        assert join(left, right) == map_of((K_A, FLOAT))
        assert join(map_of((K_A, INTEGER)), map_of((K_B, INTEGER))) == MapType([])

    def test_join_functions(self):
        f = FunctionType((INTEGER,), INTEGER)
        g = FunctionType((FLOAT,), FLOAT)
        assert join(f, g) == FunctionType((INTEGER,), FLOAT)

    def test_meet_numeric(self):
        assert meet(INTEGER, FLOAT) == INTEGER

    def test_meet_unrelated_is_none(self):
        assert meet(INTEGER, STRING) == NONE
        assert meet(AL("a"), AL("b")) == NONE

    def test_meet_with_term_is_identity(self):
        for t in (INTEGER, ListType(STRING), map_of((K_A, FLOAT)), ANY):
            assert meet(t, TERM) == t
            assert meet(TERM, t) == t

    def test_meet_materializes_any(self):
        assert meet(ANY, INTEGER) == INTEGER
        assert meet(ANY, ANY) == ANY

    def test_meet_maps_unions_keys(self):
        left = map_of((K_A, INTEGER))
        right = map_of((K_B, STRING))
        assert meet(left, right) == map_of((K_A, INTEGER), (K_B, STRING))
        assert meet(map_of((K_A, INTEGER)), map_of((K_A, FLOAT))) == map_of((K_A, INTEGER))

    def test_meet_functions(self):
        f = FunctionType((INTEGER,), FLOAT)
        g = FunctionType((FLOAT,), INTEGER)
        assert meet(f, g) == FunctionType((FLOAT,), INTEGER)

    def test_join_commutes_and_is_idempotent(self):
        samples = [INTEGER, FLOAT, BOOLEAN, AL("a"), ListType(INTEGER),
                   TupleType((INTEGER, STRING)), map_of((K_A, INTEGER)), ANY, NONE, TERM]
        for t in samples:
            assert join(t, t) == t
            assert meet(t, t) == t
            for u in samples:
                assert join(t, u) == join(u, t)
                assert meet(t, u) == meet(u, t)



class TestLatticeLaws:
    """Over every ordered pair of the depth-2 universe, `any` included."""

    UNIVERSE = enumerate_types(depth=2)

    def test_join_and_meet_commute(self):
        bad = [(t, u) for t in self.UNIVERSE for u in self.UNIVERSE
               if join(t, u) != join(u, t) or meet(t, u) != meet(u, t)]
        assert bad == []

    def test_join_is_an_upper_bound(self):
        bad = [(t, u) for t in self.UNIVERSE for u in self.UNIVERSE
               if not (fits(t, join(t, u)) and fits(u, join(t, u)))]
        assert bad == []

    def test_meet_is_a_lower_bound(self):
        bad = [(t, u) for t in self.UNIVERSE for u in self.UNIVERSE
               if not (fits(meet(t, u), t) and fits(meet(t, u), u))]
        assert bad == []


class TestRendering:
    def test_surface_syntax(self):
        assert str(ListType(INTEGER)) == "[integer]"
        assert str(TupleType((ANY, FLOAT))) == "{any, float}"
        assert str(map_of((K_STRANGE, STRING), (K_9, BOOLEAN))) == \
            "%{:strange => string, 9 => boolean}"
        assert str(FunctionType((INTEGER, ANY), FLOAT)) == "(integer, any) -> float"
        assert str(AL("ok")) == ":ok"

    def test_map_renders_in_canonical_order(self):
        assert str(MapType([(K_9, BOOLEAN), (K_STRANGE, STRING)])) == \
            "%{:strange => string, 9 => boolean}"

    def test_duplicate_map_keys_rejected(self):
        with pytest.raises(ValueError):
            MapType([(K_A, INTEGER), (K_A, FLOAT)])
