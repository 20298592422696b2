import marshal

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from extc.parser import parse_program
from extc.syntax import AtomLit, BoolLit, FloatLit, IntLit, StringLit
from extc.types import (
    ANY, ATOM, AtomLiteralType, BASE_TYPE_NAMES, BaseType, BOOLEAN, FLOAT, FunctionType,
    INTEGER, ListType, MapKey, MapType, NONE, STRING, TERM, TupleType, Type, fits,
    is_more_precise, is_subtype, join, meet, pack, unpack,
)
from extc.patterns import literal_type
from extc.signatures import declarations
from oracle import enumerate_types

AL = AtomLiteralType


def map_of(*pairs):
    return MapType(list(pairs))


K_A = MapKey("atom", "a")
K_B = MapKey("atom", "b")
K_STRANGE = MapKey("atom", "strange")
K_9 = MapKey("integer", 9)


class TestBaseTypeNames:
    # `repr` keeps the spelling that `extc parse` prints for spec types.
    @pytest.mark.parametrize("name, spelling", [
        ("none", "NoneType()"), ("term", "TermType()"), ("any", "AnyType()"),
        ("integer", "IntegerType()"), ("float", "FloatType()"),
        ("boolean", "BooleanType()"), ("string", "StringType()"), ("atom", "AtomType()"),
    ])
    def test_name_parses_prints_and_reprs(self, name, spelling):
        t = parse_program(f"@spec f() :: {name}").items[0].result
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
        assert MapKey("integer", 1) != MapKey("boolean", True)
        assert MapType([(MapKey("integer", 1), INTEGER), (MapKey("boolean", True), FLOAT)])

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


_VALUES = [
    (INTEGER, "name"), (AL("ok"), "name"), (ListType(INTEGER), "element"),
    (TupleType((ANY, FLOAT)), "items"), (map_of((K_A, INTEGER)), "entries"),
    (FunctionType((INTEGER,), FLOAT), "result"), (K_A, "value"),
]


class TestValueSemantics:
    """Types and map keys are values: equal by class and fields, hashed to
    match, and never changed after they are made."""

    @pytest.mark.parametrize("value, field", _VALUES, ids=lambda v: type(v).__name__)
    def test_assignment_and_deletion_raise(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, STRING)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before

    def test_equal_by_class_and_fields(self):
        pairs = [
            (AL("ok"), AL("ok")), (ListType(INTEGER), ListType(INTEGER)),
            (TupleType((ANY, FLOAT)), TupleType((ANY, FLOAT))),
            (map_of((K_A, INTEGER), (K_9, ATOM)), map_of((K_9, ATOM), (K_A, INTEGER))),
            (FunctionType((INTEGER,), FLOAT), FunctionType((INTEGER,), FLOAT)),
            (MapKey("atom", "a"), K_A),
        ]
        for t, u in pairs:
            assert t == u and hash(t) == hash(u) and t is not u
        assert len({t for pair in pairs for t in pair}) == len(pairs)
        assert AL("ok") != AL("no") and ListType(INTEGER) != ListType(FLOAT)
        assert AL("integer") != INTEGER and ListType(INTEGER) != TupleType((INTEGER,))
        assert MapKey("boolean", True) != MapKey("integer", 1)

    def test_reprs_keep_the_dataclass_form(self):
        assert repr(map_of((K_A, INTEGER))) == \
            "MapType(entries=((MapKey(kind='atom', value='a'), IntegerType()),))"
        assert repr(FunctionType((INTEGER,), AL("ok"))) == \
            "FunctionType(params=(IntegerType(),), result=AtomLiteralType(name='ok'))"

    def test_map_key_kind_is_checked(self):
        with pytest.raises(ValueError):
            MapKey("string", "a")

    def test_arity_is_checked(self):
        with pytest.raises(TypeError):
            ListType()
        with pytest.raises(TypeError):
            FunctionType((INTEGER,), FLOAT, ANY)

    def test_pack_carries_every_type_class_through_marshal(self):
        """A split check sends `@spec` types between processes as `pack`
        gives them, through `marshal`, and `unpack` rebuilds them. The spec
        holds every class of type and of map key, so a class added without
        a packed form fails here."""
        spec = FunctionType((map_of((K_A, INTEGER), (MapKey("integer", 1), ListType(FLOAT)),
                                    (MapKey("boolean", True), TupleType((ATOM, AL("ok"))))),),
                            NONE)
        assert {type(part) for part in _parts(spec)} == set(Type.__subclasses__()) | {MapKey}
        assert unpack(marshal.loads(marshal.dumps(pack(spec)))) == spec
        assert pack(INTEGER) == "integer" and unpack(pack(INTEGER)) is INTEGER

    def test_pack_carries_declarations_through_marshal(self):
        """A split check swaps each file's `declarations` with each type
        packed, through `marshal`, and gets them back equal."""
        declared = declarations(parse_program(
            "defmodule A do\n"
            "  @spec f(%{:a => integer, 1 => [float]}) :: {atom, :ok}\n"
            "  def f(m) do {:ok, :ok} end\n"
            "  defmodule B do\n"
            "    @spec g((integer, any) -> term, none) :: (string) -> boolean\n"
            "  end\n"
            "end\n"
            "@spec h() :: integer\n"))
        assert [(prefix, name, defined) for prefix, name, _, _, _, defined in declared] == [
            ((), "h", False), (("A",), "f", True), (("A", "B"), "g", False)]
        data = marshal.loads(marshal.dumps([(*d[:2], pack(d[2]), *d[3:]) for d in declared]))
        assert [(*d[:2], unpack(d[2]), *d[3:]) for d in data] == list(declared)


def _parts(value) -> list:
    """`value` and every type and map key in it, outermost first."""
    if isinstance(value, tuple):
        return [part for item in value for part in _parts(item)]
    if isinstance(value, (Type, MapKey)):
        return [value, *(part for f in value._fields for part in _parts(getattr(value, f)))]
    return []


_MAP_KEYS = st.one_of(
    st.builds(MapKey, st.just("atom"), st.sampled_from(["a", "b", "ok"])),
    st.builds(MapKey, st.just("integer"), st.integers(-2, 2)),
    st.builds(MapKey, st.just("boolean"), st.booleans()))

# Types of every class, nested up to a few levels.
_TYPES = st.recursive(
    st.sampled_from(list(BASE_TYPE_NAMES.values())) | st.builds(AL, st.sampled_from(["ok", "a"])),
    lambda inner: st.one_of(
        st.builds(ListType, inner),
        st.builds(TupleType, st.lists(inner, max_size=3).map(tuple)),
        st.dictionaries(_MAP_KEYS, inner, max_size=3).map(lambda d: MapType(list(d.items()))),
        st.builds(FunctionType, st.lists(inner, max_size=3).map(tuple), inner)),
    max_leaves=12)


@seed(20261020)
@settings(max_examples=400, deadline=None)
@given(_TYPES)
def test_packed_types_come_back_through_marshal(t):
    back = unpack(marshal.loads(marshal.dumps(pack(t))))
    assert back == t
    bases = [[part for part in _parts(u) if type(part) is BaseType] for u in (t, back)]
    assert all(b is a for a, b in zip(*bases, strict=True))
