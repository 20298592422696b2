import pytest

from oracle import (
    AmbiguousBoundError, TypeUniverse, brute_glb, brute_lub, closure_fits,
    contains_any, default_universe, enumerate_types,
)
from extc.types import (
    ANY, ATOM, AtomLiteralType, BOOLEAN, FLOAT, INTEGER, ListType, MapKey,
    MapType, NONE, STRING, TERM, TupleType, FunctionType,
)


@pytest.fixture(scope="module")
def small():
    """Bases plus one structural layer over a tiny base set; fast to close."""
    bases = (NONE, TERM, INTEGER, FLOAT, AtomLiteralType("a"), ATOM, ANY)
    return TypeUniverse(enumerate_types(depth=2, bases=bases,
                                        map_keys=(MapKey("atom", "a"),)))


class TestEnumeration:
    def test_default_universe_is_closed_and_deterministic(self):
        first = enumerate_types()
        second = enumerate_types()
        assert first == second
        assert len(first) == len(set(first))

    def test_default_universe_covers_every_constructor(self):
        uni = enumerate_types()
        assert any(isinstance(t, ListType) for t in uni)
        assert any(isinstance(t, TupleType) for t in uni)
        assert any(isinstance(t, MapType) and not t.entries for t in uni)
        assert any(isinstance(t, MapType) and len(t.entries) == 2 for t in uni)
        assert any(isinstance(t, FunctionType) for t in uni)

    def test_depth_one_is_just_the_bases(self):
        assert enumerate_types(depth=1) == list(enumerate_types(depth=1))
        assert all(not isinstance(t, (ListType, TupleType, MapType, FunctionType))
                   for t in enumerate_types(depth=1))


class TestDeclarativeSubtyping:
    def test_axioms(self, small):
        idx = small.index
        assert small.sub[idx[INTEGER]] >> idx[FLOAT] & 1
        assert small.sub[idx[AtomLiteralType("a")]] >> idx[ATOM] & 1
        for t in small.types:
            assert small.sub[idx[NONE]] >> idx[t] & 1
            assert small.sub[idx[t]] >> idx[TERM] & 1

    def test_structural_rules_fire(self, small):
        idx = small.index
        assert small.sub[idx[ListType(INTEGER)]] >> idx[ListType(FLOAT)] & 1
        assert small.sub[idx[TupleType((INTEGER, INTEGER))]] >> \
            idx[TupleType((FLOAT, TERM))] & 1
        wide = MapType([(MapKey("atom", "a"), INTEGER)])
        assert small.sub[idx[wide]] >> idx[MapType([])] & 1

    def test_any_only_relates_to_bounds(self, small):
        idx = small.index
        assert small.sub[idx[ANY]] >> idx[ANY] & 1
        assert small.sub[idx[ANY]] >> idx[TERM] & 1
        assert not small.sub[idx[ANY]] >> idx[INTEGER] & 1
        assert not small.sub[idx[INTEGER]] >> idx[ANY] & 1


class TestClosureFits:
    def test_downcast_out_of_any(self, small):
        assert closure_fits(small, ANY, INTEGER)

    def test_upcast_to_term(self, small):
        assert closure_fits(small, INTEGER, TERM)

    def test_final_precision_premise(self, small):
        assert closure_fits(small, INTEGER, ANY)
        assert closure_fits(small, ListType(INTEGER), ListType(ANY))

    def test_static_mismatch_stays_rejected(self, small):
        assert not closure_fits(small, ATOM, FLOAT)
        assert not closure_fits(small, INTEGER, AtomLiteralType("a"))

    def test_no_widen_then_downcast_laundering(self, small):
        # integer must not reach atom by going up to any and back down
        assert not closure_fits(small, INTEGER, ATOM)
        assert not closure_fits(small, FLOAT, INTEGER)


class TestBruteBounds:
    def test_lub_numeric(self, small):
        assert brute_lub(small, INTEGER, FLOAT) == FLOAT

    def test_lub_atoms(self, small):
        assert brute_lub(small, AtomLiteralType("a"), ATOM) == ATOM

    def test_lub_atom_literals(self):
        bases = (NONE, TERM, AtomLiteralType("a"), AtomLiteralType("b"), ATOM)
        uni = TypeUniverse(enumerate_types(depth=1, bases=bases))
        assert brute_lub(uni, AtomLiteralType("a"), AtomLiteralType("b")) == ATOM

    def test_lub_unrelated_constructors_is_term(self):
        bases = (NONE, TERM, INTEGER)
        uni = TypeUniverse(enumerate_types(depth=2, bases=bases,
                                           tuple_arities=(1,), map_keys=()))
        assert brute_lub(uni, ListType(INTEGER), TupleType((INTEGER,))) == TERM

    def test_glb_numeric(self, small):
        assert brute_glb(small, INTEGER, FLOAT) == INTEGER

    def test_glb_unrelated_is_none(self, small):
        assert brute_glb(small, INTEGER, ATOM) == NONE

    def test_any_rejected(self, small):
        with pytest.raises(ValueError):
            brute_lub(small, ANY, INTEGER)
        with pytest.raises(ValueError):
            brute_glb(small, INTEGER, ANY)


class TestContainsAny:
    def test_detects_nested_any(self):
        assert contains_any(ANY)
        assert contains_any(ListType(ANY))
        assert contains_any(TupleType((INTEGER, ANY)))
        assert contains_any(MapType([(MapKey("atom", "a"), ANY)]))
        assert contains_any(FunctionType((ANY,), INTEGER))
        assert contains_any(FunctionType((INTEGER,), ANY))

    def test_static_types_are_any_free(self):
        assert not contains_any(TERM)
        assert not contains_any(ListType(TupleType((INTEGER, STRING))))


class TestAmbiguityReporting:
    def test_unique_bounds_on_default_universe_sample(self, universe):
        # spot pairs; the exhaustive sweep lives in the acceptance suite
        for t, u in [(INTEGER, STRING), (ListType(INTEGER), ListType(BOOLEAN)),
                     (NONE, NONE), (TERM, INTEGER)]:
            brute_lub(universe, t, u)
            brute_glb(universe, t, u)

    def test_missing_peak_is_reported(self):
        # without term the pair has no common supertype at all
        bases = (INTEGER, FLOAT, STRING, NONE)
        uni = TypeUniverse(enumerate_types(depth=1, bases=bases))
        with pytest.raises(AmbiguousBoundError):
            brute_lub(uni, INTEGER, STRING)
