from hypothesis import given
from hypothesis import strategies as st

from extc.envs import SignatureEnv, extend, qualify
from extc.types import FLOAT, FunctionType, INTEGER, STRING, Type, BOOLEAN

_types = st.sampled_from([INTEGER, FLOAT, STRING, BOOLEAN])
_envs = st.dictionaries(st.sampled_from("wxyz"), _types, max_size=4)


def test_merge_right_bias():
    assert extend({"x": INTEGER}, {"x": STRING}) == {"x": STRING}


def test_merge_identity():
    g = {"x": INTEGER, "y": FLOAT}
    assert extend({}, g) == g
    assert extend(g, {}) is g


def test_merge_disjoint_union():
    g = {"x": INTEGER}
    assert extend(g, {"y": FLOAT}) == {"x": INTEGER, "y": FLOAT}
    assert g == {"x": INTEGER}


@given(_envs, _envs, _envs)
def test_merge_associative(g1, g2, g3):
    assert extend(extend(g1, g2), g3) == extend(g1, extend(g2, g3))


@given(_envs)
def test_merge_idempotent(g):
    assert extend(g, g) == g


def test_qualify():
    assert qualify(("M",), "func") == "M.func"
    assert qualify(("Base", "Math"), "dec") == "Base.Math.dec"
    assert qualify((), "length") == "length"


def test_add_signature_prefixes_key():
    env = SignatureEnv()
    assert env.add(("M",), "func", FunctionType((INTEGER,), FLOAT))
    assert env.lookup("M.func", 1) == FunctionType((INTEGER,), FLOAT)
    assert env.lookup("func", 1) is None


def test_duplicate_signature_rejected():
    env = SignatureEnv()
    assert env.add(("M",), "func", FunctionType((INTEGER,), FLOAT))
    assert not env.add(("M",), "func", FunctionType((STRING,), FLOAT))
    # the first one stays in effect
    assert env.lookup("M.func", 1) == FunctionType((INTEGER,), FLOAT)


def test_same_name_different_arity_coexist():
    env = SignatureEnv()
    assert env.add((), "f", FunctionType((INTEGER,), FLOAT))
    assert env.add((), "f", FunctionType((INTEGER, INTEGER), FLOAT))
    assert env.lookup("f", 1) is not None
    assert env.lookup("f", 2) is not None


def test_lookup_is_exact():
    env = SignatureEnv()
    env.add(("M",), "f", FunctionType((INTEGER,), FLOAT))
    assert env.lookup("M.f", 2) is None
    assert env.lookup("N.f", 1) is None
