from hypothesis import given
from hypothesis import strategies as st

from extc.envs import SignatureEnv, merge, qualify, sibling_bindings
from extc.types import FLOAT, FunctionType, INTEGER, STRING, Type, BOOLEAN

_types = st.sampled_from([INTEGER, FLOAT, STRING, BOOLEAN])
_envs = st.dictionaries(st.sampled_from("wxyz"), _types, max_size=4)


def test_merge_right_bias():
    assert merge({"x": INTEGER}, {"x": STRING}) == {"x": STRING}


def test_merge_identity():
    g = {"x": INTEGER, "y": FLOAT}
    assert merge({}, g) == g
    assert merge(g, {}) == g


def test_merge_disjoint_union():
    assert merge({"x": INTEGER}, {"y": FLOAT}) == {"x": INTEGER, "y": FLOAT}


@given(_envs, _envs, _envs)
def test_merge_associative(g1, g2, g3):
    assert merge(merge(g1, g2), g3) == merge(g1, merge(g2, g3))


@given(_envs)
def test_merge_idempotent(g):
    assert merge(g, g) == g


@given(_envs, st.lists(_envs, min_size=1, max_size=4))
def test_sibling_bindings_unite_whole_environments(env, siblings):
    """Folding the siblings' added bindings gives what uniting their whole
    environments, each the incoming one extended, gives."""
    whole, added = env, {}
    for bindings in siblings:
        whole = merge(whole, merge(env, bindings))
        added = sibling_bindings(env, added, bindings)
    assert merge(env, added) == whole


def test_sibling_bindings_restore_outer_names_a_later_sibling_leaves():
    env = {"x": INTEGER}
    assert sibling_bindings(env, {"x": STRING, "y": FLOAT}, {}) == {"y": FLOAT}
    assert sibling_bindings(env, {"x": STRING}, {"x": FLOAT}) == {"x": FLOAT}
    assert sibling_bindings(env, {}, {"x": STRING}) == {"x": STRING}


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
