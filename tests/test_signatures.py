import marshal

import pytest

from conftest import corpus_files
from extc import signatures
from extc.parser import parse_program
from extc.signatures import collect_all, declarations, scopes
from extc.types import ANY, FLOAT, FunctionType, INTEGER


def collect(source):
    return collect_all([parse_program(source)])


def test_spec_inside_module_is_prefixed():
    env, diags = collect("defmodule M do\n@spec func(integer) :: float\nend")
    assert diags == [] or all(d.code == "W_SPEC_NO_DEF" for d in diags)
    assert env.lookup("M.func", 1) == FunctionType((INTEGER,), FLOAT)


def test_untyped_functions_are_absent():
    env, diags = collect("""
defmodule Base do
  defmodule Math do
    def dec(x) do x - 1 end
  end
end
defmodule Main do
  def fact(0) do 1 end
  def fact(n) do n * fact(Base.Math.dec(n)) end
end
""")
    assert len(env) == 0
    assert [d for d in diags if d.severity == "error"] == []


def test_nested_module_prefixes_compose():
    env, _ = collect("""
defmodule Base do
  defmodule Math do
    @spec f(integer) :: integer
    def f(x) do x end
  end
end
""")
    assert env.lookup("Base.Math.f", 1) is not None
    assert env.lookup("Math.f", 1) is None


def test_top_level_spec_uses_empty_prefix():
    env, _ = collect("@spec id(any) :: any\ndef id(x) do x end")
    assert env.lookup("id", 1) == FunctionType((ANY,), ANY)


def test_duplicate_spec_diagnosed_first_wins():
    env, diags = collect("""
defmodule M do
  @spec func(integer) :: float
  @spec func(integer) :: integer
  def func(x) do x * 42.0 end
end
""")
    assert [d.code for d in diags if d.severity == "error"] == ["E_DUP_SPEC"]
    assert env.lookup("M.func", 1) == FunctionType((INTEGER,), FLOAT)


def test_same_name_different_arity_not_duplicate():
    env, diags = collect("""
@spec f(integer) :: integer
@spec f(integer, integer) :: integer
def f(x) do x end
def f(x, y) do x end
""")
    assert [d for d in diags if d.severity == "error"] == []
    assert len(env) == 2


def test_spec_without_def_warns():
    _, diags = collect("defmodule M do\n@spec helper(integer) :: integer\nend")
    assert [d.code for d in diags] == ["W_SPEC_NO_DEF"]


def test_spec_with_def_in_nested_module_still_warns():
    _, diags = collect("""
defmodule M do
  @spec f(integer) :: integer
  defmodule N do
    def f(x) do x end
  end
end
""")
    codes = [d.code for d in diags]
    assert "W_SPEC_NO_DEF" in codes


def test_expressions_leave_delta_unchanged():
    env, _ = collect("x = 1\nx + 1")
    assert len(env) == 0


def test_collecting_concatenation_equals_merging():
    first = "defmodule A do\n@spec f(integer) :: integer\ndef f(x) do x end\nend"
    second = "defmodule B do\n@spec g(float) :: float\ndef g(x) do x end\nend"
    together, diags = collect(first + "\n" + second)
    separate, diags2 = collect_all([parse_program(first), parse_program(second)])
    assert diags == [] and diags2 == []
    assert together.entries() == separate.entries()


def test_cross_file_duplicates_detected():
    a = parse_program("@spec f(integer) :: integer\ndef f(x) do x end", path="a.ex")
    b = parse_program("@spec f(integer) :: float\ndef f(x) do 1.0 end", path="b.ex")
    env, diags = collect_all([a, b])
    dups = [d for d in diags if d.code == "E_DUP_SPEC"]
    assert len(dups) == 1 and dups[0].file == "b.ex"
    assert env.lookup("f", 1) == FunctionType((INTEGER,), INTEGER)


def test_scopes_are_outer_before_inner_in_document_order():
    a = parse_program("""
x = 1
defmodule A do
  defmodule B do
    defmodule C do end
  end
  y = 2
  defmodule D do end
end
defmodule E do end
""", path="a.ex")
    b = parse_program("defmodule F do end", path="b.ex")
    walked = [(program.path, ".".join(prefix), len(items)) for program, prefix, items
              in scopes([a, b])]
    assert walked == [("a.ex", "", 3), ("a.ex", "A", 3), ("a.ex", "A.B", 1),
                      ("a.ex", "A.B.C", 0), ("a.ex", "A.D", 0), ("a.ex", "E", 0),
                      ("b.ex", "", 1), ("b.ex", "F", 0)]


def test_same_nested_module_in_two_files_keeps_the_first_spec():
    def nested(path, t):
        return parse_program("defmodule A do\n  defmodule B do\n"
                             f"    @spec f({t}) :: {t}\n    def f(x) do x end\n  end\nend\n",
                             path=path)
    env, diags = collect_all([nested("a.ex", "integer"), nested("b.ex", "string")])
    assert [(d.code, d.file, d.span.source.position(d.span.start)) for d in diags] == [
        ("E_DUP_SPEC", "b.ex", (3, 5))]
    assert diags[0].message == ("duplicate @spec for A.B.f/1; "
                                "the first declaration stays in effect")
    assert env.lookup("A.B.f", 1) == FunctionType((INTEGER,), INTEGER)


def test_spec_without_def_is_matched_in_its_own_scope():
    env, diags = collect("""
defmodule A do
  @spec g(integer) :: integer
  defmodule B do
    @spec f(integer) :: integer
    def g(x) do x end
  end
  def f(x) do x end
end
""")
    assert len(env) == 2
    assert sorted((d.code, d.message) for d in diags) == [
        ("W_SPEC_NO_DEF", "@spec A.B.f/1 has no matching definition in this module"),
        ("W_SPEC_NO_DEF", "@spec A.g/1 has no matching definition in this module"),
    ]


_CORPUS = corpus_files()


@pytest.mark.parametrize("held", [
    set(range(len(_CORPUS))), set(), set(range(0, len(_CORPUS), 2)),
    set(range(1, len(_CORPUS), 2)), *({i} for i in range(len(_CORPUS))),
], ids=["all", "none", "even", "odd", *(f"only-{path.stem}" for path in _CORPUS)])
def test_a_split_collection_agrees_with_a_whole_one(held):
    """A split check holds some files and gets the others' declarations
    through `marshal`: it collects the whole check's signatures and exactly
    the spec diagnostics that point into its own files. The corpus repeats
    `M.func/1` and `func/2` across files, so some masks hold a repeat whose
    first declaration is foreign."""
    programs = [parse_program(path.read_text(), path=str(path)) for path in _CORPUS]
    whole, whole_diags = collect_all(programs)
    assert {"E_DUP_SPEC", "W_SPEC_NO_DEF"} <= {d.code for d in whole_diags}
    assert sum(d.code == "E_DUP_SPEC" for d in whole_diags) > 1  # more than err_dup_spec.ex's
    declared = [declarations(program) for program in programs]
    crossed = marshal.loads(marshal.dumps(declared))
    assert crossed == declared
    files = [(program, declared[i]) if i in held else (None, crossed[i])
             for i, program in enumerate(programs)]
    env, diags = signatures.collect(files)
    assert env.entries() == whole.entries()
    ours = {programs[i].path for i in held}
    assert diags == [d for d in whole_diags if d.file in ours]
