import itertools

import pytest

from conftest import CORPUS_DIR, accepted_corpus_files, strip_specs
from extc.checker import check_programs
from extc.parser import parse_program


def check(source, path="<input>"):
    return check_programs([parse_program(source, path=path)])


def errors_of(source):
    return [d.code for d in check(source) if d.severity == "error"]


FULL_UNTYPED_PROGRAM = """
defmodule Base do
  defmodule Math do
    def dec(x) do x - 1 end
  end
end

defmodule Main do
  def fact(0) do 1 end
  def fact(n) do n * fact(Base.Math.dec(n)) end
end
"""


class TestProgramValidity:
    def test_untyped_program_accepted(self):
        assert errors_of(FULL_UNTYPED_PROGRAM) == []

    def test_untyped_defs_noted(self):
        infos = [d for d in check(FULL_UNTYPED_PROGRAM) if d.severity == "info"]
        assert len(infos) == 3
        assert all(d.code == "I_UNTYPED_DEF" for d in infos)

    def test_top_level_type_error(self):
        assert errors_of('3 + "hi"') == ["E_TYPE_MISMATCH"]

    def test_bad_function_typechecks(self):
        assert errors_of("@spec bad(any) :: integer\n"
                         "def bad(x) do if x do x else 2 end end") == []

    def test_each_statement_group_starts_empty(self):
        # a def breaks the expression run; x is out of scope afterwards
        assert errors_of("x = 1\ndef f(y) do y end\nx + 1") == ["E_UNBOUND_VAR"]

    @pytest.mark.parametrize("statement", ['"def" <> "a"', '"defmodule"', ":def"])
    def test_only_the_keyword_def_ends_the_statement_group(self, statement):
        # a string or atom spelled like a keyword is an ordinary expression
        assert errors_of(f"x = 1\n{statement}\ny = x") == []

    def test_module_expressions_use_module_prefix(self):
        source = """
defmodule M do
  @spec func(integer) :: float
  def func(x) do x * 42.0 end
  func(2)
end
"""
        assert errors_of(source) == []

    def test_all_diagnostics_accumulated(self):
        source = '3 + "hi"\ndef f(x) do x end\n1 and 2'
        codes = [d.code for d in check(source) if d.severity == "error"]
        assert codes == ["E_TYPE_MISMATCH", "E_TYPE_MISMATCH"]

    def test_diagnostics_sorted_by_position(self):
        diags = check('x\n3 + "hi"')
        offsets = [d.span.start for d in diags]
        assert offsets == sorted(offsets)


class TestFunctionClauses:
    def test_spec_any_result_accepts_precise_body(self):
        assert errors_of("@spec func(integer) :: any\ndef func(x) do x end") == []

    def test_nonlinear_params_against_distinct_types(self):
        assert errors_of("@spec func(integer, string) :: integer\n"
                         "def func(x, x) do x end") == ["E_NONLINEAR_MISMATCH"]

    def test_nonlinear_params_against_equal_types(self):
        assert errors_of("@spec func(integer, integer) :: integer\n"
                         "def func(x, x) do x end") == []

    def test_multi_clause_function(self):
        assert errors_of("""
@spec length([any]) :: integer
def length([]) do 0 end
def length([head | tail]) do 1 + length(tail) end
""") == []

    def test_body_subtype_of_declared_result(self):
        assert errors_of("@spec f(integer) :: float\ndef f(x) do x end") == []

    def test_body_mismatch(self):
        diags = check('@spec f(integer) :: integer\ndef f(x) do "no" end')
        assert [d.code for d in diags] == ["E_SPEC_BODY_MISMATCH"]
        assert diags[0].expected == "integer" and diags[0].actual == "string"

    def test_param_pattern_mismatch(self):
        diags = check("@spec f([integer]) :: integer\ndef f({x, y}) do x end")
        assert [d.code for d in diags] == ["E_SPEC_PARAM_MISMATCH"]

    def test_literal_param_must_refine_declared_type(self):
        assert errors_of("@spec f(integer) :: integer\ndef f(0) do 1 end") == []
        assert errors_of("@spec f(float) :: integer\ndef f(0) do 1 end") == \
            ["E_SPEC_PARAM_MISMATCH"]

    def test_pins_in_def_params_cannot_resolve(self):
        assert errors_of("@spec f(integer) :: integer\ndef f(^x) do 1 end") == \
            ["E_PIN_UNBOUND"]

    def test_param_env_threads_left_to_right(self):
        assert errors_of("@spec f(integer, [integer]) :: integer\n"
                         "def f(x, [y | _]) do x + y end") == []

    def test_a_function_argument_of_another_arity(self):
        diags = check("@spec ap((integer, integer) -> integer) :: integer\n"
                      "def ap(f) do f.(1, 2) end\nap(fn (x) -> x end)\n")
        assert [(d.code, d.span.source.position(d.span.start)) for d in diags] == [
            ("E_TYPE_MISMATCH", (3, 4))]
        assert diags[0].message.startswith("argument of type (any) -> any does not fit "
                                           "parameter type (integer, integer) -> integer")

    def test_each_clause_checked_against_the_single_spec(self):
        diags = check("""
@spec f(integer) :: integer
def f(0) do 1 end
def f(x) do "no" end
""")
        assert [d.code for d in diags] == ["E_SPEC_BODY_MISMATCH"]


class TestMultiplePrograms:
    def test_shared_signature_environment(self):
        a = parse_program("defmodule M do\n@spec f(integer) :: float\n"
                          "def f(x) do x * 1.0 end\nend", path="a.ex")
        b = parse_program('M.f("bad")', path="b.ex")
        diags = check_programs([a, b])
        errors = [d for d in diags if d.severity == "error"]
        assert len(errors) == 1
        assert errors[0].file == "b.ex"
        assert errors[0].code == "E_TYPE_MISMATCH"

    def test_each_diagnostic_points_into_its_own_file(self):
        """Checked together, the corpus files clash over shared specs; every
        diagnostic, of every code, still resolves against its own file."""
        texts = {path.name: path.read_text() for path in sorted(CORPUS_DIR.glob("*.ex"))}
        diags = check_programs([parse_program(text, path=name) for name, text in texts.items()])
        assert {"E_DUP_SPEC", "W_SPEC_NO_DEF", "I_UNTYPED_DEF", "W_UNREACHABLE_PATTERN",
                "E_TYPE_MISMATCH", "E_PATTERN_TYPE"} <= {d.code for d in diags}
        assert len({d.file for d in diags}) > 2
        for d in diags:
            assert d.span.source.text == texts[d.file], (d.file, d.code)
            assert 0 <= d.span.start <= d.span.end <= len(texts[d.file])


class TestOrderIndependence:
    def test_permuting_defs_yields_same_codes(self):
        defs = [
            "@spec f(integer) :: integer\ndef f(x) do x end",
            'def g(x) do x <> "s" end',
            "@spec h(float) :: float\ndef h(x) do x / 2 end",
        ]
        expected = None
        for perm in itertools.permutations(defs):
            codes = sorted(d.code for d in check("\n".join(perm)))
            if expected is None:
                expected = codes
            assert codes == expected


class TestSpecErasure:
    @pytest.mark.parametrize("path", accepted_corpus_files(), ids=lambda p: p.name)
    def test_erasing_specs_preserves_acceptance(self, path):
        erased = strip_specs(path.read_text())
        diags = check(erased, path=path.name)
        assert [d.code for d in diags if d.severity == "error"] == []


# Corpus files that never touch `any`: no gradual specs, no calls to
# unspecced functions, no anonymous-function parameters.
FULLY_STATIC_FILES = [
    "ok_arith.ex", "ok_seq_basic.ex", "ok_scope_if.ex", "ok_cmp.ex",
    "ok_lists.ex", "ok_maps.ex", "ok_case_map.ex", "ok_case_atoms.ex",
    "ok_pin.ex", "ok_elseless_if.ex", "ok_data.ex", "ok_func_spec.ex",
    "ok_nonlinear.ex", "ok_nested_modules.ex", "ok_spec_no_def.ex",
    "wrong_plus.ex", "err_cmp_mult.ex", "err_func_float.ex",
    "err_func_string.ex", "err_list_bool.ex", "err_tuple_destructure.ex",
    "err_map_plus.ex", "err_map_key.ex", "err_nonlinear.ex",
    "err_unbound_sibling.ex", "err_dup_spec.ex",
]


class TestStaticModeAgreement:
    @pytest.mark.parametrize("name", FULLY_STATIC_FILES)
    def test_fits_equals_subtyping_on_static_files(self, name, monkeypatch):
        import extc.checker
        import extc.expressions
        import extc.patterns
        from extc.types import is_subtype

        source = (CORPUS_DIR / name).read_text()
        normal = [(d.code, d.span.start) for d in check(source, path=name)]

        for module in (extc.patterns, extc.expressions, extc.checker):
            monkeypatch.setattr(module, "fits", is_subtype)
        restricted = [(d.code, d.span.start) for d in check(source, path=name)]
        assert normal == restricted
