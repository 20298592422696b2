import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, DATA_DIR
from extc import checker, cli, signatures
from extc.cli import run
from extc.parser import MAX_TYPE_DEPTH


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus(name):
    return str(CORPUS_DIR / name)


class TestExitCodes:
    def test_clean_file_exits_zero_with_no_output(self, capsys):
        code, out, err = invoke(capsys, "check", corpus("ok_arith.ex"))
        assert code == 0
        assert out == "" and err == ""

    def test_type_error_exits_one(self, capsys):
        code, out, _ = invoke(capsys, "check", corpus("wrong_plus.ex"))
        assert code == 1
        assert "E_TYPE_MISMATCH" in out

    def test_parse_error_exits_two(self, capsys):
        code, out, _ = invoke(capsys, "check", str(DATA_DIR / "bad_syntax.ex"))
        assert code == 2
        assert "E_PARSE" in out

    def test_lex_error_exits_two(self, capsys):
        code, out, _ = invoke(capsys, "check", str(DATA_DIR / "bad_lex.ex"))
        assert code == 2
        assert "E_LEX" in out

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = invoke(capsys, "check", "no_such_file.ex")
        assert code == 3
        assert "no such file" in err

    def test_bad_flag_is_a_usage_error(self, capsys):
        assert invoke(capsys, "check", corpus("ok_arith.ex"), "--bogus")[0] == 3

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        assert invoke(capsys)[0] == 3

    def test_warnings_pass_by_default(self, capsys):
        assert invoke(capsys, "check", corpus("ok_case_atoms.ex"))[0] == 0

    def test_strict_warnings(self, capsys):
        code, out, _ = invoke(capsys, "check", corpus("ok_case_atoms.ex"),
                              "--strict-warnings")
        assert code == 1
        assert "W_UNREACHABLE_PATTERN" in out


class TestJsonOutput:
    def test_single_json_document_on_stdout(self, capsys):
        code, out, err = invoke(capsys, "check", corpus("wrong_plus.ex"),
                                "--format", "json")
        assert code == 1
        payload = json.loads(out)  # whole stdout is one document
        assert payload["summary"] == {"errors": 1, "warnings": 0}
        [entry] = payload["diagnostics"]
        assert entry["code"] == "E_TYPE_MISMATCH"
        assert entry["file"].endswith("wrong_plus.ex")

    def test_clean_json(self, capsys):
        code, out, _ = invoke(capsys, "check", corpus("ok_arith.ex"),
                              "--format", "json")
        assert code == 0
        assert json.loads(out) == {"diagnostics": [],
                                   "summary": {"errors": 0, "warnings": 0}}

    def test_dump_sigs_goes_to_stderr_in_json_mode(self, capsys):
        code, out, err = invoke(capsys, "check", corpus("ok_func_spec.ex"),
                                "--format", "json", "--dump-sigs")
        json.loads(out)
        assert "M.func/1 :: (integer) -> float" in err


class TestDumpSigs:
    def test_dump_sigs_text(self, capsys):
        _, out, _ = invoke(capsys, "check", corpus("ok_func_spec.ex"), "--dump-sigs")
        assert "M.func/1 :: (integer) -> float" in out

    def test_nested_module_signature(self, capsys):
        _, out, _ = invoke(capsys, "check", corpus("ok_nested_modules.ex"),
                           "--dump-sigs")
        assert "Base.Math.dec/1 :: (integer) -> integer" in out

    def test_top_level_signature_has_no_prefix(self, capsys):
        _, out, _ = invoke(capsys, "check", corpus("ok_length.ex"), "--dump-sigs")
        assert "length/1 :: ([any]) -> integer" in out

    def test_signatures_are_collected_once(self, capsys, monkeypatch):
        calls = []

        def counting_collect_all(programs):
            calls.append(programs)
            return signatures.collect_all(programs)

        for module in (cli, checker):
            monkeypatch.setattr(module, "collect_all", counting_collect_all)
        _, out, _ = invoke(capsys, "check", corpus("ok_func_spec.ex"), "--dump-sigs")
        assert "M.func/1 :: (integer) -> float" in out
        assert len(calls) == 1


class TestMultiFile:
    def test_cross_file_signature_sharing(self, tmp_path, capsys):
        (tmp_path / "a.ex").write_text(
            "defmodule M do\n@spec f(integer) :: float\ndef f(x) do x * 1.0 end\nend\n")
        (tmp_path / "b.ex").write_text('M.f("bad")\n')
        code, out, _ = invoke(capsys, "check", str(tmp_path / "a.ex"),
                              str(tmp_path / "b.ex"))
        assert code == 1
        assert "b.ex:1:5 E_TYPE_MISMATCH" in out
        assert "a.ex" not in out.splitlines()[0].split()[0] or "b.ex" in out

    def test_directory_recurses_in_sorted_order(self, tmp_path, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        (tmp_path / "b.ex").write_text('3 + "hi"\n')
        (sub / "a.ex").write_text("1 and 2\n")
        code, out, _ = invoke(capsys, "check", str(tmp_path))
        assert code == 1
        first, second = [line for line in out.splitlines() if "E_TYPE_MISMATCH" in line]
        assert "b.ex" in first and "a.ex" in second  # lexicographic: b.ex < sub/a.ex

    def test_parse_error_in_one_file_still_reports_others(self, tmp_path, capsys):
        (tmp_path / "a.ex").write_text("def f( do x end\n")
        (tmp_path / "b.ex").write_text('3 + "hi"\n')
        code, out, _ = invoke(capsys, "check", str(tmp_path))
        assert code == 2
        assert "E_PARSE" in out and "E_TYPE_MISMATCH" in out


class TestDeterminism:
    def test_text_output_byte_identical(self, capsys):
        args = ["check", str(CORPUS_DIR)]
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second

    def test_json_output_byte_identical(self, capsys):
        args = ["check", str(CORPUS_DIR), "--format", "json"]
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first == second


class TestParseSubcommand:
    def test_dumps_ast(self, capsys):
        code, out, _ = invoke(capsys, "parse", corpus("ok_seq_basic.ex"))
        assert code == 0
        assert "Program" in out and "BinOp" in out

    def test_parse_error_exits_two(self, capsys):
        code, _, err = invoke(capsys, "parse", str(DATA_DIR / "bad_syntax.ex"))
        assert code == 2
        assert "E_PARSE" in err

    def test_missing_file(self, capsys):
        assert invoke(capsys, "parse", "nope.ex")[0] == 3


# A sequence and an operator chain longer than the interpreter's recursion
# limit; the parser builds both with loops.
_LONG_CHAINS = {
    "long_body.ex": "defmodule M do\n  @spec f(integer) :: integer\n  def f(n) do\n"
                    + "".join(f"    x{i} = {i}\n" for i in range(1200)) + "    n\n  end\nend\n",
    "long_sum.ex": "x = " + " + ".join(["1"] * 1500) + "\n",
}


class TestInputsThatUsedToCrash:
    def test_thousand_element_cons_list_is_a_parse_error(self, tmp_path, capsys):
        cons = "[]"
        for i in reversed(range(1000)):
            cons = f"[{i} | {cons}]"
        path = tmp_path / "deep.ex"
        path.write_text(f"xs = {cons}\n")
        code, out, err = invoke(capsys, "check", str(path))
        assert code == 2
        assert f"{path}:1:" in out and "E_PARSE nesting too deep" in out
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(_LONG_CHAINS))
    def test_long_chains_check_clean(self, name, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(_LONG_CHAINS[name])
        assert invoke(capsys, "check", str(path)) == (0, "", "")

    @pytest.mark.parametrize("name", sorted(_LONG_CHAINS))
    def test_long_chains_dump(self, name, tmp_path, capsys):
        path = tmp_path / name
        path.write_text(_LONG_CHAINS[name])
        code, out, err = invoke(capsys, "parse", str(path))
        assert code == 0 and err == ""
        assert out.startswith("Program path=")
        node, count = {"long_body.ex": ("Seq", 1200), "long_sum.ex": ("BinOp", 1499)}[name]
        assert out.count(f" {node}") == count

    def test_map_access_chains_nested_in_tuples(self, tmp_path, capsys):
        # Three chains of 240 accesses, each inside a tuple that the next
        # chain accesses; the second access of the innermost is on an integer.
        chain = "[:a]" * 240
        path = tmp_path / "tuples.ex"
        path.write_text("m = %{:a => 1}\nx = {{m" + chain + "}" + chain + "}" + chain + "\n")
        code, out, err = invoke(capsys, "check", str(path))
        assert code == 1 and err == ""
        assert out.startswith(f"{path}:2:7 E_TYPE_MISMATCH expression has type integer, "
                              "expected %{:a => term}\n")
        assert out.count("E_TYPE_MISMATCH") == 1

    def test_map_access_chains_nested_in_maps(self, tmp_path, capsys):
        chain = "[:a]" * 240
        path = tmp_path / "maps.ex"
        path.write_text("x = %{:a => %{:a => g(1)" + chain + "}" + chain + "}" + chain + "\n")
        assert invoke(capsys, "check", str(path)) == (0, "", "")

    def test_latin1_bytes_are_a_lex_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.ex"
        path.write_bytes('x = 1\nname = "caf\xe9"\n'.encode("latin-1"))
        code, out, err = invoke(capsys, "check", str(path))
        assert code == 2
        assert out.startswith(f"{path}:2:12 E_LEX file is not valid UTF-8\n")
        assert err == ""

    def test_latin1_bytes_in_json(self, tmp_path, capsys):
        path = tmp_path / "latin1.ex"
        path.write_bytes('x = 1\r\nname = "caf\xe9"\r\n'.encode("latin-1"))
        code, out, _ = invoke(capsys, "check", str(path), "--format", "json")
        [diag] = json.loads(out)["diagnostics"]
        assert code == 2
        assert (diag["code"], diag["line"], diag["col"]) == ("E_LEX", 2, 12)

    def test_latin1_bytes_in_parse_subcommand(self, tmp_path, capsys):
        path = tmp_path / "latin1.ex"
        path.write_bytes('name = "caf\xe9"\n'.encode("latin-1"))
        code, out, err = invoke(capsys, "parse", str(path))
        assert code == 2 and out == ""
        assert "E_LEX file is not valid UTF-8" in err

    def test_crlf_line_endings_read_as_newlines(self, tmp_path, capsys):
        path = tmp_path / "lines.ex"
        path.write_bytes(b'x = 1\n3 + "hi"\n')
        unix = invoke(capsys, "check", str(path))
        path.write_bytes(b'x = 1\r\n3 + "hi"\r')
        assert invoke(capsys, "check", str(path)) == unix
        assert unix[1].startswith(f"{path}:2:5 E_TYPE_MISMATCH")


# Openers and closers of list, tuple, map and function types, which count
# towards the nesting limit of `@spec` types.
_TYPE_SHAPES = {
    "list": ("[", "]"),
    "tuple": ("{", "}"),
    "map": ("%{:a => ", "}"),
    "function": ("(", ") -> integer"),
}


def _deep_spec(tmp_path, shape, depth):
    opener, closer = _TYPE_SHAPES[shape]
    t = opener * depth + "integer" + closer * depth
    path = tmp_path / f"{shape}{depth}.ex"
    path.write_text(f"@spec f({t}) :: {t}\ndef f(x) do x end\n")
    return str(path)


class TestDeepSpecTypes:
    """A `@spec` type nests at most `MAX_TYPE_DEPTH` levels; the type
    relations recurse once per level, so a deeper type is a parse error."""

    @pytest.mark.parametrize("shape", sorted(_TYPE_SHAPES))
    def test_at_the_limit_checks_and_dumps(self, shape, tmp_path, capsys):
        path = _deep_spec(tmp_path, shape, MAX_TYPE_DEPTH)
        assert invoke(capsys, "check", path) == (0, "", "")
        code, out, _ = invoke(capsys, "check", path, "--format", "json")
        assert code == 0 and json.loads(out)["diagnostics"] == []
        code, out, err = invoke(capsys, "parse", path)
        assert code == 0 and err == "" and out.startswith("Program path=")

    @pytest.mark.parametrize("shape", sorted(_TYPE_SHAPES))
    def test_past_the_limit_is_a_parse_error(self, shape, tmp_path, capsys):
        path = _deep_spec(tmp_path, shape, MAX_TYPE_DEPTH + 1)
        # The error points at the opener of the level past the limit.
        col = len("@spec f(") + len(_TYPE_SHAPES[shape][0]) * MAX_TYPE_DEPTH + 1
        code, out, err = invoke(capsys, "check", path)
        assert code == 2 and err == ""
        assert out.startswith(f"{path}:1:{col} E_PARSE nesting too deep\n")
        code, out, _ = invoke(capsys, "check", path, "--format", "json")
        [diag] = json.loads(out)["diagnostics"]
        assert code == 2
        assert (diag["code"], diag["message"], diag["line"], diag["col"]) == \
            ("E_PARSE", "nesting too deep", 1, col)
        code, out, err = invoke(capsys, "parse", path)
        assert code == 2 and out == ""
        assert err.startswith(f"{path}:1:{col} E_PARSE nesting too deep\n")


class TestExcerpts:
    """The excerpt is the line the span names: the lexer ends lines at "\\n"
    only, so other characters that `str.splitlines` breaks at stay in it."""

    @pytest.mark.parametrize("text", ["# page\fbreak\n", 'x = "a\u2028b"\n'],
                             ids=["form_feed_in_comment", "line_separator_in_string"])
    def test_excerpt_splits_lines_at_newline_only(self, text, tmp_path, capsys):
        path = tmp_path / "lines.ex"
        path.write_text(text + 'y = 1 + "s"\n', encoding="utf-8")
        code, out, _ = invoke(capsys, "check", str(path))
        assert code == 1
        assert out.splitlines()[:3] == [
            f"{path}:2:9 E_TYPE_MISMATCH expression has type string, expected float",
            '  2 | y = 1 + "s"',
            "              ^^^",
        ]


# Lexemes of the fragment, so that fuzzed input also reaches the parser and
# the checker rather than stopping at the first stray byte.
_FRAGMENTS = [
    "defmodule", "def", "do", "end", "else", "fn", "case", "cond", "if", "not",
    "and", "or", "true", "false", "@spec", "x", "f", "M", "_", ":a", "1", "2.5",
    '"s"', "integer", "any", "(", ")", "[", "]", "{", "}", "%{", ",", ";", "\n",
    "=", "->", "=>", "::", "|", "^", ".", "+", "-", "*", "/", "<>", "++", "==",
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.text(max_size=100).map(str.encode),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=60).map(lambda xs: " ".join(xs).encode()),
))
def test_arbitrary_bytes_never_crash_the_checker(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ex"
        path.write_bytes(data)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run(["check", str(path)])
    assert code in (0, 1, 2)


@pytest.mark.skipif(shutil.which("extc") is None, reason="entry point not installed")
def test_console_script_entry_point():
    proc = subprocess.run(["extc", "check", corpus("wrong_plus.ex")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "E_TYPE_MISMATCH" in proc.stdout
