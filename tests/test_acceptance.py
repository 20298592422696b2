"""Acceptance suite: one test per criterion, each printing a PASS line.

Run under pytest (`pytest tests/test_acceptance.py -v -s`) or directly
(`python tests/test_acceptance.py`) for the one-line-per-criterion report.
"""
import io
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

from conftest import (
    CORPUS_DIR, EXPECTED_ERRORS, accepted_corpus_files, corpus_files, strip_specs,
)
from extc.checker import check_programs
from extc.cli import run
from extc.envs import SignatureEnv
from extc.expressions import ExprChecker
from oracle import brute_glb, brute_lub, closure_fits, contains_any, default_universe
from extc.parser import parse_program
from extc.types import (
    ANY, BOOLEAN, FLOAT, FunctionType, INTEGER, ListType, STRING, TERM,
    fits, is_more_precise, is_subtype, join, meet,
)


def _report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


@lru_cache(maxsize=1)
def _universe():
    uni = default_universe()
    uni.sub, uni.prec, uni.reach
    return uni


def _synth(source, env=None, sigs=None, prefix=()):
    """The type of the statements `source` holds, and the bindings they add."""
    program = parse_program(source)
    checker = ExprChecker(sigs or SignatureEnv(), prefix, program, [])
    return checker.synthesize(program.items[0], dict(env or {}))


def _accepted(source, sigs=None, prefix=()):
    try:
        _synth(source, sigs=sigs, prefix=prefix)
        return True
    except Exception:
        return False


def _error_codes(source):
    diags = check_programs([parse_program(source)])
    return [d.code for d in diags if d.severity == "error"]


def test_criterion_1_paper_corpus_verdicts():
    started = time.monotonic()

    # the checked-in corpus reproduces every listing's verdict
    for path in corpus_files():
        diags = check_programs([parse_program(path.read_text(), path=path.name)])
        got = [d.code for d in diags if d.severity == "error"]
        want = EXPECTED_ERRORS.get(path.name, [])
        assert got == want, f"{path.name}: expected {want}, got {got}"

    # the itemized minimal verdicts, asserted directly
    assert not _accepted('3 + "hi"')
    assert _synth("4 + 5")[0] == INTEGER
    assert _synth("4.0 + 5")[0] == FLOAT
    assert _synth('("hi" > 5.0) or false')[0] == BOOLEAN
    assert not _accepted('("hi" > 5.0) * 3')

    sigs = SignatureEnv()
    sigs.add(("M",), "func", FunctionType((INTEGER,), FLOAT))
    assert _accepted("func(2)", sigs=sigs, prefix=("M",))
    assert not _accepted("func(2.0)", sigs=sigs, prefix=("M",))
    assert not _accepted('func("2")', sigs=sigs, prefix=("M",))

    lists = "xs = [9 | []]; ys = [2.0 | xs]; zs = [true | ys]"
    assert _synth(lists + "; zs")[0] == ListType(TERM)
    assert _error_codes(lists + "\n[z | _] = zs\nz and true") == ["E_TYPE_MISMATCH"]
    assert _error_codes("xs = [9 | []]\n{x, y} = xs") == ["E_PATTERN_TYPE"]

    maps = 'm = %{:strange => "hello", 9 => true}; '
    assert _synth(maps + 'm[:strange] <> "bye"')[0] == STRING
    assert not _accepted(maps + "m[:strange] + 3")
    assert not _accepted(maps + "m[10]")

    assert _error_codes("@spec func(integer, string) :: integer\n"
                        "def func(x, x) do x end") == ["E_NONLINEAR_MISMATCH"]
    assert _error_codes("@spec func(integer, integer) :: integer\n"
                        "def func(x, x) do x end") == []

    id_sigs = SignatureEnv()
    id_sigs.add((), "id", FunctionType((ANY,), ANY))
    assert _accepted("id(8) + 10", sigs=id_sigs)
    assert _accepted('"hello" <> Main.fact(9)')
    assert _accepted("id(8) and true", sigs=id_sigs)
    assert _error_codes("@spec bad(any) :: integer\n"
                        "def bad(x) do if x do x else 2 end end") == []
    assert _error_codes("@spec func(integer) :: any\ndef func(x) do x end") == []

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"corpus run took {elapsed:.2f}s"
    _report(1, "paper corpus verdicts, 100% agreement")


def test_criterion_2_derivation_level_types():
    assert _synth("-9")[0] == INTEGER
    assert _synth("9.0 / 2")[0] == FLOAT
    assert _synth("Main.fact(9)")[0] == ANY
    assert _synth("Main.fact(9) + 2")[0] == INTEGER

    sigs = SignatureEnv()
    sigs.add((), "foo", FunctionType((ANY,), INTEGER))
    assert _synth("foo(9)", sigs=sigs)[0] == INTEGER

    assert _synth("case :yes do :yes -> 1\n:no -> 2 end")[0] == INTEGER
    _report(2, "derivation-level synthesized types")


def test_criterion_3_oracle_equivalence():
    uni = _universe()
    n = len(uni)
    index = uni.index

    fits_mismatches = 0
    for t in uni.types:
        i = index[t]
        for u in uni.types:
            if fits(t, u) != closure_fits(uni, t, u):
                fits_mismatches += 1
    assert fits_mismatches == 0

    any_free = [t for t in uni.types if not contains_any(t)]
    join_mismatches = meet_mismatches = 0
    for t in any_free:
        for u in any_free:
            if join(t, u) != brute_lub(uni, t, u):
                join_mismatches += 1
            if meet(t, u) != brute_glb(uni, t, u):
                meet_mismatches += 1
    assert join_mismatches == 0
    assert meet_mismatches == 0

    # subtyping reflexive and transitive over the same universe
    rows = []
    for t in uni.types:
        row = 0
        for j, u in enumerate(uni.types):
            if is_subtype(t, u):
                row |= 1 << j
        rows.append(row)
    for i in range(n):
        assert rows[i] >> i & 1, f"not reflexive at {uni.types[i]}"
    for i in range(n):
        row = rows[i]
        probe = row
        while probe:
            j = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            assert rows[j] | row == row, (
                f"not transitive: {uni.types[i]} <: {uni.types[j]}")

    # precision reflexive, any on top
    for t in uni.types:
        assert is_more_precise(t, t)
        assert is_more_precise(t, ANY)
    _report(3, "fits/join/meet agree with the declarative closure oracle")


def test_criterion_4_spec_erasure():
    failures = []
    for path in accepted_corpus_files():
        erased = strip_specs(path.read_text())
        diags = check_programs([parse_program(erased, path=path.name)])
        errors = [d.code for d in diags if d.severity == "error"]
        if errors:
            failures.append((path.name, errors))
    assert failures == []
    _report(4, "spec erasure preserves acceptance")


def test_criterion_5_environment_discipline():
    t, _ = _synth("x = 1; y = if true do x = 2; x + 1 else 4 end; {x, y}")
    assert str(t) == "{integer, integer}"

    _, cond_added = _synth("cond do (z = true) -> 1 end")
    assert cond_added == {}
    assert _error_codes("cond do (z = true) -> 1 end\nz") == ["E_UNBOUND_VAR"]

    assert _error_codes("(x = 3) + x") == ["E_UNBOUND_VAR"]
    _report(5, "environment discipline")


def _capture_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_6_determinism():
    for fmt in ("text", "json"):
        argv = ["check", str(CORPUS_DIR), "--format", fmt]
        first = _capture_run(argv)
        second = _capture_run(argv)
        assert first == second, f"{fmt} output differs between runs"
    _report(6, "byte-identical output across runs")


_CRITERIA = [
    test_criterion_1_paper_corpus_verdicts,
    test_criterion_2_derivation_level_types,
    test_criterion_3_oracle_equivalence,
    test_criterion_4_spec_erasure,
    test_criterion_5_environment_discipline,
    test_criterion_6_determinism,
]


def main() -> int:
    failed = 0
    for number, criterion in enumerate(_CRITERIA, start=1):
        try:
            criterion()
        except AssertionError as err:
            failed += 1
            name = criterion.__name__.replace("test_criterion_", "", 1)
            print(f"ACCEPTANCE {number} ({name}): FAIL - {err}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
