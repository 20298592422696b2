"""Compare what `extc` prints at a git revision with what the working tree prints.

    python tests/compare_outputs.py [REVISION]     (REVISION defaults to HEAD)

The revision's `src/` is exported with `git archive` into a temporary
directory. The same fixed list of `extc` invocations then runs against that
tree and against the working tree's `src/`, each in a fresh `python -S` with
`PYTHONHASHSEED=0`:

- `check --dump-sigs`, as text and as JSON, and `parse`, on every file in
  `tests/corpus` and `tests/data`, and `check` on both directories;
- `check` on `tests/corpus` with `--strict-warnings`, with `--no-color`, and
  with one of its files named again;
- `check --dump-sigs`, as text and as JSON, on both perfbench workloads'
  corpora for seeds 1-3, generated with `perfbench.gen`;
- `check`, as text and as JSON, and `parse` on each of `perfbench.gen.PROBES`;
  `check`, as text and as JSON, on all of them in one run, and on all of
  them with the `dense_bodies` seed-1 corpus, a run that is large enough to
  split between processes on a machine with more than one CPU;
- `check` on each set of files in `SPLITS`, each file padded with
  statements past `cli.BATCH_MIN_BYTES`, so that on a machine with more
  than one CPU they split between processes. Which process loads which
  file is not fixed: each takes the next file from one queue, largest
  first, whenever it has loaded one, so most runs put the first two files
  of the queue in two processes, each pinned to CPUs of its own:
  - `split`, as text, as JSON and with `--dump-sigs`: the larger `a.ex`
    holds the first `@spec` of `M.f/1`, and `b.ex` its repeat and a
    `@spec` with no `def`, so the spec diagnostics of `b.ex` rest on
    declarations from `a.ex`;
  - `split_worker`, as text, as JSON and with `--strict-warnings`: `a.ex`
    holds a bad call of `M.f/1` and a `@spec` with no `def`, so every
    diagnostic comes from one file;
  - `split_clean`, as text and as JSON: no diagnostic at all;
  - `split_three`, as text, as JSON and with `--dump-sigs`: `c.ex` repeats
    the `@spec` of `M.f/1` from `a.ex` and calls `N.g/1` from `b.ex`
    badly, and `b.ex` holds a bad call of `M.f/1` and a `@spec` with no
    `def`;
  - `split_last`, as text, as JSON and with `--dump-sigs`: the largest
    file, `c.ex`, comes last on the command line and first in the queue.
    It repeats the `@spec`s of `M.f/1` from `a.ex` and of `N.g/1` from
    `b.ex` and calls `M.f/1` badly, and `a.ex` and `b.ex` call `M.h/1`,
    which only `c.ex` declares, `b.ex` badly, so the diagnostics rest on
    declarations from files that another process loads;
- `check` and `parse` on each of `MALFORMED`, one-line files that between
  them raise every lex and parse error message, from each site that raises
  one, including a `case` and a `cond` whose clauses lack a separator, and
  underline an error after a tab and one that holds a tab;
- `check` and `parse` on each of `PATTERNS`, one-line files that parse and
  put every pattern shape, nested, in every pattern position, so that both
  the pattern names `parse` prints and every pattern judgement are compared;
- `check` and `parse` on each of `SEQUENCES`, one-line files in which a
  statement sequence meets each token that may end it (`else` in an `if`, a
  `def`, `defmodule` or `@spec` after `;` at top level and in a module,
  `end`, and the end of the file), and in which `else` or a declaration
  stands where no sequence may stop; in which a binding made in a tuple
  item holds for the statement after the tuple; and in which an error's
  span is a whole parenthesised sequence;
- `check` and `parse` on each of `TYPES`, one-line files whose `@spec`s
  make `fits`, `join` and the body check meet list, tuple, map and function
  types, `any`, `term` and `none`, with function parameters compared
  contravariantly and joined by their meet;
- `check --format json` on a one-line file whose lex error message holds
  `é`, which JSON escapes, and `check` on one whose caret line holds `é`,
  under `PYTHONIOENCODING=ascii` and `ascii:replace`;
- usage errors and help (`USAGE_ERRORS`): no command, an unknown one, a
  missing or invalid `--format` value, its `--format=X` form, unknown
  options, missing and extra paths, `-h` and `--help` at either level, and
  `--` before a path. The help text is wrapped to 80 columns
  (`COLUMNS=80`).

Every invocation whose stdout, stderr or exit status differs is printed, and
the script exits 1 if any does. pytest does not collect this file.
"""
from __future__ import annotations

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import gen  # noqa: E402

USAGE_ERRORS = [
    [], ["--help"], ["check"], ["check", "--help"], ["parse"], ["bogus"],
    ["check", "missing.ex"], ["parse", "missing.ex"], ["parse", "tests/corpus"],
    ["check", "--format", "xml", "tests/corpus"], ["check", "tests/corpus", "missing.ex"],
    # a missing option value, the `=` form, unknown options and where they
    # stand, a second path, help after a subcommand, and `--`
    ["check", "--format"], ["check", "--format=json", "tests/corpus"], ["check", "--bogus"],
    ["check", "tests/corpus", "--bogus"], ["check", "--format", "xml", "--bogus", "tests/corpus"],
    ["parse", "a", "b"], ["parse", "--help"], ["check", "-h"], ["check", "tests/corpus", "-h"],
    ["check", "--", "tests/corpus"],
]

# One-line files that between them raise every lex and parse error message,
# grouped by the part of the grammar that raises it.
MALFORMED = [
    # lexer: each message
    'x = "a\\zb"', 'x = "ab', "x = :1", "@doc x", "x = 1 ~ 2",
    # declarations: each `expect`, and `end` where no item may stand
    "defmodule 1 do end", "defmodule M end", "defmodule M do", "def 1() do 1 end",
    "def f do 1 end", "def f(x do 1 end", "def f(x) 1 end", "def f(x) do 1",
    "@spec 1() :: integer", "@spec f :: integer", "@spec f(integer :: integer",
    "@spec f() integer", "end", "def f() do 1 end end",
    # types: unknown names, each bracket's `expect`, map keys, duplicates, depth
    "@spec f(foo) :: integer", "@spec f(1) :: integer", "@spec f([integer) :: integer",
    "@spec f({integer) :: integer", "@spec f((integer)) :: integer",
    "@spec f((integer) -> integer :: integer", "@spec f(%{:a integer}) :: integer",
    "@spec f(%{:a => integer) :: integer", '@spec f(%{"a" => integer}) :: integer',
    "@spec f(%{:a => integer, :a => float}) :: integer",
    "@spec f(" + "[" * 101 + "integer" + "]" * 101 + ") :: integer",
    # expressions: each primary's `expect`, map keys and duplicates, long
    # integers, depth, and the separator between statements
    "x = )", "x = 1 +", "x = " + "9" * 5000, "x = " + "(" * 300 + "1" + ")" * 300,
    "x = (1 2)", "x = {1 2}", "x = [1, 2]", "x = [1 | 2", "x = m[:a", 'x = m["a"]',
    "x = f(1 2)", "x = M.1()", "x = %{:a 1}", "x = %{:a => 1", "x = %{1.5 => 1}",
    "x = %{:a => 1, :a => 2}", "if x 1 end", "if x do 1", "if x do 1 else 2",
    "case x 1 -> 2 end", "case x do 1 2 end", "case x do 1 -> 2", "case x do end",
    "case x do 1 -> 2; f(y) -> 3 end", "case x do 1 -> 2 3 -> 4 end", "cond do end",
    "cond do x 1 end", "cond do true -> 1 false -> 2 end", "fn x -> x end",
    "fn (x) x end", "fn (x -> x end", "fn (x) -> x", "x = 1 y = 2", 'x = 1 "s"',
    # patterns, wildcards and pins
    "def f(+) do 1 end", "def f(^1) do 1 end", "def f(%{:a => x, :a => y}) do 1 end",
    "case x do f(y) -> 1 end", "x = _", "_", "x = ^y", "x = ^1", "f(x) = 1",
    "{(a), b} = t", "%{:a => x, :a => y} = m", "def f(x + 1) do 1 end", "fn (g(x)) -> 1 end",
    "{_, f(x)} = t",
    # a caret line padded past a tab, and one under a tab
    "\tx = )", "x = {1,\t2} + 1",
]

# Well-formed one-line files that put a variable, `_`, `^x`, literals, a
# tuple, `[]`, a cons and a map, nested, in every pattern position: `def` and
# `fn` parameters, a first and a later `case` head, and the left of `=`.
PATTERNS = [
    # `def` parameters, untyped and against a `@spec`
    'def f(x, _, {a, [h | t]}, [], %{:k => {v, 1}}, :a, "s", 2.5, true) do x end',
    "@spec f({integer, [float]}, %{:k => integer}) :: integer; "
    "def f({n, [_ | t]}, %{:k => m}) do n + m end",
    "@spec f([integer]) :: integer; def f([]) do 0 end; def f([h | _]) do h end",
    "@spec f(%{:a => integer}) :: integer; def f(%{:a => 1, :b => x}) do x end",
    "@spec f({integer, atom}) :: integer; def f([h | t]) do h end",
    # `fn` parameters, with a pin bound and unbound
    "y = 1; g = fn ({a, _}, [h | t], [], %{1 => x}, ^y, :ok) -> a end; "
    "g.({1, 2}, [3 | []], [], %{1 => 4}, 1, :ok)",
    "g = fn ({a, _}, ^z) -> a end",
    # `case` heads, first and later
    "x = {1, [2 | []], %{:k => 3}}; case x do {a, [b | _], %{:k => c}} -> a + b + c; "
    '[] -> 0; {_, [], ^x} -> 1; [h | t] -> h; %{:k => v} -> v; :a -> 2; "s" -> 3; '
    "1.5 -> 4; false -> 5 end",
    "case [] do [] -> 1; {a, b} -> a; %{true => [x | []]} -> x end",
    # the left of `=`
    "{a, [b | c], [], %{:k => d}, _, 1, :ok} = {1, [2 | []], [], %{:k => 3}, 4, 1, :ok}",
    "x = 1; {^x, [y | _]} = {1, [2 | []]}; y",
    "[a | [b | []]] = [1 | [2 | []]]; %{:k => {c, _}} = %{:k => {a, b}}",
    "{a, b} = [1 | []]",
    "{x, x} = {1, 2.5}",
    # an inner list's element reaches the outer list's `fn` parameter type
    "g = fn ([h | [1 | []]]) -> h end; g + 1",
]

# One-line files in which a statement sequence ends on each of its ends, or
# meets `else` or a declaration where it may not stop.
SEQUENCES = [
    # `else` ends an `if`'s then-branch, after a separator or none
    "x = if true do 1; 2 else 3; 4 end", "x = if true do 1; 2; else 3 end",
    "x = if true do 1 else 2 end; x",
    # a declaration after `;` ends the statements before it, at top level ...
    "x = 1; def f() do 2 end", "x = 1; defmodule M do end",
    "x = 1; @spec f() :: integer; def f() do 2 end", "x = 1;; def f() do 2 end; y = x",
    # ... and in a module
    "defmodule M do x = 1; def f() do 2 end end",
    "defmodule M do x = 1; defmodule N do end end",
    "defmodule M do x = 1; @spec f() :: integer; def f() do 2 end end",
    # `end`, of a `def`, a module, an `fn`, a `case` clause and a `cond` clause
    "def f() do 1; 2; end", "defmodule M do x = 1; end", "g = fn () -> 1; 2; end",
    "case 1 do 1 -> 2; 3; end", "cond do true -> 1; 2; end",
    # the end of the file
    "x = 1; y = 2;", "x = 1; x",
    # `else` or a declaration where no sequence may stop
    "x = 1; else", "x = 1 else", "def f() do 1; else end", "g = fn () -> 1; else end",
    "case 1 do 1 -> 2; else end", "if true do 1 else 2; else 3 end",
    "def f() do 1; def g() do 2 end end", "g = fn () -> 1; def h() do 2 end end",
    "if true do 1; def g() do 2 end end", "case 1 do 1 -> 2; @spec f() :: integer end",
    "x = 1 def f() do 2 end", "defmodule M do x = 1 def f() do 2 end end",
    "defmodule M do x = 1; else end",
    # a binding in a tuple item holds after the tuple, for the statement after it
    'x = 1; {x = "a", 1}; x <> "b"', 'x = 1; {x = "a", 1}; x + 1',
    # a parenthesised sequence is the span of an error
    "if (x = 1; x) do 1 else 2 end", 'y = (a = 1; a) <> "b"',
]

# Well-formed one-line files that send list, tuple, map and function types,
# `any`, `term` and `none` through `fits` (arguments and the body against its
# `@spec`) and through `join` (the branches of an `if`).
TYPES = [
    # function: parameters contravariant in `fits`, met inside a join, higher order
    '@spec ap((integer) -> float, integer) :: float; def ap(g, x) do g.(x) end; '
    'ap(fn (n) -> n <> "s" end, 3)',
    "@spec k((float) -> integer) :: (integer) -> float; def k(f) do f end",
    "@spec k((integer) -> integer) :: (float) -> integer; def k(f) do f end",
    "@spec k((integer) -> integer, (float) -> integer) :: integer; "
    "def k(f, g) do h = if true do f else g end; h.(1.5) end",
    "@spec k((integer) -> integer, (integer) -> float) :: (integer) -> integer; "
    "def k(f, g) do if true do f else g end end",
    "@spec k((string) -> integer, (integer) -> integer) :: (none) -> integer; "
    "def k(f, g) do if true do f else g end end",
    "@spec k(((integer) -> integer) -> integer) :: integer; def k(h) do h.(fn (x) -> x end) end",
    # functions of two arities do not fit each other
    "@spec ap((integer, integer) -> integer) :: integer; def ap(f) do f.(1, 2) end; "
    "ap(fn (x) -> x end)",
    # map: width in `fits`, the shared keys in a join
    "@spec m(%{:a => integer}) :: integer; def m(x) do x[:a] end; m(%{:a => 1, :b => 2.5})",
    "@spec k(%{:a => integer, :b => string}, %{:a => float}) :: %{:b => string}; "
    "def k(a, b) do if true do a else b end end",
    # list and tuple: joined element by element, or to `term` across arities
    "@spec k([integer], [float]) :: [integer]; def k(a, b) do if true do a else b end end",
    "@spec k({integer, :ok}, {float, :error}) :: {float, atom}; "
    "def k(a, b) do if true do a else b end end",
    "@spec k({integer}, {integer, integer}) :: {integer}; "
    "def k(a, b) do if true do a else b end end",
    # `any`, `term` and `none`
    "@spec k(any, [integer]) :: [integer]; def k(a, b) do if true do a else b end end",
    "@spec ap((any) -> integer, [term]) :: {integer, any}; def ap(g, x) do {g.(x), x} end",
    "@spec k([term]) :: [integer]; def k(x) do x end",
    "@spec k(none, [none]) :: {(integer) -> none, [string]}; def k(x, y) do {x, y} end",
]

# Sets of files, `(name, text, padding statements)` each in command-line
# order, and the option lists each set is checked with. Each file is over
# 12,000 bytes (`cli.BATCH_MIN_BYTES`), so that on two CPUs they go to two
# processes, and three files to three processes where there are three CPUs.
SPLITS = {
    "split": ([
        ("a.ex", "defmodule M do\n  @spec f(integer) :: integer\n  def f(x) do x + 1 end\nend\n",
         1_600),
        ("b.ex", "defmodule M do\n  @spec f(integer) :: float\n  def f(x) do x * 1.0 end\n"
                 "  @spec lonely(integer) :: integer\nend\nM.f(\"bad\")\n", 1_400),
    ], [[], ["--format", "json"], ["--dump-sigs"]]),
    "split_worker": ([
        ("a.ex", "defmodule M do\n  @spec f(integer) :: integer\n  def f(x) do x + 1 end\n"
                 "  @spec lonely(integer) :: integer\nend\nM.f(\"bad\")\n", 1_600),
        ("b.ex", "defmodule N do\n  @spec g(integer) :: integer\n  def g(x) do M.f(x) end\nend\n",
         1_400),
    ], [[], ["--format", "json"], ["--strict-warnings"]]),
    "split_clean": ([
        ("a.ex", "defmodule M do\n  @spec f(integer) :: integer\n  def f(x) do x + 1 end\nend\n",
         1_600),
        ("b.ex", "y = M.f(1)\n", 1_400),
    ], [[], ["--format", "json"]]),
    "split_three": ([
        ("a.ex", "defmodule M do\n  @spec f(integer) :: integer\n  def f(x) do x + 1 end\nend\n",
         1_600),
        ("b.ex", "defmodule N do\n  @spec g(integer) :: integer\n  def g(x) do M.f(x) end\n"
                 "  @spec lonely(atom) :: atom\nend\nM.f(\"bad\")\n", 1_400),
        ("c.ex", "defmodule M do\n  @spec f(integer) :: float\n  def f(x) do x * 1.0 end\nend\n"
                 "N.g(:a)\n", 1_300),
    ], [[], ["--format", "json"], ["--dump-sigs"]]),
    "split_last": ([
        ("a.ex", "defmodule M do\n  @spec f(integer) :: integer\n  def f(x) do x + 1 end\n"
                 "  @spec lonely(atom) :: atom\nend\nM.h(1)\n", 1_300),
        ("b.ex", "defmodule N do\n  @spec g(atom) :: atom\n  def g(x) do x end\nend\n"
                 "M.h(:a)\n", 1_400),
        ("c.ex", "defmodule M do\n  @spec f(integer) :: float\n  def f(x) do x * 1.0 end\n"
                 "  @spec h(integer) :: integer\n  def h(x) do x end\nend\n"
                 "defmodule N do\n  @spec g(integer) :: integer\n  def g(x) do x end\nend\n"
                 "M.f(:a)\n", 1_600),
    ], [[], ["--format", "json"], ["--dump-sigs"]]),
}


def invocations(work: Path) -> list[tuple[Path, list[str], dict]]:
    """`(directory to run in, argv, environment variables it adds)` for every
    run, writing generated inputs under `work`."""
    runs = []
    files = sorted(p.relative_to(ROOT).as_posix()
                   for folder in ("corpus", "data") for p in (ROOT / "tests" / folder).glob("*.ex"))
    for name in [*files, "tests/corpus", "tests/data"]:
        runs += [(ROOT, ["check", "--dump-sigs", name]),
                 (ROOT, ["check", "--dump-sigs", "--format", "json", name])]
    runs += [(ROOT, ["parse", name]) for name in files]
    runs += [(ROOT, ["check", "--strict-warnings", "tests/corpus"]),
             (ROOT, ["check", "--no-color", "tests/corpus"]),
             (ROOT, ["check", "tests/corpus", "tests/corpus/wrong_plus.ex"])]
    for workload in (gen.legacy_migration, gen.dense_bodies):
        for seed in (1, 2, 3):
            name = f"{workload.__name__}_{seed}"
            (work / name).mkdir()
            workload(seed).write(work / name)
            runs += [(work, ["check", "--dump-sigs", name]),
                     (work, ["check", "--dump-sigs", "--format", "json", name])]
    (work / "probes").mkdir()
    for name, data in gen.PROBES.items():
        path = work / "probes" / name
        path.write_bytes(data)
        runs += [(work, ["check", f"probes/{name}"]),
                 (work, ["check", "--format", "json", f"probes/{name}"]),
                 (work, ["parse", f"probes/{name}"])]
    for paths in (["probes"], ["probes", "dense_bodies_1"]):
        runs += [(work, ["check", *paths]), (work, ["check", "--format", "json", *paths])]
    for folder, (split, option_lists) in SPLITS.items():
        (work / folder).mkdir()
        for name, text, padding in split:
            (work / folder / name).write_text(text + "n = 1 + 2\n" * padding)
        runs += [(work, ["check", *options, folder]) for options in option_lists]
    for folder, texts in (("malformed", MALFORMED), ("patterns", PATTERNS),
                          ("sequences", SEQUENCES), ("types", TYPES)):
        (work / folder).mkdir()
        for number, text in enumerate(texts):
            name = f"{folder}/{number:02}.ex"
            (work / name).write_text(text + "\n")
            runs += [(work, ["check", name]), (work, ["parse", name])]
    (work / "accent.ex").write_text("x = 1 \u00e9 2\n", encoding="utf-8")
    runs.append((work, ["check", "--format", "json", "accent.ex"]))
    runs = [(cwd, argv, {}) for cwd, argv in runs + [(ROOT, argv) for argv in USAGE_ERRORS]]
    (work / "caret.ex").write_text('x = "\u00e9" + 1\n', encoding="utf-8")
    return runs + [(work, ["check", "caret.ex"], {"PYTHONIOENCODING": encoding})
                   for encoding in ("ascii", "ascii:replace")]


def extc(src: Path, cwd: Path, argv: list[str], extra: dict) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0", "COLUMNS": "80", **extra}
    proc = subprocess.run([sys.executable, "-S", "-c", "from extc.cli import main; main()", *argv],
                          cwd=cwd, env=env, capture_output=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def export(revision: str, into: Path) -> Path:
    """`revision`'s `src/`, unpacked under `into`."""
    archive = subprocess.run(["git", "archive", revision, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter, Python 3.14's default; older tarfiles may lack filters.
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def describe(name: str, old: bytes, new: bytes) -> list[str]:
    diff = difflib.unified_diff(old.decode(errors="replace").splitlines(),
                                new.decode(errors="replace").splitlines(),
                                f"{name} (revision)", f"{name} (working tree)", lineterm="", n=1)
    return ["    " + line for line in list(diff)[:20]]


def main(argv: list[str]) -> int:
    revision = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        base = export(revision, Path(tmp) / "revision")
        work = Path(tmp) / "work"
        work.mkdir()
        runs = invocations(work)
        with ThreadPoolExecutor(max_workers=2) as pool:
            old = list(pool.map(lambda run: extc(base, *run), runs))
            new = list(pool.map(lambda run: extc(ROOT / "src", *run), runs))
    differing = 0
    for (_, args, extra), (old_status, *old_streams), (new_status, *new_streams) in zip(runs, old, new):
        if (old_status, *old_streams) == (new_status, *new_streams):
            continue
        differing += 1
        print(f"{''.join(f'{k}={v} ' for k, v in extra.items())}extc {' '.join(args)}: "
              f"status {old_status} -> {new_status}")
        for name, before, after in zip(("stdout", "stderr"), old_streams, new_streams):
            if before != after:
                print("\n".join(describe(name, before, after)))
    print(f"{len(runs)} invocations, {differing} differ from {revision}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
