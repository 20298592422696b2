import ast
import errno
import gc
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

try:
    import fcntl
except ImportError:  # not on Windows
    fcntl = None

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import reference_cli
from conftest import CORPUS_DIR, DATA_DIR
from extc import checker, cli, signatures
from extc.cli import run
from extc.parser import MAX_NESTING, MAX_TYPE_DEPTH, RECURSION_LIMIT


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus(name):
    return str(CORPUS_DIR / name)


def fresh_main(*argv, **kwargs) -> subprocess.Popen:
    """`argv` through `cli.main` in a fresh interpreter, started, not waited for."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.Popen([sys.executable, "-c", "from extc.cli import main; main()", *argv],
                            env=env, **kwargs)


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


# Words a command line is drawn from: the grammar's, its `=` forms, long
# options abbreviated, path words, and unknown options.
_WORDS = [
    "check", "parse", "--format", "text", "json", "xml", "--strict-warnings", "--dump-sigs",
    "--no-color", "-h", "--help", "--", "-",
    "--format=json", "--format=text", "--format=xml", "--format=", "--help=x", "-h=x", "-hx",
    "--no-color=1", "--form", "--f", "--strict", "--dump", "--no", "--he", "--form=json",
    "a.ex", "tests/corpus", "", "-1", "--bogus", "-x",
]
_LONG_OPTIONS = ("--help", "--format", "--strict-warnings", "--dump-sigs", "--no-color")


def departure(argv: list[str]) -> str | None:
    """The departure from argparse, as CHANGES.md lists them, that may make
    `run` read `argv` otherwise than `tests/reference_cli.py`, or None."""
    options = argv[:argv.index("--")] if "--" in argv else argv  # `--` ends them
    for word in options:
        name, eq, _ = word.partition("=")
        if len(name) > 2 and name not in _LONG_OPTIONS and any(
                option.startswith(name) for option in _LONG_OPTIONS):
            return "a long option abbreviated is an unknown option"
        if re.fullmatch(r"-\d+|-\d*\.\d+", word):
            return "a word that reads as a negative number is an unknown option"
        if eq and name in ("-h", "--help", "--strict-warnings", "--dump-sigs", "--no-color") or (
                word.startswith("-h") and len(word) > 2):
            return "a flag given a value, with `=` or as `-hx`, is an unknown option"
    if "--" in argv[:-1] and all(word[:1] == "-" and word != "-" for word in options):
        return "`--` before the command ends the options, and is not the command"
    return None


def _read(argv: list[str]) -> dict | tuple[int, str, str]:
    """What `run` read from `argv`: the fields it hands to its command, or,
    for help and usage errors, its exit status, stdout and stderr."""
    fields = []
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_run_check", lambda args: fields.append(args) or (0, [])), \
            mock.patch.object(cli, "_run_parse", lambda args: fields.append(args) or (0, [])), \
            redirect_stdout(out), redirect_stderr(err):
        status = run(argv)
    return fields[0] if fields else (status, out.getvalue(), err.getvalue())


class TestCommandLine:
    """`run` reads its command line as argparse read it, with the parser
    that `tests/reference_cli.py` keeps: the same help and usage errors,
    byte for byte at 80 columns, and otherwise the same fields, except where
    `departure` names the reason they differ."""

    @seed(20261020)
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(_WORDS), max_size=7),
           st.sampled_from([[], ["check"], ["parse"]]))
    @example(["--format", "-", "a.ex"], ["check"])
    @example(["--format", "--", "a.ex"], ["check"])
    @example(["a.ex", "--no-color", "--", "tests/corpus"], ["check"])
    @example(["a.ex", "tests/corpus", "--"], ["parse"])
    @example(["a.ex", "--", "--"], ["parse"])
    def test_run_reads_argv_as_argparse_did(self, words, command):
        argv = command + words
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            expected = reference_cli.read(argv)
        if _read(argv) != expected:
            assert departure(argv) is not None, argv

    @pytest.mark.parametrize("argv, status, err", [
        (["check", "--form", "json", "a.ex"], 3, "unrecognized arguments: --form\n"),
        (["check", "a.ex", "--strict"], 3, "unrecognized arguments: --strict\n"),
        (["check", "--dump", "a.ex"], 3, "unrecognized arguments: --dump\n"),
        (["check", "a.ex", "--no"], 3, "unrecognized arguments: --no\n"),
        (["--he"], 3, "the following arguments are required: command\n"),
        (["check", "-1"], 3, "the following arguments are required: paths\n"),
        (["check", "a.ex", "--dump-sigs=1"], 3, "unrecognized arguments: --dump-sigs=1\n"),
        (["check", "-h=x"], 3, "the following arguments are required: paths\n"),
        (["check", "a.ex", "-hh"], 3, "unrecognized arguments: -hh\n"),
        (["--", "check", "a.ex"], None, {"command": "check", "paths": ["a.ex"], "format": "text",
                                         "strict_warnings": False, "dump_sigs": False,
                                         "no_color": False}),
    ])
    def test_each_departure(self, argv, status, err):
        """One command line for each departure, and what `run` reads there."""
        assert departure(argv) is not None
        got = _read(argv)
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            assert got != reference_cli.read(argv)
        if status is None:
            assert got == err
        else:
            assert got[:2] == (status, "") and got[2].endswith(err)

    def test_help_does_not_follow_the_terminal_width(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "40")
        assert invoke(capsys, "check", "--help") == (0, cli.HELP["extc check"] + "\n", "")


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


class TestColor:
    @pytest.mark.parametrize("terminal, flags, colored", [
        (True, [], True), (False, [], False), (True, ["--no-color"], False),
        (False, ["--no-color"], False),
    ], ids=["terminal", "pipe", "terminal-no-color", "pipe-no-color"])
    def test_codes_are_colored_only_on_a_terminal(self, terminal, flags, colored, capsys,
                                                  monkeypatch):
        plain = invoke(capsys, "check", "--no-color", str(CORPUS_DIR))
        monkeypatch.setattr(sys.stdout, "isatty", lambda: terminal)
        status, out, err = invoke(capsys, "check", *flags, str(CORPUS_DIR))
        for severity, color in [("E", 31), ("W", 33), ("I", 36)]:
            assert (f"\x1b[{color}m{severity}_" in out) == colored
        assert (status, re.sub(r"\x1b\[\d+m", "", out), err) == plain


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

        def counting(collector):
            def counted(files):
                calls.append(files)
                return collector(files)
            return counted

        monkeypatch.setattr(cli, "collect", counting(signatures.collect))
        monkeypatch.setattr(checker, "collect_all", counting(signatures.collect_all))
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


# Files whose check depends on each other: calls of typed functions across
# files, with every kind of spec type, a module's `@spec` repeated in a later
# file, a `@spec` with no `def`, and a lex error, a parse error and bytes that
# are not UTF-8.
_SPLIT_FILES = {
    "a.ex": b"defmodule M do\n  @spec f(integer) :: float\n  def f(x) do x * 1.5 end\n"
            b"  @spec k(%{:a => integer, 1 => [float], true => {atom, :ok}}, (any) -> term)"
            b" :: %{:a => integer}\n  def k(m, g) do m end\n"
            b"  @spec g(float) :: float\n  def g(y) do N.h(y) end\nend\nM.f(2.5)\n",
    "b.ex": b"defmodule N do\n  @spec h(float) :: float\n  def h(z) do M.f(z) end\n"
            b"  @spec lonely(atom) :: atom\nend\n"
            b"M.k(%{:a => 1, 1 => [2.5 | []], true => {:x, :ok}}, fn (v) -> v end)\n",
    "c.ex": b"defmodule M do\n  @spec f(integer) :: float\n  def f(x) do x + 0.5 end\nend\n"
            b"x = M.g(1)\n",
    "d.ex": b'x = "a\\zb"\n',
    "e.ex": b"def f( do x end\n",
    "f.ex": b"x = 1\n" * 200 + b"\xe9t\xe9\n",  # the largest: the queue's first
    "g.ex": b'def u(a) do M.f(a) end\nN.h(1)\nM.f("s")\nM.k(%{:b => 1}, 2)\n',
}
_SPLIT_PARSED = {"a.ex", "b.ex", "c.ex", "g.ex"}  # the others stop at a lex or parse error
_SPLIT_ARGS = [[], ["--format", "json"], ["--dump-sigs"], ["--dump-sigs", "--format", "json"]]


def _recording_loads(monkeypatch, record: Path, processes: int = 1):
    """Patches `cli._load` to append `pid name` to the file `record` as each
    process loads a file: a worker's memory is its own. Each process's first
    load then waits until `processes` processes have begun one, so that each
    of them takes a file. Returns a function that gives the names each
    process loaded, by pid."""
    load = cli._load
    record.touch()

    def loaded() -> dict[int, list[str]]:
        found = {}
        for line in record.read_text().splitlines():
            pid, name = line.split(" ", 1)
            found.setdefault(int(pid), []).append(name)
        return found

    def recording_load(name):
        with open(record, "a") as out:
            out.write(f"{os.getpid()} {name}\n")
        deadline = time.monotonic() + 30  # a worker gets no alarm: it ends its own wait
        while len(loaded()) < processes:
            assert time.monotonic() < deadline, "the other processes took no file"
            time.sleep(0.001)
        return load(name)

    monkeypatch.setattr(cli, "_load", recording_load)
    return loaded


def _open_fds():
    """How many descriptors this process holds, or None without `/proc/self/fd`."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a check splits only where os.fork exists")
class TestSplitCheck:
    """A check of several files splits them between processes, one per CPU,
    and prints what one process prints."""

    @pytest.fixture
    def files(self, tmp_path):
        for name, data in _SPLIT_FILES.items():
            (tmp_path / name).write_bytes(data)
        return str(tmp_path)

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the CPUs a check may use, with one byte enough for a process
        and no cgroup quota; lists the forks each check makes. The masks it
        fakes may name CPUs that the machine lacks: a process pinned to
        those stays where it was, silently (`cli._pin`). A split restores
        a faked mask, so this process gets its real one back at the end."""
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(os.getpid())
            return fork()

        def hung(signum, frame):
            raise TimeoutError("the check did not end")

        monkeypatch.setattr(cli, "BATCH_MIN_BYTES", 1)
        monkeypatch.setattr(cli, "CPU_QUOTA_FILES", ())
        monkeypatch.setattr(os, "fork", counting_fork)

        def use(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
            forks.clear()
            return forks

        handler = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        pin = getattr(os, "sched_setaffinity", None)  # before a test replaces it
        real = os.sched_getaffinity(0) if pin else None
        try:
            yield use
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
            if pin:
                pin(0, real)

    @pytest.mark.parametrize("args", _SPLIT_ARGS, ids=["text", "json", "sigs", "sigs-json"])
    def test_output_does_not_depend_on_the_split(self, args, files, cpus, capsys):
        outputs = {}
        for count in (1, 2, 3):
            forks = cpus(count)
            outputs[count] = invoke(capsys, "check", files, *args)
            assert len(forks) == count - 1
        assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
        code, out, err = outputs[1]
        assert code == 2 and (err == "") == ("--dump-sigs" not in args or "json" not in args)
        for found in ("E_DUP_SPEC", "W_SPEC_NO_DEF", "E_LEX", "E_PARSE", "E_TYPE_MISMATCH",
                      "I_UNTYPED_DEF"):
            assert found in out

    def test_workers_color_as_the_parent_decided(self, files, cpus, capsys, monkeypatch,
                                                 tmp_path):
        """Only the parent asks whether stdout is a terminal: here a worker
        that asked would be told no, and print its files without colour. The
        worker takes at least one file, and each file has a diagnostic."""
        parent = os.getpid()
        monkeypatch.setattr(sys.stdout, "isatty", lambda: os.getpid() == parent)
        cpus(1)
        alone = invoke(capsys, "check", files)
        forks = cpus(2)
        loaded = _recording_loads(monkeypatch, tmp_path / "loads", 2)
        assert invoke(capsys, "check", files) == alone
        assert len(forks) == 1 and len(loaded()) == 2
        assert "\x1b[31mE_LEX\x1b[0m" in alone[1]

    @pytest.mark.parametrize("args", [[], ["--format", "json"]], ids=["text", "json"])
    def test_a_worker_sends_its_own_files_rendered(self, args, files, cpus, capsys, monkeypatch,
                                                   tmp_path):
        """A worker sends the declarations of the files it took that parsed,
        then `(file, block, codes)` for each file it took, as each has
        diagnostics here: no file's text, and nothing about the parent's
        files. Each process takes at least one file, and each file is taken
        by one process."""
        cpus(2)
        names = cli._gather_files([files])
        loaded = _recording_loads(monkeypatch, tmp_path / "loads", 2)
        received = []
        original = cli._receive

        def receive(stream):
            received.append(original(stream))
            return received[-1]

        monkeypatch.setattr(cli, "_receive", receive)
        _, out, _ = invoke(capsys, "check", *args, files)
        declared, blocks = received
        taken = loaded()
        parent = taken.pop(os.getpid())
        (worker,) = taken.values()
        assert parent and worker and sorted(parent + worker) == sorted(names)
        assert {names[i] for i in declared} == {n for n in worker if Path(n).name in _SPLIT_PARSED}
        assert [file for file, _, _ in blocks] == sorted(worker)
        texts = {(Path(files) / name).read_bytes().decode(errors="replace")
                 for name in _SPLIT_FILES}
        for file, block, codes in blocks:
            assert type(file) is str and type(block) is str and block not in texts
            assert block in out and codes and all(type(c) is str for c in codes)
            if not args:
                assert codes == re.findall(rf"^{re.escape(file)}:\d+:\d+ (\w+) ", block, re.M)
            else:
                assert codes == re.findall(r'"code": "(\w+)"', block)

    def test_a_small_input_stays_in_one_process(self, files, cpus, capsys, monkeypatch):
        forks = cpus(2)
        monkeypatch.setattr(cli, "BATCH_MIN_BYTES", sum(map(len, _SPLIT_FILES.values())) // 2 + 1)
        invoke(capsys, "check", files)
        assert forks == []

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="pinning needs at least two CPUs to share")
    def test_each_process_checks_on_cpus_of_its_own(self, files, cpus, capsys, monkeypatch,
                                                    tmp_path):
        """The processes of a split check on disjoint shares of the real
        mask, which each records as it checks: a worker to a file, as its
        list is a copy. The parent has its whole mask back after `run`."""
        real, parent, check = os.sched_getaffinity, os.getpid(), cli._check
        mask = real(0)
        forks = cpus(len(mask))
        monkeypatch.setattr(os, "sched_getaffinity", real)
        masks, record = [], tmp_path / "masks"

        def recording_check(*args):
            now = sorted(os.sched_getaffinity(0))
            if os.getpid() == parent:
                masks.append(now)
            else:
                with open(record, "a") as out:
                    out.write(f"{now}\n")
            return check(*args)

        monkeypatch.setattr(cli, "_check", recording_check)
        assert invoke(capsys, "check", files)[0] == 2
        after = os.sched_getaffinity(0)
        masks += [ast.literal_eval(line) for line in record.read_text().splitlines()]
        assert len(masks) == len(forks) + 1 == min(len(mask), len(_SPLIT_FILES))
        assert all(masks) and len({cpu for m in masks for cpu in m}) == sum(map(len, masks))
        assert after == mask

    @pytest.mark.parametrize("pin", ["refused", "missing"])
    def test_a_refused_pin_leaves_the_output_alone(self, pin, files, cpus, capsys, monkeypatch):
        """Where `os.sched_setaffinity` raises, or where the platform lacks
        it, each process checks where the kernel puts it."""
        def refusing(pid, cpus):
            raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

        if pin == "refused":
            monkeypatch.setattr(os, "sched_setaffinity", refusing, raising=False)
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        outputs = []
        for count in (1, 2, 3):
            forks = cpus(count)
            outputs.append(invoke(capsys, "check", files))
            assert len(forks) == count - 1
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_the_parent_pins_its_share_and_then_its_whole_mask(self, files, cpus, capsys,
                                                               monkeypatch):
        """The parent, process 0 of 3, runs on CPU 0 of 0-2 from its last fork
        until it has reaped its workers: a worker forked after the pin would
        start on the parent's CPU. A check that stays in one process pins
        nothing. Forks and pins go into one list, in the order made."""
        calls = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, cpus)),
                            raising=False)
        forks = cpus(1)
        fork = os.fork

        def logged_fork():
            calls.append("fork")
            return fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        invoke(capsys, "check", files)
        forks = cpus(3)
        monkeypatch.setattr(cli, "BATCH_MIN_BYTES", sum(map(len, _SPLIT_FILES.values())) // 2 + 1)
        invoke(capsys, "check", files)
        assert forks == [] and calls == []
        monkeypatch.setattr(cli, "BATCH_MIN_BYTES", 1)
        invoke(capsys, "check", files)
        assert len(forks) == 2 and calls == ["fork", "fork", (0, [0]), (0, [0, 1, 2])]

    def test_a_check_beside_another_thread_stays_in_one_process(self, files, cpus, capsys):
        forks = cpus(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            invoke(capsys, "check", files)
        finally:
            release.set()
            other.join(timeout=60)
        assert forks == [] and not other.is_alive()

    def test_batches_keep_the_order_and_weigh_alike(self, tmp_path, monkeypatch):
        """A split's processes take the largest file first, and files of one
        size in command-line order; one process takes them in command-line
        order. There is a process per CPU, but no more than files."""
        sizes = [5, 40, 20, 30, 20, 1]  # two files of 20 bytes
        names = []
        for number, size in enumerate(sizes):
            names.append(str(tmp_path / f"{number}.ex"))
            Path(names[-1]).write_text("x" * size)
        monkeypatch.setattr(cli, "CPU_QUOTA_FILES", ())
        monkeypatch.setattr(cli, "BATCH_MIN_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert cli._batches(names) == (2, [1, 3, 2, 4, 0, 5])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._batches(names) == (1, [0, 1, 2, 3, 4, 5])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert cli._batches(names) == (6, [1, 3, 2, 4, 0, 5])  # a process per file
        assert cli._batches(names[:1]) == (1, [0])

    @pytest.mark.parametrize("least, batches", [
        (35, (3, [1, 3, 4, 2, 0, 5])), (36, (2, [1, 3, 4, 2, 0, 5])),
        (53, (2, [1, 3, 4, 2, 0, 5])), (54, (1, [0, 1, 2, 3, 4, 5])),
    ])
    def test_each_batch_gets_its_share_of_bytes(self, least, batches, tmp_path, monkeypatch):
        """Many CPUs split a small input between no more processes than
        `BATCH_MIN_BYTES` goes into it: 106 bytes go to 3 processes of 35
        bytes at least, 2 of 36 or 53, and 1 of 54."""
        names = []
        for number, size in enumerate([5, 40, 10, 30, 20, 1]):  # 106 bytes
            names.append(str(tmp_path / f"{number}.ex"))
            Path(names[-1]).write_text("x" * size)
        monkeypatch.setattr(cli, "CPU_QUOTA_FILES", ())
        monkeypatch.setattr(cli, "BATCH_MIN_BYTES", least)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert cli._batches(names) == batches

    @pytest.mark.parametrize("quotas, cpus", [
        ([], 8), (["max 100000\n"], 8), (["150000 100000\n"], 2), (["800000 100000\n"], 8),
        (["-1\n", "100000\n"], 8), (["50000\n", "100000\n"], 1),
        (["max 100000\n", "-1\n", "100000\n"], 8), (["300000 100000\n", "-1\n", "100000\n"], 3),
    ], ids=["none", "v2-max", "v2", "v2-above", "v1-none", "v1", "both-none", "both"])
    def test_a_cgroup_cpu_quota_bounds_the_cpus(self, quotas, cpus, tmp_path, monkeypatch):
        """cgroup v2 states `quota period` in one file, v1 each in its own."""
        written = []
        for number, text in enumerate(quotas):
            written.append(str(tmp_path / str(number)))
            Path(written[-1]).write_text(text)
        files = (("/nonexistent/cpu.max",),)
        if len(written) % 2:
            files = ((written.pop(0),),)
        files += (tuple(written) or ("/nonexistent/quota", "/nonexistent/period"),)
        monkeypatch.setattr(cli, "CPU_QUOTA_FILES", files)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert cli._cpus() == cpus

    def test_no_worker_outlives_the_check(self, files, cpus, capsys):
        cpus(3)
        invoke(capsys, "check", files)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_holds_none_of_the_parents_pipe_ends(self, files, cpus, capsys, monkeypatch,
                                                          tmp_path):
        """Before it loads a file, each worker has closed the ends that the
        parent keeps of every pipe made so far, its own and the earlier
        workers', and the write end of the queue, whose read end it shares.
        A worker's failed assertion reaches the parent as a `RuntimeError`.
        Nothing opens a descriptor between the worker's closing and its
        first `_load`, so no closed number is reused yet. Each of the three
        processes takes a file."""
        parent, pipe = os.getpid(), os.pipe
        made = []  # each process keeps the pipes made before it forked: the queue, then a worker's
        loaded = _recording_loads(monkeypatch, tmp_path / "loads", 3)
        load, checked = cli._load, []

        def recording_pipe():
            made.append(pipe())
            return made[-1]

        def loading(name):
            if os.getpid() != parent and not checked:  # before `load` opens a file
                checked.append(name)
                (reader, writer), *theirs = made
                os.fstat(reader)
                # the parent reads from a worker, then writes to it
                for fd in [writer, *(ends[k % 2] for k, ends in enumerate(theirs))]:
                    with pytest.raises(OSError) as closed:
                        os.fstat(fd)
                    assert closed.value.errno == errno.EBADF
            return load(name)

        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(cli, "_load", loading)
        forks = cpus(3)
        assert invoke(capsys, "check", files)[0] == 2
        assert (len(forks), len(made), len(loaded())) == (2, 5, 3)

    @pytest.mark.parametrize("call, count, fails, error, forked", [
        ("fork", 3, 2, errno.EAGAIN, 1), ("pipe", 2, 2, errno.EMFILE, 0),
        ("pipe", 2, 1, errno.EMFILE, 0),
    ], ids=["fork", "pipe", "queue"])
    def test_a_worker_that_cannot_start_leaves_its_batch_here(
            self, call, count, fails, error, forked, files, cpus, capsys, monkeypatch):
        """`os.fork` fails for the second of two workers, `os.pipe` for the
        only worker's first pipe, after the queue's, or for the queue: fewer
        processes take the files, the parent all of them when no worker
        starts, from the queue or with no queue at all. They print what one
        process prints, and the parent closes the pipes it made. A pipe end is
        a raw descriptor, whose leak raises no `ResourceWarning`, so the
        descriptors are counted, where `/proc/self/fd` lists them."""
        cpus(1)
        alone = invoke(capsys, "check", files)
        forks = cpus(count)
        original, calls = getattr(os, call), []

        def failing(*args):
            calls.append(args)
            if len(calls) == fails:
                raise OSError(error, os.strerror(error))
            return original(*args)

        monkeypatch.setattr(os, call, failing)
        fds = _open_fds()
        assert invoke(capsys, "check", files) == alone
        assert (len(calls), len(forks), _open_fds()) == (fails, forked, fds)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("sends", [0, 1], ids=["before-declarations", "after-swap"])
    def test_a_worker_that_ends_without_an_answer(self, sends, files, cpus, capsys, monkeypatch):
        """A worker that exits before it sends its declarations, or after the
        swap and before its diagnostics, fails the check at the parent's next
        read, with nothing printed and no child left."""
        cpus(2)
        parent, send, receive = os.getpid(), cli._send, cli._receive
        sent, received = [], []  # each process fills its own copy

        def ending_send(stream, value):
            if os.getpid() != parent:
                if len(sent) == sends:
                    os._exit(0)
                sent.append(value)
            send(stream, value)

        def counting_receive(stream):
            received.append(receive(stream))
            return received[-1]

        monkeypatch.setattr(cli, "_send", ending_send)
        monkeypatch.setattr(cli, "_receive", counting_receive)
        with pytest.raises(EOFError, match="^a check worker ended without an answer$"):
            run(["check", files])
        assert len(received) == sends
        assert capsys.readouterr() == ("", "")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("where", ["worker", "parent"])
    def test_a_failing_process_fails_the_check(self, where, files, cpus, capsys, monkeypatch):
        cpus(2)
        parent = os.getpid()

        def failing_check(programs, collected):
            if (os.getpid() == parent) == (where == "parent"):
                raise ZeroDivisionError("checker broke")
            return checker.check_programs(programs, collected)

        monkeypatch.setattr(cli, "check_programs", failing_check)
        with pytest.raises((RuntimeError, ZeroDivisionError)) as failure:
            run(["check", files])
        if where == "worker":
            message = str(failure.value)
            assert failure.type is RuntimeError and "a check worker failed" in message
            assert "in failing_check" in message
            assert message.endswith("ZeroDivisionError: checker broke")
        else:
            assert failure.type is ZeroDivisionError
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert capsys.readouterr() == ("", "")

    def test_workers_end_when_the_parent_is_killed(self, files):
        """The parent dies as it starts to take files, before it has written
        the queue: its death closes the queue's last write end, so its
        workers see the queue end, then their writes fail and they exit.
        They hold the captured output pipes, so `run` returns only once
        every worker has ended."""
        code = ("import os, signal, extc.cli as cli\n"
                "cli.BATCH_MIN_BYTES, cli.CPU_QUOTA_FILES = 1, ()\n"
                "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                "parent, take = os.getpid(), cli._take\n"
                "def dying(queue, order):\n"
                "    if os.getpid() == parent:\n"
                "        os.kill(parent, signal.SIGKILL)\n"
                "    return take(queue, order)\n"
                "cli._take = dying\n"
                "cli.main()\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, "check", files], env=env,
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (-signal.SIGKILL, b"", b"")

    def test_a_slow_parent_leaves_the_other_files_to_the_worker(self, files, cpus, capsys,
                                                                monkeypatch, tmp_path):
        """While the parent's first load sleeps for a second, the worker takes
        every other file from the queue; the output is what one process prints."""
        cpus(1)
        alone = invoke(capsys, "check", files)
        forks = cpus(2)
        loaded = _recording_loads(monkeypatch, tmp_path / "loads")
        load, parent, slept = cli._load, os.getpid(), []

        def slow(name):
            if os.getpid() == parent and not slept:
                slept.append(name)
                time.sleep(1)
            return load(name)

        monkeypatch.setattr(cli, "_load", slow)
        assert invoke(capsys, "check", files) == alone
        taken = loaded()
        mine = taken.pop(parent, [])
        assert len(forks) == 1 and mine == slept
        assert [len(theirs) for theirs in taken.values()] == [len(_SPLIT_FILES) - len(mine)]

    def test_more_processes_than_cpus_take_each_file_once(self, cpus, capsys, monkeypatch,
                                                          tmp_path):
        """Eight processes share the queue of 400 files, on however few CPUs
        there are: each file is loaded once, by one process, and the output
        is what one process prints."""
        (tmp_path / "files").mkdir()
        for number in range(400):
            text = 'x = 1 + "s"\n' if number % 10 == 0 else "x = 1\n" * (number % 7 + 1)
            (tmp_path / "files" / f"{number:03}.ex").write_text(text)
        cpus(1)
        alone = invoke(capsys, "check", str(tmp_path / "files"))
        forks = cpus(8)
        loaded = _recording_loads(monkeypatch, tmp_path / "loads")
        assert invoke(capsys, "check", str(tmp_path / "files")) == alone
        names = [name for taken in loaded().values() for name in taken]
        assert len(forks) == 7 and sorted(names) == cli._gather_files([str(tmp_path / "files")])

    @pytest.mark.skipif(fcntl is None or not hasattr(fcntl, "F_SETPIPE_SZ"),
                        reason="a pipe's size is set with Linux's F_SETPIPE_SZ")
    @pytest.mark.parametrize("started", [1, 0], ids=["worker", "no-worker"])
    def test_a_queue_longer_than_a_pipe_holds(self, started, cpus, capsys, monkeypatch, tmp_path):
        """Every pipe holds one page here, and the queue is 500 numbers
        longer: the parent's first write into it stops short, not blocked,
        and the check prints what one process prints, also when no worker
        starts to read the queue."""
        page = os.sysconf("SC_PAGESIZE")
        for number in range(page // 4 + 500):
            text = 'x = 1 + "s"\n' if number % 100 == 0 else "x = 1\n"
            (tmp_path / f"{number:05}.ex").write_text(text)
        cpus(1)
        alone = invoke(capsys, "check", str(tmp_path))
        assert alone[0] == 1
        forks = cpus(2)
        pipe, write, parent, written = os.pipe, os.write, os.getpid(), []

        def small_pipe():
            ends = pipe()
            assert fcntl.fcntl(ends[1], fcntl.F_SETPIPE_SZ, page) == page
            return ends

        def recording_write(fd, data):
            count = write(fd, data)
            if os.getpid() == parent:
                written.append((len(data), count))
            return count

        def failing_fork():
            forks.append(os.getpid())
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "pipe", small_pipe)
        monkeypatch.setattr(os, "write", recording_write)
        if not started:
            monkeypatch.setattr(os, "fork", failing_fork)
        assert invoke(capsys, "check", str(tmp_path)) == alone
        assert len(forks) == 1 and written[0] == ((page // 4 + 500) * 4, page)

    def test_a_failing_worker_ends_the_process(self, files):
        code = ("import os, sys, extc.cli as cli\n"
                "cli.BATCH_MIN_BYTES, cli.CPU_QUOTA_FILES = 1, ()\n"
                "parent, check = os.getpid(), cli.check_programs\n"
                "def failing(programs, collected):\n"
                "    if os.getpid() != parent:\n"
                "        raise ZeroDivisionError('checker broke')\n"
                "    return check(programs, collected)\n"
                "cli.check_programs = failing\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "cli.main()\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code, "check", files], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "a check worker failed" in proc.stderr
        assert "ZeroDivisionError: checker broke" in proc.stderr


class TestRepeatedPaths:
    """A file is checked once however often it is named: a second check
    would report each of its specs as E_DUP_SPEC and each diagnostic twice."""

    @pytest.mark.parametrize("name", ["ok_func_spec.ex", "err_dup_spec.ex", "wrong_plus.ex"])
    def test_a_file_named_twice(self, name, capsys):
        assert invoke(capsys, "check", corpus(name), corpus(name)) == \
            invoke(capsys, "check", corpus(name))

    def test_a_file_also_reached_through_its_directory(self, capsys):
        once = invoke(capsys, "check", str(CORPUS_DIR))
        assert once[0] == 1
        assert invoke(capsys, "check", str(CORPUS_DIR), corpus("ok_func_spec.ex")) == once
        assert invoke(capsys, "check", str(CORPUS_DIR), str(CORPUS_DIR)) == once

    def test_the_first_spelling_names_the_file(self, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.ex").write_text('3 + "hi"\n')
        other = str(tmp_path / "sub" / ".." / "a.ex")
        code, out, _ = invoke(capsys, "check", other, str(tmp_path / "a.ex"))
        assert code == 1 and out.count("E_TYPE_MISMATCH") == 1
        assert out.startswith(f"{other}:1:5 ")


_SPEC_F = "@spec f(integer) :: integer\ndef f(x) do x end\n"


def _files_reported(out: str) -> list[str]:
    """The file of each diagnostic line in text output, in order."""
    return [line.split(":")[0] for line in out.splitlines() if " E_" in line]


class TestFileDiscovery:
    """Which files a directory argument finds, in which order, and how their
    names are spelled: as `sorted(Path(arg).rglob("*.ex"))` has them."""

    def test_files_sort_by_path_components(self, tmp_path, capsys):
        # A string sort puts "a-b/x.ex" first ("-" < "/"); by components
        # "a" < "a-b", so the spec in a/b.ex is the first and a-b/x.ex repeats it.
        for name in ("a/b.ex", "a-b/x.ex"):
            (tmp_path / name).parent.mkdir()
            (tmp_path / name).write_text(_SPEC_F)
        code, out, _ = invoke(capsys, "check", str(tmp_path))
        assert code == 1
        assert _files_reported(out) == [str(tmp_path / "a-b" / "x.ex")]
        assert "E_DUP_SPEC" in out

    @pytest.mark.parametrize("arg, files", [
        ("./d/", ["d/e.ex", "d/s/f.ex"]),
        ("d//", ["d/e.ex", "d/s/f.ex"]),
        ("d/./s", ["d/s/f.ex"]),
        ("d/../d", ["d/../d/e.ex", "d/../d/s/f.ex"]),
        (".", ["d/e.ex", "d/s/f.ex", "x.ex"]),
        ("./x.ex", ["x.ex"]),
    ])
    def test_names_are_spelled_as_pathlib_spells_them(self, arg, files, tmp_path,
                                                      capsys, monkeypatch):
        (tmp_path / "d" / "s").mkdir(parents=True)
        for name in ("x.ex", "d/e.ex", "d/s/f.ex"):
            (tmp_path / name).write_text('3 + "hi"\n')
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(capsys, "check", arg)
        assert code == 1
        assert _files_reported(out) == files

    def test_parse_spells_the_name_as_pathlib_does(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "x.ex").write_text("1\n")
        monkeypatch.chdir(tmp_path)
        code, out, _ = invoke(capsys, "parse", "./x.ex")
        assert code == 0 and out.startswith("Program path='x.ex'\n")

    def test_symlinked_directory_is_not_descended(self, tmp_path, capsys):
        (tmp_path / "real").mkdir()
        (tmp_path / "real" / "a.ex").write_text('3 + "hi"\n')
        (tmp_path / "top").mkdir()
        (tmp_path / "top" / "b.ex").write_text('3 + "hi"\n')
        (tmp_path / "top" / "link").symlink_to(tmp_path / "real")
        code, out, _ = invoke(capsys, "check", str(tmp_path / "top"))
        assert code == 1
        assert _files_reported(out) == [str(tmp_path / "top" / "b.ex")]

    def test_symlinked_file_is_checked(self, tmp_path, capsys):
        (tmp_path / "real.txt").write_text('3 + "hi"\n')
        (tmp_path / "top").mkdir()
        (tmp_path / "top" / "z.ex").symlink_to(tmp_path / "real.txt")
        code, out, _ = invoke(capsys, "check", str(tmp_path / "top"))
        assert code == 1
        assert _files_reported(out) == [str(tmp_path / "top" / "z.ex")]

    def test_hidden_files_and_directories_are_checked(self, tmp_path, capsys):
        (tmp_path / ".hid").mkdir()
        for name in (".h.ex", ".hid/a.ex"):
            (tmp_path / name).write_text('3 + "hi"\n')
        code, out, _ = invoke(capsys, "check", str(tmp_path))
        assert code == 1
        assert _files_reported(out) == [str(tmp_path / ".h.ex"), str(tmp_path / ".hid" / "a.ex")]

    def test_a_deep_tree_is_walked_without_recursion(self, tmp_path):
        """A directory 300 levels down is found with room for only 100 more
        frames on the stack: before Python 3.12, `os.walk` would take a frame
        per level."""
        deep = tmp_path.joinpath(*["d"] * 300)
        deep.mkdir(parents=True)
        (deep / "a.ex").write_text("1\n")
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            found = cli._ex_files(str(tmp_path))
        finally:
            sys.setrecursionlimit(limit)
        assert found == [str(deep / "a.ex")]


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
        node, count = {"long_body.ex": ("Block", 1), "long_sum.ex": ("BinOp", 1499)}[name]
        assert out.count(f" {node}") == count
        if name == "long_body.ex":
            # The 1,201 statements dump side by side, under one `Block`.
            assert max(len(line) - len(line.lstrip(" ")) for line in out.splitlines()) <= 20

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

    @pytest.mark.parametrize("entry", ["directory", "dangling_symlink"])
    def test_entries_that_are_not_files_are_skipped(self, entry, tmp_path, capsys):
        (tmp_path / "a.ex").write_text('3 + "hi"\n')
        if entry == "directory":
            (tmp_path / "x.ex").mkdir()
        else:
            (tmp_path / "b.ex").symlink_to(tmp_path / "missing.ex")
        alone = invoke(capsys, "check", str(tmp_path / "a.ex"))
        assert alone[0] == 1
        assert invoke(capsys, "check", str(tmp_path)) == alone

    @pytest.mark.parametrize("command", ["check", "parse"])
    def test_unreadable_file_is_a_lex_error(self, command, tmp_path, capsys, monkeypatch):
        path = tmp_path / "locked.ex"
        path.write_text("x = 1\n")

        def refuse(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", file)

        # `_load` reads through `open`; a chmod would not stop a root user reading.
        monkeypatch.setattr(cli, "open", refuse, raising=False)
        code, out, err = invoke(capsys, command, str(path))
        assert code == 2
        header = f"{path}:1:1 E_LEX cannot read file: Permission denied\n"
        assert (out if command == "check" else err) == header

    def test_crlf_line_endings_read_as_newlines(self, tmp_path, capsys):
        path = tmp_path / "lines.ex"
        path.write_bytes(b'x = 1\n3 + "hi"\n')
        unix = invoke(capsys, "check", str(path))
        path.write_bytes(b'x = 1\r\n3 + "hi"\r')
        assert invoke(capsys, "check", str(path)) == unix
        assert unix[1].startswith(f"{path}:2:5 E_TYPE_MISMATCH")


def _copies(root, count):
    """`count` copies of the corpus and the data files under `root`."""
    for i in range(count):
        shutil.copytree(CORPUS_DIR, root / f"corpus{i}")
        shutil.copytree(DATA_DIR, root / f"data{i}")
    return str(root)


def _cyclic_garbage(argv):
    """Run `argv` with the collector off; return the unreachable objects that
    one full collection then finds."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            run(argv)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(0)
        gc.enable()


class TestCycleGate:
    """`cli.main` turns the collector off for the whole command, which is safe
    only while a check leaves no cyclic garbage that grows with its input,
    and no `extc` object in a cycle at all."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cyclic_garbage_does_not_grow_with_the_input(self, fmt, tmp_path):
        found = []
        for count in (1, 3):
            paths = _copies(tmp_path / f"x{count}", count)
            garbage = _cyclic_garbage(["check", paths, "--format", fmt])
            assert [g for g in garbage if type(g).__module__.startswith("extc.")] == []
            found.append(len(garbage))
        assert found[0] == found[1]


class TestEntryPoint:
    @pytest.fixture
    def exits(self, monkeypatch):
        """Statuses `main` exits with: `os._exit` and `sys.exit` both raise
        SystemExit, and the collector is on again afterwards."""
        statuses = []

        def recorder(kind):
            def exit_(status):
                statuses.append((kind, status))
                raise SystemExit(status)
            return exit_

        monkeypatch.setattr(cli.os, "_exit", recorder("hard"))
        monkeypatch.setattr(cli.sys, "exit", recorder("soft"))
        yield statuses
        gc.enable()

    def test_main_runs_the_command_with_the_collector_off(self, exits, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", lambda: seen.append(gc.isenabled()) or 1)
        with pytest.raises(SystemExit):
            cli.main()
        assert seen == [False]
        assert exits == [("hard", 1)]

    @pytest.mark.parametrize("error, status, line", [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), 1, ""),
        (OSError(errno.ENOSPC, "No space left on device"), 2,
         "extc: error: cannot write output: No space left on device\n"),
    ], ids=["broken-pipe", "full-device"])
    def test_run_turns_a_failing_flush_into_the_status(self, error, status, line, capsys,
                                                        monkeypatch):
        class Unflushable(io.StringIO):
            def flush(self):
                raise error

        monkeypatch.setattr(sys, "stdout", Unflushable())
        assert run(["check", corpus("wrong_plus.ex")]) == status
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_as_it_found_it(self, enabled, capsys):
        if not enabled:
            gc.disable()
        try:
            invoke(capsys, "check", str(CORPUS_DIR))
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_process_output_matches_run(self, fmt, tmp_path, capsys):
        argv = ["check", str(CORPUS_DIR), "--format", fmt]
        code, out, _ = invoke(capsys, *argv)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        stdout = tmp_path / "stdout"
        with stdout.open("wb") as sink:
            proc = subprocess.run(
                [sys.executable, "-c", "from extc.cli import main; main()", *argv],
                stdout=sink, stderr=subprocess.PIPE, env=env, timeout=60)
        assert proc.returncode == code
        assert proc.stderr == b""
        assert stdout.read_bytes() == out.encode()


class TestOutputErrors:
    """Writing the output may fail. A reader that closes the pipe ends it
    quietly with the verdict's status; any other failure is one line on
    stderr and status 2."""

    @pytest.fixture
    def many_errors(self, tmp_path):
        """A file of 1,000 failing clauses, whose report (168 KB as text)
        outgrows a pipe's buffer, so that writing fails inside `run`."""
        path = tmp_path / "many.ex"
        path.write_text("".join(f"@spec f{i}(integer) :: integer\ndef f{i}(x) do x + :a end\n"
                                for i in range(1000)))
        return str(path)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_closed_pipe_ends_the_output_quietly(self, fmt, many_errors):
        for argv, status in [(["check", corpus("ok_func_spec.ex")], 0),
                             (["check", many_errors], 1)]:
            proc = fresh_main(*argv, "--format", fmt, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
            proc.stdout.close()
            with proc.stderr:
                err = proc.stderr.read()
            assert proc.wait(timeout=60) == status
            assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_full_device_is_one_error_line(self, fmt, many_errors):
        line = f"extc: error: cannot write output: {os.strerror(errno.ENOSPC)}\n".encode()
        sigs = ["--dump-sigs"] if fmt == "text" else []  # a clean check has text to write
        for path in (corpus("ok_func_spec.ex"), many_errors):  # fails in the flush, in `run`
            with open("/dev/full", "wb") as full:
                proc = fresh_main("check", path, "--format", fmt, *sigs,
                                  stdout=full, stderr=subprocess.PIPE)
                _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (2, line)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_full_device_fails_the_unbuffered_help(self, monkeypatch):
        """Unbuffered, the help's own write fails, and is not swallowed."""
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        line = f"extc: error: cannot write output: {os.strerror(errno.ENOSPC)}\n".encode()
        with open("/dev/full", "wb") as full:
            proc = fresh_main("--help", stdout=full, stderr=subprocess.PIPE)
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, line)

    @pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                        reason="no /dev/full or /proc/self/fd")
    def test_failed_writes_leave_no_descriptor_open(self, capsys):
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            with open("/dev/full", "w") as full, redirect_stdout(full):
                assert run(["check", str(CORPUS_DIR)]) == 2
        assert len(os.listdir("/proc/self/fd")) == before
        assert capsys.readouterr().err.count("cannot write output") == 5


class TestUnencodableOutput:
    """A character that stdout's encoding lacks is written as a backslash
    escape, as Python's own stderr writes it; the rest keeps its bytes. The
    caret line has as many spaces or carets under it as its escape has
    characters, on either stream."""

    @staticmethod
    def _ascii_run(tmp_path, monkeypatch, source: str, *argv,
                   encoding="ascii") -> tuple[int, bytes, bytes]:
        (tmp_path / "e.ex").write_text(source, encoding="utf-8")
        monkeypatch.setenv("PYTHONIOENCODING", encoding)
        proc = fresh_main(*argv, "e.ex", cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        return proc.returncode, out, err

    def test_a_character_outside_the_encoding(self, tmp_path, monkeypatch):
        status, out, err = self._ascii_run(tmp_path, monkeypatch, 'x = "é" + 1\n', "check")
        assert (status, err) == (1, b"")
        assert out == (b'e.ex:1:5 E_TYPE_MISMATCH expression has type string, expected float\n'
                       b'  1 | x = "\\xe9" + 1\n'
                       b"          ^^^^^^\n"
                       b"  expected: float\n"
                       b"  actual:   string\n")

    def test_an_escape_before_the_span_widens_the_pad(self, tmp_path, monkeypatch):
        status, out, err = self._ascii_run(tmp_path, monkeypatch, 'x = {"é", "a" + 1}\n', "check")
        assert (status, err) == (1, b"")
        assert out.splitlines()[1:3] == [b'  1 | x = {"\\xe9", "a" + 1}', b" " * 19 + b"^^^"]

    def test_a_replacing_handler_keeps_the_carets_under_what_it_writes(self, tmp_path,
                                                                      monkeypatch):
        """A stream that replaces what it cannot encode, rather than raise,
        is laid out as it writes: `?` for `é`, under 3 carets."""
        status, out, err = self._ascii_run(tmp_path, monkeypatch, 'x = "é" + 1\n', "check",
                                           encoding="ascii:replace")
        assert (status, err) == (1, b"")
        assert out.splitlines()[1:3] == [b'  1 | x = "?" + 1', b" " * 10 + b"^^^"]

    def test_an_escape_on_stderr_widens_the_pad(self, tmp_path, monkeypatch):
        """`extc parse` writes its error to stderr, which escapes by itself."""
        status, out, err = self._ascii_run(tmp_path, monkeypatch, 'x = "é" + )\n', "parse")
        assert (status, out) == (2, b"")
        assert err == (b"e.ex:1:11 E_PARSE expected an expression, found ')'\n"
                       b'  1 | x = "\\xe9" + )\n' + b" " * 19 + b"^\n")

    def test_a_file_name_that_is_not_utf8(self, tmp_path, capsys, monkeypatch):
        """The name is spelled as `--format json` spells it."""
        try:
            (tmp_path / os.fsdecode(b"bad\xff.ex")).write_text("x = 1 + :a\n")
        except (OSError, UnicodeError):
            pytest.skip("the file system takes no such name")
        monkeypatch.setenv("PYTHONIOENCODING", "utf-8")
        proc = fresh_main("check", ".", cwd=tmp_path, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")
        assert out == (b"bad\\udcff.ex:1:9 E_TYPE_MISMATCH expression has type :a, expected float\n"
                       b"  1 | x = 1 + :a\n"
                       b"              ^^\n"
                       b"  expected: float\n"
                       b"  actual:   :a\n")
        monkeypatch.chdir(tmp_path)
        _, json_out, _ = invoke(capsys, "check", ".", "--format", "json")
        assert '"bad\\udcff.ex"' in json_out


def _closing(fd):
    """A `preexec_fn` that starts the child with descriptor `fd` closed."""
    return lambda: os.close(fd)


class TestClosedOrUnwritableStreams:
    """A standard stream closed at start (`>&-`, `2>&-`) is None in the
    process; writing to it fails as writing to a closed descriptor does.
    Output that needs no writing still exits 0, the stderr line is best
    effort, and stdout is whole when only stderr fails."""

    def test_a_closed_stdout_fails_the_report(self):
        proc = fresh_main("check", str(CORPUS_DIR), stderr=subprocess.PIPE,
                          preexec_fn=_closing(1))
        _, err = proc.communicate(timeout=60)
        line = f"extc: error: cannot write output: {os.strerror(errno.EBADF)}\n"
        assert (proc.returncode, err) == (2, line.encode())

    def test_a_closed_stdout_fails_the_help(self):
        """Help goes through `run`'s writer, not to stderr instead."""
        proc = fresh_main("--help", stderr=subprocess.PIPE, preexec_fn=_closing(1))
        _, err = proc.communicate(timeout=60)
        line = f"extc: error: cannot write output: {os.strerror(errno.EBADF)}\n"
        assert (proc.returncode, err) == (2, line.encode())

    def test_a_closed_stdout_is_fine_for_a_clean_check(self):
        proc = fresh_main("check", corpus("ok_func_spec.ex"), stderr=subprocess.PIPE,
                          preexec_fn=_closing(1))
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")

    @pytest.mark.parametrize("stderr", ["full", "closed"])
    def test_stdout_is_whole_when_stderr_fails(self, stderr, capsys):
        argv = ["check", corpus("ok_func_spec.ex"), "--format", "json", "--dump-sigs"]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        if stderr == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            with open("/dev/full", "wb") as full:
                proc = fresh_main(*argv, stdout=subprocess.PIPE, stderr=full)
                got, _ = proc.communicate(timeout=60)
        else:
            proc = fresh_main(*argv, stdout=subprocess.PIPE, preexec_fn=_closing(2))
            got, _ = proc.communicate(timeout=60)
        assert (proc.returncode, got) == (2, out.encode())

    def test_a_closed_stderr_fails_a_usage_error(self):
        proc = fresh_main("check", "nonexistent.ex", stdout=subprocess.PIPE,
                          preexec_fn=_closing(2))
        out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (2, b"")


class TestRecursionBudget:
    """The parser counts each unary operator and each `=` as a nesting level,
    so the checker may recurse on them: a chain one level under the limit
    checks clean in a fresh process, and one more level is a parse error."""

    _CHAINS = {
        "not": ("boolean", lambda n: "not " * n + "x"),
        "negation": ("integer", lambda n: "- " * n + "x"),
        "match": ("integer", lambda n: "".join(f"a{i} = " for i in range(n)) + "x"),
    }

    @pytest.mark.parametrize("shape", sorted(_CHAINS))
    def test_chain_at_the_limit(self, shape, tmp_path):
        t, chain = self._CHAINS[shape]
        for n, status in [(MAX_NESTING - 1, 0), (MAX_NESTING, 2)]:
            path = tmp_path / f"{shape}{n}.ex"
            path.write_text(f"defmodule M do\n  @spec f({t}) :: {t}\n"
                            f"  def f(x) do {chain(n)} end\nend\n")
            proc = fresh_main("check", str(path), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (status, b"")
            assert (b"E_PARSE nesting too deep" in out) == bool(status)


def test_import_loads_no_typing():
    """Start-up imports only what a check needs: no `typing`, no `pathlib`
    (with `urllib.parse` behind it), no `json`, and no `dataclasses`, with
    the `inspect` and `ast` it imports: node classes are plain `__slots__`
    classes. No `contextlib`, and no `pickle`: a split check sends its data
    with `marshal`, which the interpreter has loaded. No `argparse`, with
    the `gettext` it loads and the `shutil`, `locale` and compression
    modules its help formatter loads: `cli` reads its command line itself."""
    unwanted = ["typing", "pathlib", "json", "urllib.parse", "dataclasses", "inspect", "ast",
                "contextlib", "pickle", "argparse", "gettext", "shutil", "locale", "bz2", "lzma",
                "zlib"]
    code = f"import sys, extc.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_a_check_loads_nothing_past_start_up():
    """A check, as text and as JSON, imports no module that `import extc.cli`
    did not: what it needs is loaded at start-up, and nothing else."""
    code = ("import os, sys, extc.cli\n"
            "before = set(sys.modules)\n"
            "sys.stdout = open(os.devnull, 'w')\n"
            "for fmt in ('text', 'json'):\n"
            f"    extc.cli.run(['check', {str(CORPUS_DIR)!r}, '--format', fmt])\n"
            "sys.stderr.write(repr(sorted(set(sys.modules) - before)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "[]")



def _imports(tree):
    """Each import statement under `tree`, with the modules it names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level
            if node.module:
                yield node, [prefix + node.module]
            else:  # `from . import syntax` imports the module `.syntax`
                yield node, [prefix + alias.name for alias in node.names]


def _package_imports(name: str) -> list[str]:
    """The `extc` modules that module `name` imports, each without its package."""
    tree = ast.parse((Path(cli.__file__).parent / f"{name}.py").read_text())
    return [module.lstrip(".").removeprefix("extc.") for _, modules in _imports(tree)
            for module in modules if module.startswith(".") or module.split(".")[0] == "extc"]


def test_imports_stay_out_of_functions():
    """An import inside a function runs again on every call, and none is
    allowed. `types` imports no `extc` module: it is the base the others
    build on. Nor does the package itself: `import extc` loads no module
    but `extc`, and each caller imports the modules it uses."""
    inside = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inside |= {(path.name, getattr(fn, "name", "<lambda>"), module)
                           for _, modules in _imports(fn) for module in modules}
    assert inside == set()
    assert _package_imports("types") == []
    assert _package_imports("__init__") == []
    code = ("import sys; before = set(sys.modules); import extc; "
            "print(sorted(set(sys.modules) - before))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['extc']\n", "")


def test_lexer_and_diagnostics_import_no_syntax():
    """A location is a `Span` into a `Source`, both of which `diagnostics`
    defines, so the lexer and the diagnostics know nothing of the AST, and
    `diagnostics` builds only on `types`: no `source` module is left."""
    assert "syntax" not in _package_imports("lexer") + _package_imports("diagnostics")
    assert _package_imports("diagnostics") == ["types"]
    assert not (Path(cli.__file__).parent / "source.py").exists()


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



def _deep_type_in_deep_nesting(path, shape, context):
    """Write a file where a `@spec` type of `shape`, one level short of the
    type limit, meets a type walk inside an expression two levels short of
    the nesting limit. Returns the status and the code its verdict gives."""
    opener, closer = _TYPE_SHAPES[shape]
    depth, levels = MAX_TYPE_DEPTH - 1, MAX_NESTING - 2
    t, u = (opener * depth + leaf + closer * depth for leaf in ("integer", "string"))

    def wrap(expr):
        return "{" * levels + expr + "}" * levels

    call = f"@spec g({t}) :: integer\ndef g(x) do {wrap('f(x)')}; 1 end\ndef f(y) do 1 end\n"
    text, status, code = {
        "call": (f"@spec f({t}) :: integer\n" + call, 0, None),
        "mismatch": (f"@spec f({u}) :: integer\n" + call, 1, "E_TYPE_MISMATCH"),
        "join": (f"@spec g({t}, {u}) :: integer\n"
                 f"def g(x, y) do {wrap('if true do x else y end')}; 1 end\n", 0, None),
        "body": (f"@spec g({t}) :: integer\ndef g(x) do {wrap('x')} end\n",
                 1, "E_SPEC_BODY_MISMATCH"),
    }[context]
    path.write_text(text)
    return status, code


class TestDeepTypesUnderDeepNesting:
    """A type walk (`fits`, equality, `join`, `str`) over a spec type nested
    inside a synthesized type nested almost to both limits fits the
    recursion limit `run` sets: each such check gives its verdict."""

    @pytest.mark.parametrize("context", ["call", "mismatch", "join", "body"])
    @pytest.mark.parametrize("shape", sorted(_TYPE_SHAPES))
    def test_check_gives_its_verdict(self, shape, context, tmp_path):
        path = tmp_path / f"{shape}_{context}.ex"
        status, code = _deep_type_in_deep_nesting(path, shape, context)
        procs = [fresh_main("check", str(path), "--format", fmt, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE) for fmt in ("text", "json")]
        (text, text_err), (out, json_err) = (proc.communicate(timeout=60) for proc in procs)
        assert [proc.returncode for proc in procs] == [status, status]
        assert (text_err, json_err) == (b"", b"")
        codes = [diag["code"] for diag in json.loads(out)["diagnostics"]]
        assert codes == ([code] if code else [])
        assert (f" {code} ".encode() in text) if code else text == b""

    def test_other_files_still_report(self, tmp_path):
        _deep_type_in_deep_nesting(tmp_path / "deep.ex", "map", "body")
        (tmp_path / "other.ex").write_text('3 + "hi"\n')
        proc = fresh_main("check", str(tmp_path), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b"")
        assert _files_reported(out.decode()) == [str(tmp_path / "deep.ex"),
                                                 str(tmp_path / "other.ex")]

    def test_run_raises_the_recursion_limit_and_never_lowers_it(self, capsys):
        limit = sys.getrecursionlimit()
        try:
            for start, after in [(1000, RECURSION_LIMIT), (RECURSION_LIMIT + 500,) * 2]:
                sys.setrecursionlimit(start)
                invoke(capsys, "check", corpus("ok_arith.ex"))
                assert sys.getrecursionlimit() == after
        finally:
            sys.setrecursionlimit(limit)


def _nest(expr, levels=250):
    return "{" * levels + expr + "}" * levels


class TestDeepTypesThroughVariables:
    """A variable carries a built type into the next expression, which nests
    it further, past what the recursion limit covers. The item that runs out
    of stack is `E_PARSE` "nesting too deep", the parser's message for the
    same budget, at the item's span, and the rest of the check goes on."""

    _SHAPES = {
        "top": (f"x = {_nest('1')}\ny = {_nest('x')}\ny + 1\n", 1, 1),
        "def": (f"@spec f(integer) :: integer\ndef f(n) do\n  x = {_nest('1')}\n"
                f"  y = {_nest('x')}\n  y + 1\nend\n", 2, 1),
    }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_is_nesting_too_deep(self, shape, fmt, tmp_path):
        text, line, col = self._SHAPES[shape]
        path = tmp_path / "deep.ex"
        path.write_text(text)
        proc = fresh_main("check", str(path), "--format", fmt, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, b"")
        if fmt == "json":
            [diag] = json.loads(out)["diagnostics"]
            assert (diag["code"], diag["message"], diag["line"], diag["col"]) == \
                ("E_PARSE", "nesting too deep", line, col)
        else:
            assert out.startswith(f"{path}:{line}:{col} E_PARSE nesting too deep\n".encode())

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_other_files_still_report(self, shape, fmt, tmp_path):
        (tmp_path / "deep.ex").write_text(self._SHAPES[shape][0])
        (tmp_path / "other.ex").write_text('3 + "hi"\n')
        proc = fresh_main("check", str(tmp_path), "--format", fmt, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (2, b"")
        if fmt == "json":
            found = [(d["file"], d["code"]) for d in json.loads(out)["diagnostics"]]
        else:
            found = [(line.split(":")[0], line.split()[1]) for line in out.decode().splitlines()
                     if line.startswith(str(tmp_path))]
        assert found == [(str(tmp_path / "deep.ex"), "E_PARSE"),
                         (str(tmp_path / "other.ex"), "E_TYPE_MISMATCH")]


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
