"""Command-line interface.

Exit codes: 0 clean (warnings allowed unless --strict-warnings), 1 type
errors, 2 parse/lex errors or output that cannot be written, 3 usage errors.
`run` writes all output and flushes both standard streams. A reader that
closes the pipe early ends the output quietly, with the status the verdict
gives. A standard stream closed at start takes no output: writing to it
fails, and the other stream still gets its own.

`extc check` splits several files between processes when it has `os.fork`,
more than one CPU and at least twice `BATCH_MIN_BYTES` of input. The files
go into one batch per CPU, but no more batches than `BATCH_MIN_BYTES` go
into the input, dealt by size, each batch in command-line order. A worker
is forked for each batch but one before any file is read. Each process
lexes, parses and checks only its own batch. In between, the processes
swap the declarations of their files as `marshal` data (`types.pack`):
from them each builds the same stub programs in command-line order, so
`collect_all` gives each the same signatures, and each keeps the
`E_DUP_SPEC` and `W_SPEC_NO_DEF` of its own files. A worker sends back its
diagnostics with the text they point into, and exits without writing to a
standard stream. Only this process writes, and it sorts every diagnostic
before it renders them, so the output does not depend on the split.
"""
from __future__ import annotations

import argparse
import errno
import gc
import marshal
import os
import sys

from .checker import check_programs
from .diagnostics import (
    Diagnostic, E_LEX, E_PARSE, Source, Span, count_by_severity,
    render_all_text, render_json, render_text, sort_diagnostics,
)
from .lexer import LexError
from .parser import RECURSION_LIMIT, ParseError, parse_program
from .signatures import collect_all
from .syntax import FunctionDef, ModuleDef, Program, SpecDecl, dump
from .types import pack, unpack

# Fewest bytes of input per process in a split check: a check of N bytes
# uses at most N // BATCH_MIN_BYTES processes. Measured on 2 CPUs in fresh
# processes, 21-31 alternating pairs each, split in two against one process:
# the split lost on generated files of 8 and 12 KB in all, was mixed at
# 17 KB, and won 27 and 28 pairs in 31, by 4-6 ms, at 27 and 33 KB. It lost
# 1.4 ms on `tests/corpus` (2.2 KB in 34 files) and 2.9 ms on perfbench's
# probes. More processes than CPUs cost time (see ROADMAP, "Where the time
# goes"), so the CPUs bound the count too.
BATCH_MIN_BYTES = 12_000

# Where a container reads its cgroup's CPU quota: v2, then v1.
CPU_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                   ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="extc",
                             description="Gradual type checker for a core Elixir fragment")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="type-check source files")
    check.add_argument("paths", nargs="+", help="source files or directories")
    check.add_argument("--format", choices=["text", "json"], default="text")
    check.add_argument("--strict-warnings", action="store_true",
                       help="exit with status 1 when warnings are present")
    check.add_argument("--dump-sigs", action="store_true",
                       help="print the collected function signatures")
    check.add_argument("--no-color", action="store_true")

    parse_cmd = sub.add_parser("parse", help="parse one file and dump its AST")
    parse_cmd.add_argument("path")
    return parser


def _spell(raw: str) -> str:
    """`raw` as `str(pathlib.Path(raw))` spells it: without empty or `.`
    components, and `.` for none; two leading slashes stay two."""
    rel = raw.lstrip("/")
    root = "/" * (len(raw) - len(rel))
    return (root if len(root) == 2 else root[:1]) + "/".join(
        part for part in rel.split("/") if part not in ("", ".")) or "."


def _ex_files(top: str) -> list[str]:
    """The files named `*.ex` under directory `top`, as `sorted(Path(top).rglob(
    "*.ex"))` finds them: ordered by path components, hidden ones included,
    symlinked directories not descended, and entries that are not files dropped."""
    prefix = "" if top == "." else top if top.endswith("/") else top + "/"
    found = []
    stack = [((), top)]
    while stack:
        parts, directory = stack.pop()
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    child = (*parts, entry.name)
                    if entry.name.endswith(".ex"):
                        found.append((child, prefix + "/".join(child)))
                    if entry.is_dir(follow_symlinks=False):
                        stack.append((child, entry.path))
        except OSError:  # rglob skips what it cannot list
            pass
    return [path for _, path in sorted(found) if os.path.isfile(path)]


def _gather_files(paths: list[str]) -> list[str] | str:
    """The files `paths` name, each once: a file named again, or also reached
    through its directory, keeps its first place and spelling."""
    files: dict[str, str] = {}  # resolved path -> path as first seen
    for raw in paths:
        p = _spell(raw)
        if os.path.isdir(p):
            found = _ex_files(p)
        elif os.path.isfile(p):
            found = [p]
        else:
            return raw
        for f in found:
            files.setdefault(os.path.realpath(f), f)
    return list(files.values())


def _newlines(text: str) -> str:
    """Universal newlines, as reading in text mode gives."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load(name: str) -> Program | Diagnostic:
    """Read and parse one file: its program, or the E_LEX/E_PARSE diagnostic
    that stopped it, or E_LEX at offset 0 when the file cannot be read. Every
    span points into the file's text, in which bytes that are not UTF-8 read
    as U+FFFD."""
    try:
        with open(name, "rb") as file:
            data = file.read()
    except OSError as err:
        span = Span(0, 0, Source(""))
        return Diagnostic(E_LEX, f"cannot read file: {err.strerror or err}", span, file=name)
    try:
        text = _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        offset = len(_newlines(data[:err.start].decode("utf-8")))
        span = Span(offset, offset + 1, Source(_newlines(data.decode("utf-8", "replace"))))
        return Diagnostic(E_LEX, "file is not valid UTF-8", span, file=name)
    try:
        return parse_program(text, path=name)
    except (LexError, ParseError) as err:
        return Diagnostic(err.code, err.message, err.span, file=name)


def run(argv: list[str] | None = None) -> int:
    """Run the command line `argv`, write its output, flush both standard
    streams, and return the exit status."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has written the usage error or `--help`
        status, output = int(exc.code or 0), []
    else:
        status, output = (_run_check if args.command == "check" else _run_parse)(args)
    failed = []  # streams that take no more output
    for stream, text in [*output, (sys.stdout, None), (sys.stderr, None)]:
        if stream not in failed:
            try:
                _write(stream, text)
            except OSError as err:
                failed.append(stream)
                status = _write_failed(err, status, stream)
    return status


def _write(stream, text: str | None) -> None:
    """Print `text` to `stream`, or flush it when `text` is None. A stream
    that was closed at start is None: writing to it fails as writing to a
    closed descriptor does, and it has nothing to flush."""
    if text is None:
        if stream is not None:
            stream.flush()
    elif stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    else:
        print(text, file=stream)


def _write_failed(err: OSError, status: int, stream) -> int:
    """The exit status once writing to `stream` failed: the verdict's if the
    reader closed the pipe, else 2, with one line on stderr if stderr takes
    it. The stream points at `os.devnull` from then on, so what is left to
    flush fails no more (the SIGPIPE note in the `signal` docs)."""
    try:
        fd = stream.fileno()
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), fd)
    except (AttributeError, OSError):  # None, or a stream with no descriptor
        pass
    if isinstance(err, BrokenPipeError):
        return status
    try:
        _write(sys.stderr, f"extc: error: cannot write output: {err.strerror or err}")
    except OSError:  # stderr may be the stream that failed
        pass
    return 2


def _run_check(args) -> tuple[int, list]:
    """The status of `extc check` and its output, as (stream, text) pairs to print."""
    files = _gather_files(args.paths)
    if isinstance(files, str):
        return 3, [(sys.stderr, f"extc: error: no such file or directory: {files}")]

    sigs, diags = _check_all(files)
    diags = sort_diagnostics(diags)

    output = []
    if args.dump_sigs and sigs:
        stream = sys.stderr if args.format == "json" else sys.stdout
        output.append((stream, "\n".join(f"{name}/{arity} :: {fn_type}"
                                          for name, arity, fn_type in sigs.entries())))
    if args.format == "json":
        output.append((sys.stdout, render_json(diags)))
    elif diags:
        color = not args.no_color and sys.stdout is not None and sys.stdout.isatty()
        output.append((sys.stdout, render_all_text(diags, color=color)))

    errors, warnings = count_by_severity(diags)
    if any(d.code in (E_PARSE, E_LEX) for d in diags):
        return 2, output
    return (1 if errors or args.strict_warnings and warnings else 0), output


def _check(files: list[str], mine, exchange=None):
    """Load the files numbered `mine`, in order, and check them against the
    signatures of all `files`: the signatures, and the diagnostics of `mine`.
    `exchange`, given the programs of `mine` by number, returns every file's
    program in order, with a declarations-only stub for each file that
    another process holds; without it, `mine` is every file."""
    programs, diags = {}, []
    for i in mine:
        loaded = _load(files[i])
        if isinstance(loaded, Diagnostic):
            diags.append(loaded)
        else:
            programs[i] = loaded
    sigs, sig_diags = collect_all(exchange(programs) if exchange else list(programs.values()))
    ours = [d for d in sig_diags if d.span.source is not None]  # a stub has no source
    return sigs, diags + check_programs(list(programs.values()), (sigs, ours))


def _check_all(files: list[str]):
    """`_check` of every file: in this process alone, or split into batches
    of which this process checks the lightest and a forked worker each other."""
    batches = _batches(files)
    workers = []  # (pid, reader, writer): the pid and this side's pipe ends
    try:
        for batch in batches[1:]:
            try:
                workers.append(_fork(files, batch, workers))
            except OSError:  # no process or pipe to spare: check the batch here
                batches[0] = sorted(batches[0] + batch)
        if not workers:
            return _check(files, batches[0])

        def exchange(programs):
            headers = {i: _header(program.items) for i, program in programs.items()}
            for _, reader, _ in workers:
                headers.update(_receive(reader))
            for _, _, writer in workers:
                _send(writer, headers)
            return _stubbed(files, programs, headers)

        sigs, diags = _check(files, batches[0], exchange)
        for _, reader, _ in workers:
            diags += _diagnostics(*_receive(reader))
        return sigs, diags
    finally:
        for _, reader, writer in workers:
            _close(reader, writer)
        for pid, _, _ in workers:
            os.waitpid(pid, 0)


def _batches(files: list[str]) -> list[list[int]]:
    """The numbers of `files`, split into batches, each in order and the
    lightest first: largest file first, each file goes to the batch with the
    fewest bytes so far. One batch per CPU, but no more batches than files,
    nor than `BATCH_MIN_BYTES` go into the input. One batch when there is no
    `os.fork`, and when another thread runs, which a forked worker would
    lack, with any lock it holds."""
    everyone = list(range(len(files)))
    threading = sys.modules.get("threading")  # no thread runs unless it is loaded
    if (len(files) < 2 or not hasattr(os, "fork")
            or threading and threading.active_count() > 1):
        return [everyone]
    sizes = [_size(name) for name in files]
    count = min(len(files), sum(sizes) // BATCH_MIN_BYTES)
    if count > 1:
        count = min(count, _cpus())
    if count < 2:
        return [everyone]
    batches = [[] for _ in range(count)]
    loads = [0] * count
    for i in sorted(everyone, key=sizes.__getitem__, reverse=True):
        lightest = loads.index(min(loads))
        batches[lightest].append(i)
        loads[lightest] += sizes[i]
    return [sorted(batch) for _, batch in sorted(zip(loads, batches))]


def _cpus() -> int:
    """The CPUs this process may run on, and no more than its cgroup's CPU
    quota, rounded up, where a container finds it: `quota period` in the one
    file of cgroup v2, `quota` and `period` in two files of v1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for names in CPU_QUOTA_FILES:
        try:
            quota, period = map(int, " ".join(_read(name) for name in names).split())
        except (OSError, ValueError):  # no such cgroup, or no quota: "max", "-1"
            continue
        if quota > 0 and period > 0:
            cpus = min(cpus, -(-quota // period))
    return cpus


def _read(name: str) -> str:
    with open(name) as file:
        return file.read()


def _size(name: str) -> int:
    try:
        return os.stat(name).st_size
    except OSError:  # `_load` reports it
        return 0


def _fork(files: list[str], batch: list[int], workers: list):
    """Start a worker that checks the files numbered `batch`: its pid, and
    this side's ends of a pipe from it and of a pipe to it."""
    pipes = []
    try:
        pipes += os.pipe()  # from the worker
        pipes += os.pipe()  # to the worker
        pid = os.fork()
    except OSError:
        for fd in pipes:
            os.close(fd)
        raise
    if pid == 0:
        try:
            for _, reader, writer in workers:  # the parent's ends of earlier workers' pipes
                _close(reader, writer)
            os.close(pipes[0])
            os.close(pipes[3])
            _work(files, batch, os.fdopen(pipes[2], "rb"), os.fdopen(pipes[1], "wb"))
        finally:
            os._exit(1)  # `_work` has exited already, unless closing failed
    os.close(pipes[1])
    os.close(pipes[2])
    return pid, os.fdopen(pipes[0], "rb"), os.fdopen(pipes[3], "wb")


def _work(files: list[str], batch: list[int], reader, writer) -> None:
    """A worker's whole life: check `batch`, sending its headers and then
    its diagnostics through `writer`, or the traceback of what stopped it.
    It ends with `os._exit`, writes nothing to the standard streams, and
    leaves their buffers to the parent."""
    status = 1
    try:
        def exchange(programs):
            _send(writer, {i: _header(program.items) for i, program in programs.items()})
            return _stubbed(files, programs, _receive(reader))

        _send(writer, _rows(_check(files, batch, exchange)[1]))
        status = 0
    except BaseException as err:  # reported, for the parent to raise; the worker ends anyway
        try:
            _send(writer, _traceback(err))
        except OSError:  # the parent has gone
            pass
    finally:
        os._exit(status)


def _close(*streams) -> None:
    for stream in streams:
        try:
            stream.close()
        except OSError:  # a writer whose reader has gone
            pass


def _send(stream, value) -> None:
    """Write `value` to `stream` with `marshal`, after its length."""
    data = marshal.dumps(value)
    stream.write(len(data).to_bytes(8, "little"))
    stream.write(data)
    stream.flush()


def _receive(stream):
    """The next value `_send` wrote to the other end of `stream`. A worker that
    failed sends its traceback instead, which raises here."""
    size = int.from_bytes(stream.read(8), "little")
    data = stream.read(size)
    if not size or len(data) < size:
        raise EOFError("a check worker ended without an answer")
    value = marshal.loads(data)
    if isinstance(value, str):
        raise RuntimeError(f"a check worker failed:\n{value}")
    return value


def _traceback(err: BaseException) -> str:
    """`err` and the frames it passed through, as a traceback prints them,
    without the `traceback` module, which start-up would have to import."""
    lines = ["Traceback (most recent call last):"]
    tb = err.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        lines.append(f'  File "{code.co_filename}", line {tb.tb_lineno}, in {code.co_name}')
        tb = tb.tb_next
    return "\n".join([*lines, f"{type(err).__name__}: {err}"])


def _header(items: list) -> list:
    """The declarations among `items`, as `marshal` data: a module with its
    own, a `@spec` with its types, a `def` with its arity."""
    found = []
    for item in items:
        if isinstance(item, ModuleDef):
            found.append(("defmodule", item.name, _header(item.body)))
        elif isinstance(item, SpecDecl):
            found.append(("@spec", item.name, pack(item.params), pack(item.result)))
        elif isinstance(item, FunctionDef):
            found.append(("def", item.name, len(item.params)))
    return found


def _stubbed(files: list[str], programs: dict, headers: dict) -> list[Program]:
    """Every file that parsed, in order: its program where this process holds
    it, else a stub that has only the declarations of its header."""
    return [programs[i] if i in programs else
            Program(_declarations(headers[i]), files[i], source=None)
            for i in sorted(headers)]


def _declarations(header: list) -> list:
    """The nodes `_header` described, with just what `collect_all` reads."""
    items = []
    for kind, name, *rest in header:
        if kind == "defmodule":
            items.append(ModuleDef(name, _declarations(rest[0])))
        elif kind == "@spec":
            items.append(SpecDecl(name, *map(unpack, rest)))
        else:
            items.append(FunctionDef(name, [None] * rest[0], None))
    return items


def _rows(diags: list[Diagnostic]) -> tuple[list, list[str]]:
    """`diags` as `marshal` data: a row each, and the text of each `Source`
    they point into."""
    sources = {}
    rows = [(d.code, d.message, d.span.start, d.span.end,
             sources.setdefault(d.span.source, len(sources)), d.file, d.expected, d.actual)
            for d in diags]
    return rows, [source.text for source in sources]


def _diagnostics(rows: list, texts: list[str]) -> list[Diagnostic]:
    """The diagnostics `_rows` described."""
    sources = [Source(text) for text in texts]
    return [Diagnostic(code, message, Span(start, end, sources[k]), file, expected, actual)
            for code, message, start, end, k, file, expected, actual in rows]


def _run_parse(args) -> tuple[int, list]:
    path = _spell(args.path)
    if not os.path.isfile(path):
        return 3, [(sys.stderr, f"extc: error: no such file: {args.path}")]
    parsed = _load(path)
    if isinstance(parsed, Diagnostic):
        return 2, [(sys.stderr, render_text(parsed))]
    return 0, [(sys.stdout, dump(parsed))]


def main() -> None:
    """The `extc` console entry point: `run` the command line, which writes
    and flushes all output, then exit with its status.

    A check builds trees (tokens, AST nodes, types, diagnostics), not
    reference cycles, so the cyclic collector would walk every live object
    of the run and free nothing: the collector is off for the whole command.
    `tests/test_cli.py::TestCycleGate` keeps that true; it fails when a
    check leaves cyclic garbage that grows with its input. With nothing left
    to flush, the process ends with `os._exit`, which skips the final
    collection and freeing the heap one object at a time. `run` itself
    leaves the collector as it found it, for callers in a longer process.
    """
    gc.disable()
    os._exit(run())


if __name__ == "__main__":
    main()
