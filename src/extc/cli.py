"""Command-line interface.

Exit codes: 0 clean (warnings allowed unless --strict-warnings), 1 type
errors, 2 parse/lex errors or output that cannot be written, 3 usage errors.
`run` writes all output and flushes both standard streams. A reader that
closes the pipe early ends the output quietly, with the status the verdict
gives. A standard stream closed at start takes no output: writing to it
fails, and the other stream still gets its own.
"""
from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from contextlib import suppress

from .checker import check_programs
from .diagnostics import (
    Diagnostic, E_LEX, E_PARSE, Span, count_by_severity, render_all_text,
    render_json, render_text, sort_diagnostics,
)
from .lexer import LexError
from .parser import RECURSION_LIMIT, ParseError, parse_program
from .signatures import collect_all
from .source import Source
from .syntax import Program, dump


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
        with suppress(OSError), os.scandir(directory) as entries:  # rglob skips what it cannot list
            for entry in entries:
                child = (*parts, entry.name)
                if entry.name.endswith(".ex"):
                    found.append((child, prefix + "/".join(child)))
                if entry.is_dir(follow_symlinks=False):
                    stack.append((child, entry.path))
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
    with suppress(AttributeError, OSError):  # None, or a stream with no descriptor
        fd = stream.fileno()
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), fd)
    if isinstance(err, BrokenPipeError):
        return status
    with suppress(OSError):  # stderr may be the stream that failed
        _write(sys.stderr, f"extc: error: cannot write output: {err.strerror or err}")
    return 2


def _run_check(args) -> tuple[int, list]:
    """The status of `extc check` and its output, as (stream, text) pairs to print."""
    files = _gather_files(args.paths)
    if isinstance(files, str):
        return 3, [(sys.stderr, f"extc: error: no such file or directory: {files}")]

    programs = []
    diags: list[Diagnostic] = []
    for path in files:
        parsed = _load(path)
        (diags if isinstance(parsed, Diagnostic) else programs).append(parsed)
    sigs, sig_diags = collect_all(programs)
    diags = sort_diagnostics(diags + check_programs(programs, (sigs, sig_diags)))

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
