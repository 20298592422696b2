"""Command-line interface.

Exit codes: 0 clean (warnings allowed unless --strict-warnings), 1 type
errors, 2 parse/lex errors, 3 usage errors.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .checker import check_programs
from .diagnostics import (
    Diagnostic, E_LEX, E_PARSE, count_by_severity, render_all_text,
    render_json, render_text, sort_diagnostics,
)
from .lexer import LexError
from .parser import ParseError, parse_program
from .signatures import collect_all
from .source import Source
from .syntax import Program, Span, dump


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


def _gather_files(paths: list[str]) -> list[Path] | str:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(f for f in p.rglob("*.ex") if f.is_file()))
        elif p.is_file():
            files.append(p)
        else:
            return raw
    return files


def _newlines(text: str) -> str:
    """Universal newlines, as reading in text mode gives."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load(path: Path) -> tuple[str, Program | Diagnostic]:
    """Read and parse one file. Returns its text, in which bytes that are not
    UTF-8 read as U+FFFD, and its program or the E_LEX/E_PARSE diagnostic
    that stopped it, or E_LEX at offset 0 when the file cannot be read."""
    name = str(path)
    try:
        data = path.read_bytes()
    except OSError as err:
        span = Span(0, 0, Source(""))
        return "", Diagnostic(E_LEX, f"cannot read file: {err.strerror or err}", span, file=name)
    try:
        text = _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        offset = len(_newlines(data[:err.start].decode("utf-8")))
        text = _newlines(data.decode("utf-8", "replace"))
        span = Span(offset, offset + 1, Source(text))
        return text, Diagnostic(E_LEX, "file is not valid UTF-8", span, file=name)
    try:
        return text, parse_program(text, path=name)
    except (LexError, ParseError) as err:
        code = E_LEX if isinstance(err, LexError) else E_PARSE
        return text, Diagnostic(code, err.message, err.span, file=name)


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "check":
        return _run_check(args)
    return _run_parse(args)


def _run_check(args) -> int:
    files = _gather_files(args.paths)
    if isinstance(files, str):
        print(f"extc: error: no such file or directory: {files}", file=sys.stderr)
        return 3

    programs = []
    diags: list[Diagnostic] = []
    sources: dict[str, str] = {}
    for path in files:
        sources[str(path)], parsed = _load(path)
        if isinstance(parsed, Diagnostic):
            diags.append(parsed)
        else:
            programs.append(parsed)

    sigs, sig_diags = collect_all(programs)
    diags.extend(check_programs(programs, (sigs, sig_diags)))
    diags = sort_diagnostics(diags)

    sig_lines = None
    if args.dump_sigs:
        sig_lines = [f"{name}/{arity} :: {fn_type}" for name, arity, fn_type in sigs.entries()]

    if args.format == "json":
        if sig_lines is not None:
            for line in sig_lines:
                print(line, file=sys.stderr)
        print(render_json(diags))
    else:
        if sig_lines is not None:
            for line in sig_lines:
                print(line)
        if diags:
            color = not args.no_color and sys.stdout.isatty()
            print(render_all_text(diags, sources, color=color))

    if any(d.code in (E_PARSE, E_LEX) for d in diags):
        return 2
    errors, warnings = count_by_severity(diags)
    if errors:
        return 1
    if args.strict_warnings and warnings:
        return 1
    return 0


def _run_parse(args) -> int:
    path = Path(args.path)
    if not path.is_file():
        print(f"extc: error: no such file: {args.path}", file=sys.stderr)
        return 3
    text, parsed = _load(path)
    if isinstance(parsed, Diagnostic):
        print(render_text(parsed, text), file=sys.stderr)
        return 2
    print(dump(parsed))
    return 0


def main() -> None:
    """The `extc` console entry point: `run` the command line, then exit with
    its status.

    A check builds trees (tokens, AST nodes, types, diagnostics), not
    reference cycles, so the cyclic collector would walk every live object
    of the run and free nothing: the collector is off for the whole command.
    `tests/test_cli.py::TestCycleGate` keeps that true; it fails when a
    check leaves cyclic garbage that grows with its input. Once the output
    is flushed, the process ends with `os._exit`, which skips the final
    collection and freeing the heap one object at a time. If a flush fails
    (the reader closed the pipe), the exit is the ordinary one. `run` itself
    leaves the collector as it found it, for callers in a longer process.
    """
    gc.disable()
    status = run()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    main()
