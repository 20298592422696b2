"""The argparse parser `extc` used before it read its command line itself.

`tests/test_cli.py` compares `cli.run` with it: on the exit status, stdout
and stderr of help and usage errors, and on the parsed fields otherwise.
Each command line on which they differ on purpose is one of the departures
that `tests/test_cli.py` names.
"""
from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout


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


def read(argv: list[str]) -> dict | tuple[int, str, str]:
    """The fields argparse parsed from `argv`, or, for help and usage errors,
    the exit status and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0), out.getvalue(), err.getvalue()
