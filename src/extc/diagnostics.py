"""Structured diagnostics and their text/JSON rendering."""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .syntax import Span

E_PARSE = "E_PARSE"
E_LEX = "E_LEX"
E_DUP_SPEC = "E_DUP_SPEC"
E_TYPE_MISMATCH = "E_TYPE_MISMATCH"
E_UNBOUND_VAR = "E_UNBOUND_VAR"
E_UNKNOWN_KEY = "E_UNKNOWN_KEY"
E_ARITY = "E_ARITY"
E_NOT_FUNCTION = "E_NOT_FUNCTION"
E_PATTERN_TYPE = "E_PATTERN_TYPE"
E_NONLINEAR_MISMATCH = "E_NONLINEAR_MISMATCH"
E_PIN_UNBOUND = "E_PIN_UNBOUND"
E_SPEC_PARAM_MISMATCH = "E_SPEC_PARAM_MISMATCH"
E_SPEC_BODY_MISMATCH = "E_SPEC_BODY_MISMATCH"
W_SPEC_NO_DEF = "W_SPEC_NO_DEF"
W_UNREACHABLE_PATTERN = "W_UNREACHABLE_PATTERN"
I_UNTYPED_DEF = "I_UNTYPED_DEF"

ALL_CODES = frozenset({
    E_PARSE, E_LEX, E_DUP_SPEC, E_TYPE_MISMATCH, E_UNBOUND_VAR, E_UNKNOWN_KEY,
    E_ARITY, E_NOT_FUNCTION, E_PATTERN_TYPE, E_NONLINEAR_MISMATCH,
    E_PIN_UNBOUND, E_SPEC_PARAM_MISMATCH, E_SPEC_BODY_MISMATCH,
    W_SPEC_NO_DEF, W_UNREACHABLE_PATTERN, I_UNTYPED_DEF,
})

_SEVERITY = {"E": "error", "W": "warning", "I": "info"}


class CheckFailure(Exception):
    """Raised by the checking passes; converted to a Diagnostic at a statement
    or clause boundary."""

    def __init__(self, code: str, message: str, span: Span,
                 expected: str | None = None, actual: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.span = span
        self.expected = expected
        self.actual = actual

    def to_diagnostic(self, file: str = "<input>") -> "Diagnostic":
        return Diagnostic(self.code, self.message, self.span, file=file,
                          expected=self.expected, actual=self.actual)


@dataclass
class Note:
    text: str
    span: Span | None = None


@dataclass
class Diagnostic:
    code: str
    message: str
    span: Span
    file: str = "<input>"
    expected: str | None = None
    actual: str | None = None
    notes: list[Note] = field(default_factory=list)

    def __post_init__(self):
        if self.code not in ALL_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> str:
        return _SEVERITY[self.code[0]]

    def sort_key(self):
        return (self.file, self.span.start, self.code)


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=Diagnostic.sort_key)


def count_by_severity(diags: list[Diagnostic]) -> tuple[int, int]:
    errors = sum(1 for d in diags if d.severity == "error")
    warnings = sum(1 for d in diags if d.severity == "warning")
    return errors, warnings


_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m", "info": "\x1b[36m"}
_RESET = "\x1b[0m"


def _ends(span: Span) -> tuple[int, int, int, int]:
    return (*span.source.position(span.start), *span.source.position(span.end))


def render_text(diag: Diagnostic, source: str | None = None, color: bool = False) -> str:
    """One-line header plus a caret-underlined excerpt of the offending source."""
    code = diag.code
    if color:
        code = _COLORS[diag.severity] + code + _RESET
    span = diag.span
    line, col, end_line, end_col = _ends(span)
    lines = [f"{diag.file}:{line}:{col} {code} {diag.message}"]
    if source is not None:
        # The excerpt is the line holding the span's start. The lexer ends
        # lines at "\n" only, and a final newline starts no line.
        first = source.rfind("\n", 0, span.start) + 1
        if first < len(source):
            last = source.find("\n", first)
            text = source[first:last] if last >= 0 else source[first:]
            gutter = f"  {line} | "
            lines.append(gutter + text)
            if end_line == line:
                width = max(1, end_col - col)
            else:
                width = max(1, len(text) - col + 1)
            underline = " " * (len(gutter) + col - 1) + "^" * width
            if end_line != line:
                underline += " ..."
            lines.append(underline)
    if diag.expected is not None:
        lines.append(f"  expected: {diag.expected}")
    if diag.actual is not None:
        lines.append(f"  actual:   {diag.actual}")
    for note in diag.notes:
        if note.span is not None:
            note_line, note_col = note.span.source.position(note.span.start)
            lines.append(f"  note: {note.text} (at {note_line}:{note_col})")
        else:
            lines.append(f"  note: {note.text}")
    return "\n".join(lines)


def render_all_text(diags: list[Diagnostic], sources: dict[str, str] | None = None,
                    color: bool = False) -> str:
    sources = sources or {}
    return "\n".join(render_text(d, sources.get(d.file), color) for d in diags)


def render_json(diags: list[Diagnostic]) -> str:
    """Single JSON document: diagnostics array plus an error/warning summary."""
    errors, warnings = count_by_severity(diags)
    payload = {
        "diagnostics": [
            {
                "file": d.file,
                **dict(zip(("line", "col", "end_line", "end_col"), _ends(d.span))),
                "severity": d.severity,
                "code": d.code,
                "message": d.message,
                "expected": d.expected,
                "actual": d.actual,
            }
            for d in diags
        ],
        "summary": {"errors": errors, "warnings": warnings},
    }
    return json.dumps(payload, indent=2)
