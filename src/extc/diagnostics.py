"""Structured diagnostics, each located by a `Span`, rendered as text or JSON from its `Source`."""
from __future__ import annotations

import re
from _json import encode_basestring_ascii as _quote  # the escaper of `json.dumps`
from bisect import bisect_right
from functools import cached_property

from .types import Record

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


class Source:
    """A file's text, and the offsets its lines start at, found on the first
    lookup. Only "\\n" ends a line, as in the lexer."""

    def __init__(self, text: str):
        self.text = text

    @cached_property
    def line_starts(self) -> list[int]:
        """The offset each line starts at, then one past the end of the text,
        so that line `n` is `text[line_starts[n - 1]:line_starts[n] - 1]`."""
        return [0, *(m.end() for m in re.finditer("\n", self.text)), len(self.text) + 1]

    def position(self, offset: int) -> tuple[int, int]:
        """1-based line and column of `offset`."""
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def line(self, number: int) -> str | None:
        """Line `number`'s text (1-based); None past the last, as a final newline starts none."""
        start, stop = self.line_starts[number - 1:number + 1]
        if start < len(self.text):
            return self.text[start:stop - 1]


class Span(Record):
    """Offsets `start` to `end` into `source`, which resolves their line and
    column: the location of a diagnostic, or of the lex or parse error that
    becomes one. AST nodes hold only the offsets."""

    __slots__ = ("start", "end", "source")

    def __init__(self, start: int, end: int, source: Source):
        self.start, self.end, self.source = start, end, source


class CheckFailure(Exception):
    """Raised by the lexer, the parser and the checking passes; converted to a
    Diagnostic where a file is parsed or a clause or statement is checked.
    It keeps the offsets of `at`: the node, span or failure it is about."""

    def __init__(self, code: str, message: str, at,
                 expected: str | None = None, actual: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.start, self.end = at.start, at.end
        self.expected = expected
        self.actual = actual


class Diagnostic(Record):
    __slots__ = ("code", "message", "span", "file", "expected", "actual")
    __hash__ = None  # mutable

    def __init__(self, code: str, message: str, span: Span, file: str = "<input>",
                 expected: str | None = None, actual: str | None = None):
        if code not in ALL_CODES:
            raise ValueError(f"unknown diagnostic code {code!r}")
        self.code, self.message, self.span = code, message, span
        self.file, self.expected, self.actual = file, expected, actual

    @classmethod
    def at(cls, program, node, code: str, message: str, **extra) -> "Diagnostic":
        """A diagnostic on the offsets of `node`, or of a failure, in the parsed file `program`."""
        return cls(code, message, Span(node.start, node.end, program.source), file=program.path, **extra)

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


# One diagnostic in `render_json`, indented as `json.dumps(..., indent=2)`
# indents it. A severity and a code are ASCII names, with nothing to escape.
_JSON_ENTRY = (
    '    {\n      "file": %s,\n      "line": %d,\n      "col": %d,\n      "end_line": %d,\n'
    '      "end_col": %d,\n      "severity": "%s",\n      "code": "%s",\n      "message": %s,\n'
    '      "expected": %s,\n      "actual": %s\n    }')

_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m", "info": "\x1b[36m"}
_RESET = "\x1b[0m"
_REPLACING = ("replace", "ignore", "xmlcharrefreplace", "namereplace", "backslashreplace")  # never raise


def _ends(span: Span) -> tuple[int, int, int, int]:
    return (*span.source.position(span.start), *span.source.position(span.end))


def escaped(text: str, stream) -> str:
    """`text` as `stream`, if any, writes it, or as `cli._write` escapes what the stream refuses."""
    encoding, errors = getattr(stream, "encoding", None), getattr(stream, "errors", None)
    errors = errors if errors in _REPLACING else "backslashreplace"
    return text if encoding is None else text.encode(encoding, errors).decode(encoding)


def _under(text: str, mark: str, stream) -> str:
    """`mark` for each character of `text` as `escaped` writes it but a tab, which
    stays a tab, so that a terminal widens the line and the marks under it alike."""
    if text.isascii() and "\t" not in text:  # `escaped` writes it as it stands
        return mark * len(text)
    return "\t".join([mark * len(part) for part in escaped(text, stream).split("\t")])


def render_text(diag: Diagnostic, color: bool = False, stream=None) -> str:
    """One-line header plus a caret-underlined excerpt of the line the span
    starts on, which its `Source` gives; a span past the last line has none.
    The caret line keeps the excerpt's own tabs, with a space under each other
    character before the span, as `escaped` writes it to `stream`, and at least
    one caret under the span, or under the rest of the line if the span goes on past it."""
    code = diag.code
    if color:
        code = _COLORS[diag.severity] + code + _RESET
    line, col, end_line, end_col = _ends(diag.span)
    lines = [f"{diag.file}:{line}:{col} {code} {diag.message}"]
    text = diag.span.source.line(line)
    if text is not None:
        gutter = f"  {line} | "
        rest = end_line != line  # the span goes on past this line
        carets = _under(text[col - 1:] if rest else text[col - 1:end_col - 1], "^", stream)
        if "^" not in carets:
            carets += "^"
        pad = _under(text[:col - 1], " ", stream)
        lines += [gutter + text, " " * len(gutter) + pad + carets + (" ..." if rest else "")]
    if diag.expected is not None:
        lines.append(f"  expected: {diag.expected}")
    if diag.actual is not None:
        lines.append(f"  actual:   {diag.actual}")
    return "\n".join(lines)


def render_all_text(diags: list[Diagnostic], sources: dict[str, str] | None = None,
                    color: bool = False) -> str:
    """`render_text` of each diagnostic. Only perfbench's traced check calls it,
    with the texts it read as `sources`, which each span's own text makes idle."""
    return "\n".join(render_text(d, color) for d in diags)


def render_json(diags: list[Diagnostic]) -> str:
    """Single JSON document: diagnostics array plus an error/warning summary,
    byte for byte what `json.dumps(payload, indent=2)` gave for it, with
    strings escaped by the same C function."""
    return json_document(",\n".join(map(json_entry, diags)), *count_by_severity(diags))


def json_entry(d: Diagnostic) -> str:
    """One diagnostic of `render_json`'s array, indented as it stands there."""
    return _JSON_ENTRY % (
        _quote(d.file), *_ends(d.span), d.severity, d.code, _quote(d.message),
        "null" if d.expected is None else _quote(d.expected),
        "null" if d.actual is None else _quote(d.actual))


def json_document(entries: str, errors: int, warnings: int) -> str:
    """`render_json`'s document around `entries`, its `json_entry`s joined by ",\\n"."""
    listed = f"[\n{entries}\n  ]" if entries else "[]"
    return (f'{{\n  "diagnostics": {listed},\n  "summary": {{\n    "errors": {errors},\n'
            f'    "warnings": {warnings}\n  }}\n}}')
