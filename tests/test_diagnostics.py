import json

import pytest

from extc.diagnostics import (
    Diagnostic, Note, count_by_severity, render_all_text, render_json, render_text,
    sort_diagnostics,
)
from extc.source import Source
from extc.syntax import Span


def span(start, end, text="x + 1 = 2.5  # one line"):
    """Offsets into `text`, whose `Source` resolves their line and column."""
    return Span(start, end, Source(text))


def diag(code="E_TYPE_MISMATCH", message="boom", s=None, file="m.ex", **kw):
    return Diagnostic(code, message, s or span(4, 8), file=file, **kw)


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic("E_NOPE", "x", span(0, 1))


def test_severity_from_code():
    assert diag("E_PARSE").severity == "error"
    assert diag("W_SPEC_NO_DEF").severity == "warning"
    assert diag("I_UNTYPED_DEF").severity == "info"


def test_render_text_header_and_caret():
    source = '3 + "hi"'
    d = diag(message='expression has type string, expected float',
             s=span(4, 8, source), expected="float", actual="string")
    text = render_text(d, source)
    lines = text.splitlines()
    assert lines[0] == 'm.ex:1:5 E_TYPE_MISMATCH expression has type string, expected float'
    assert lines[1].endswith('3 + "hi"')
    assert lines[2].strip() == "^^^^"
    assert "expected: float" in text
    assert "actual:   string" in text


def test_render_text_without_notes_or_types_is_just_excerpt():
    d = diag(code="E_UNBOUND_VAR", message="variable 'x' is not bound", s=span(0, 1))
    text = render_text(d, "x + 1")
    assert text.splitlines()[0].startswith("m.ex:1:1 E_UNBOUND_VAR")
    assert "expected" not in text


def test_render_text_multiline_span_excerpts_first_line():
    source = "if true do\n1 end"
    d = diag(s=span(0, 12, source))
    text = render_text(d, source)
    assert "..." in text


def test_render_text_has_no_excerpt_past_the_last_line():
    # A final newline ends the last line; it does not start another one.
    eof = diag(code="E_PARSE", s=span(9, 9, "x = (1 +\n"))
    assert render_text(eof, "x = (1 +\n") == "m.ex:2:1 E_PARSE boom"
    assert render_text(diag(code="E_PARSE", s=span(0, 0, "")), "") == "m.ex:1:1 E_PARSE boom"
    assert render_text(eof, "x = (1 +\n\n").splitlines()[1] == "  2 | "


def test_render_text_excerpt_lines_end_at_newline_only():
    for separator in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        source = f"# a{separator}b\ny = 1 + 2\n"
        text = render_text(diag(s=span(14, 15, source)), source)
        assert text.splitlines()[:2] == ["m.ex:2:9 E_TYPE_MISMATCH boom", "  2 | y = 1 + 2"]


def test_render_text_notes_resolve_through_their_span():
    source = "x = 1\n  y + x"
    notes = [Note("y is bound here", span(8, 9, source)), Note("no position")]
    text = render_text(diag(s=span(12, 13, source), notes=notes), source)
    assert text.splitlines()[-2:] == ["  note: y is bound here (at 2:3)", "  note: no position"]


def test_render_json_empty():
    payload = json.loads(render_json([]))
    assert payload == {"diagnostics": [], "summary": {"errors": 0, "warnings": 0}}


def test_render_json_single_error():
    payload = json.loads(render_json([diag(expected="float", actual="string")]))
    assert payload["summary"] == {"errors": 1, "warnings": 0}
    entry = payload["diagnostics"][0]
    assert entry["file"] == "m.ex"
    assert entry["line"] == 1 and entry["col"] == 5
    assert entry["severity"] == "error"
    assert entry["code"] == "E_TYPE_MISMATCH"
    assert entry["expected"] == "float" and entry["actual"] == "string"
    assert list(entry.keys()) == ["file", "line", "col", "end_line", "end_col",
                                  "severity", "code", "message", "expected", "actual"]


def test_render_json_partitions_severities():
    diags = [diag(), diag("W_UNREACHABLE_PATTERN"), diag("I_UNTYPED_DEF"),
             diag("E_UNBOUND_VAR")]
    payload = json.loads(render_json(diags))
    assert payload["summary"] == {"errors": 2, "warnings": 1}


def test_count_by_severity():
    assert count_by_severity([diag(), diag("W_SPEC_NO_DEF")]) == (1, 1)


def test_sorted_by_file_offset_code():
    d1 = diag(file="b.ex", s=span(0, 1))
    d2 = diag(file="a.ex", s=span(9, 10))
    d3 = diag(file="a.ex", s=span(2, 3))
    d4 = Diagnostic("E_ARITY", "x", span(2, 3), file="a.ex")
    ordered = sort_diagnostics([d1, d2, d3, d4])
    assert ordered == [d4, d3, d2, d1]


def test_render_all_text_joins_lines():
    out = render_all_text([diag(s=span(0, 1)), diag(s=span(2, 3))], {"m.ex": "x + 1"})
    assert out.count("m.ex:1:") == 2


def test_color_wraps_the_code_only():
    plain = render_text(diag(), "x + 1")
    colored = render_text(diag(), "x + 1", color=True)
    assert "\x1b[31mE_TYPE_MISMATCH\x1b[0m" in colored
    assert "\x1b[" not in plain
