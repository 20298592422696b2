import io
import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from extc import cli, diagnostics
from extc.diagnostics import (
    ALL_CODES, Diagnostic, Source, Span, count_by_severity, json_document, json_entry,
    render_all_text, render_json, render_text, sort_diagnostics,
)


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
    text = render_text(d)
    lines = text.splitlines()
    assert lines[0] == 'm.ex:1:5 E_TYPE_MISMATCH expression has type string, expected float'
    assert lines[1].endswith('3 + "hi"')
    assert lines[2].strip() == "^^^^"
    assert "expected: float" in text
    assert "actual:   string" in text


def test_render_text_without_notes_or_types_is_just_excerpt():
    d = diag(code="E_UNBOUND_VAR", message="variable 'x' is not bound", s=span(0, 1, "x + 1"))
    text = render_text(d)
    assert text.splitlines()[0].startswith("m.ex:1:1 E_UNBOUND_VAR")
    assert "expected" not in text


def test_render_text_multiline_span_excerpts_first_line():
    source = "if true do\n1 end"
    d = diag(s=span(0, 12, source))
    text = render_text(d)
    assert "..." in text


def test_render_text_has_no_excerpt_past_the_last_line():
    # A final newline ends the last line; it does not start another one.
    eof = diag(code="E_PARSE", s=span(9, 9, "x = (1 +\n"))
    assert render_text(eof) == "m.ex:2:1 E_PARSE boom"
    assert render_text(diag(code="E_PARSE", s=span(0, 0, ""))) == "m.ex:1:1 E_PARSE boom"
    empty_line = diag(code="E_PARSE", s=span(9, 9, "x = (1 +\n\n"))
    assert render_text(empty_line).splitlines()[1] == "  2 | "


def test_render_text_excerpt_lines_end_at_newline_only():
    for separator in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        source = f"# a{separator}b\ny = 1 + 2\n"
        text = render_text(diag(s=span(14, 15, source)))
        assert text.splitlines()[:2] == ["m.ex:2:9 E_TYPE_MISMATCH boom", "  2 | y = 1 + 2"]


def test_render_text_caret_keeps_the_tabs_before_it():
    # A tab stays a tab in the caret line, so a terminal moves the caret as
    # far as it moved the excerpt.
    source = '\ty = x <> "a"'
    text = render_text(diag(s=span(5, 6, source)))
    assert text.splitlines()[1:] == ['  1 | \ty = x <> "a"', "      \t    ^"]


@pytest.mark.parametrize("source, start, end, carets", [
    ("x = {1,\t2} + 1", 4, 10, "    ^^^\t^^"),  # a tab inside the span
    ("x = {1,\t2,\n 3}", 4, 14, "    ^^^\t^^ ..."),  # and in the rest of the line
    ("x = {1, 2} + 1", 4, 10, "    ^^^^^^"),  # no tab: one caret a character
    ("x = (1 +\n", 8, 9, "        ^ ..."),  # from the end of the line: one caret
])
def test_render_text_caret_line_keeps_the_tabs_under_the_span(source, start, end, carets):
    text = render_text(diag(s=span(start, end, source)))
    assert text.splitlines()[2] == "      " + carets


@pytest.mark.parametrize("encoding", ["utf-8", "ascii", "ascii:replace", "utf-16", "latin-1"])
def test_ascii_text_takes_a_mark_a_character_without_escaping(encoding, monkeypatch):
    """For every ASCII character but a tab, the caret line's fast path gives as
    many marks as `escaped` writes characters, without calling it, under the
    stream encodings that `compare_outputs` runs with, UTF-16 and Latin-1."""
    name, _, errors = encoding.partition(":")
    stream = io.TextIOWrapper(io.BytesIO(), encoding=name, errors=errors or "strict")
    texts = [f"a{char}b" for char in map(chr, range(128)) if char != "\t"]
    widths = [len(diagnostics.escaped(text, stream)) for text in texts]
    monkeypatch.setattr(diagnostics, "escaped", None)  # not called
    assert [diagnostics._under(text, "^", stream) for text in texts] == ["^" * w for w in widths]
    assert set(widths) == {3}


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


def _payload(diags):
    """What `render_json` wrote through `json.dumps(payload, indent=2)` until
    it wrote the document itself."""
    errors, warnings = count_by_severity(diags)
    return {
        "diagnostics": [
            {
                "file": d.file,
                **dict(zip(("line", "col", "end_line", "end_col"),
                           (*d.span.source.position(d.span.start),
                            *d.span.source.position(d.span.end)))),
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


# Any text: control characters, quotes and backslashes, characters past the
# BMP, and lone surrogates, which `json.dumps` escapes as `\udxxx`.
_ANY_TEXT = st.text(st.characters() | st.sampled_from(
    '"\\\n\t\x00\x7f\x1f\u2028\ud800\udfff\U0001f600'))


@st.composite
def _diagnostics(draw):
    text = draw(st.text(st.sampled_from("ab\n\t\u00e9"), max_size=20))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, len(text) + 1))
    optional = st.none() | _ANY_TEXT
    return Diagnostic(draw(st.sampled_from(sorted(ALL_CODES))), draw(_ANY_TEXT),
                      Span(start, end, Source(text)), draw(_ANY_TEXT), draw(optional), draw(optional))


@settings(max_examples=300, deadline=None)
@given(st.lists(_diagnostics(), max_size=4))
def test_render_json_writes_what_json_dumps_wrote(diags):
    assert render_json(diags) == json.dumps(_payload(diags), indent=2)


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_diagnostics(), st.sampled_from(["b.ex", "a.ex", "a/b.ex", "a.exs"]),
                          st.integers(0, 2)), max_size=12))
def test_blocks_joined_in_file_order_render_the_sorted_list(drawn):
    """A check renders each process's files as `(file, block, codes)` and
    joins every block in file order; the codes give the summary. Each file
    is in one process, the one drawn with its first diagnostic."""
    by_process: list[list[Diagnostic]] = [[], [], []]
    home = {}
    for d, file, process in drawn:
        d.file = file
        by_process[home.setdefault(file, process)].append(d)
    ordered = sort_diagnostics([d for d, _, _ in drawn])
    for render, joiner in ((json_entry, ",\n"), (render_text, "\n")):
        blocks = sorted(b for found in by_process for b in cli._blocks(found, (render, joiner)))
        joined = joiner.join(block for _, block, _ in blocks)
        codes = [code for _, _, found in blocks for code in found]
        if render is json_entry:
            summary = sum(c[0] == "E" for c in codes), sum(c[0] == "W" for c in codes)
            assert json_document(joined, *summary) == render_json(ordered)
        else:
            assert joined == render_all_text(ordered)


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
    out = render_all_text([diag(s=span(0, 1, "x + 1")), diag(s=span(2, 3, "x + 1"))])
    assert out.count("m.ex:1:") == 2


def test_render_all_text_ignores_a_map_of_texts():
    # perfbench's traced check passes the texts it read, by position.
    diags = [diag(s=span(0, 1, "x + 1")), diag(s=span(2, 3, "x + 1"))]
    assert render_all_text(diags, {"m.ex": "y = 2"}, color=False) == render_all_text(diags)


def test_color_wraps_the_code_only():
    plain = render_text(diag())
    colored = render_text(diag(), color=True)
    assert "\x1b[31mE_TYPE_MISMATCH\x1b[0m" in colored
    assert "\x1b[" not in plain


def test_spans_compare_and_hash_by_offsets_and_source():
    source = Source("x = 1")
    assert Span(0, 1, source) == Span(0, 1, source)
    assert hash(Span(0, 1, source)) == hash(Span(0, 1, source))
    assert Span(0, 1, source) != Span(0, 2, source) and Span(0, 1, source) != Span(0, 1, Source("x = 1"))


def test_diagnostics_compare_by_every_field():
    s = span(4, 8)
    assert diag(s=s, expected="float") == diag(s=s, expected="float")
    assert diag(s=s, expected="float") != diag(s=s, expected="integer")
    assert diag(s=s) != diag(s=s, file="n.ex")
    assert repr(diag(s=s)).startswith("Diagnostic(code='E_TYPE_MISMATCH', message='boom', span=Span(")
