import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, DATA_DIR
from extc.lexer import KEYWORDS, OPERATORS, PUNCTUATION, LexError, tokenize
from extc.source import Source


def kinds_and_lexemes(source):
    return [(t.kind, t.lexeme) for t in tokenize(source) if t.kind != "eof"]


def test_atom():
    assert kinds_and_lexemes(":ok") == [("atom", "ok")]


def test_atoms_from_listing():
    toks = kinds_and_lexemes(":ok :error :apple")
    assert toks == [("atom", "ok"), ("atom", "error"), ("atom", "apple")]


def test_longest_match_identity_op():
    assert kinds_and_lexemes("a===b") == [("ident", "a"), ("op", "==="), ("ident", "b")]


def test_longest_match_not_identical():
    assert kinds_and_lexemes("a!==b") == [("ident", "a"), ("op", "!=="), ("ident", "b")]


def test_float_then_plus():
    assert kinds_and_lexemes("1.5+x") == [("float", "1.5"), ("op", "+"), ("ident", "x")]


def test_integer_dot_is_not_float():
    # No digits after the dot: lexes as integer followed by '.'
    assert kinds_and_lexemes("1.x") == [("int", "1"), ("op", "."), ("ident", "x")]


def test_double_colon_vs_atom():
    assert kinds_and_lexemes(") :: float")[1] == ("op", "::")


def test_compound_tokens_stay_whole():
    for op in ["<>", "++", "--", "::", "=>", "->", "<=", ">=", "!=", "!=="]:
        assert kinds_and_lexemes(f"a {op} b")[1] == ("op", op)


def test_comments_and_whitespace_dropped():
    toks = kinds_and_lexemes("x = 1 # comment to end of line\ny")
    assert toks == [("ident", "x"), ("op", "="), ("int", "1"),
                    ("newline", "\n"), ("ident", "y")]


def test_newline_separates_statements():
    toks = kinds_and_lexemes("x = 1\ny = 2")
    assert ("newline", "\n") in toks


def test_newline_after_operator_continues():
    toks = kinds_and_lexemes("x = 1 +\n2")
    assert ("newline", "\n") not in toks


def test_newline_inside_brackets_continues():
    toks = kinds_and_lexemes("{1,\n2}")
    assert ("newline", "\n") not in toks


def test_string_escapes():
    toks = tokenize(r'"a\nb\t\"q\\"')
    assert toks[0].kind == "string"
    assert toks[0].lexeme == 'a\nb\t"q\\'


def test_unknown_escape():
    with pytest.raises(LexError):
        tokenize(r'"\z"')


def test_keywords():
    toks = kinds_and_lexemes("if true do :x else not false end")
    assert toks[0] == ("keyword", "if")
    assert ("keyword", "true") in toks
    assert ("keyword", "not") in toks


def test_spec_directive():
    assert kinds_and_lexemes("@spec f(integer) :: float")[0] == ("atspec", "@spec")


def test_unknown_directive():
    with pytest.raises(LexError):
        tokenize("@doc")


def test_unterminated_string():
    with pytest.raises(LexError) as exc:
        tokenize('x = "oops')
    span = exc.value.span
    assert span.source.position(span.start)[1] == 5


def test_stray_character():
    with pytest.raises(LexError):
        tokenize("x = 1 ~ 2")


@pytest.mark.parametrize("source", ["x = ²", "x = 1²", "x = 1.²"])
def test_non_decimal_digit_is_a_stray_character(source):
    # int() and float() reject superscript digits, so numbers never hold them
    with pytest.raises(LexError, match="stray character"):
        tokenize(source)


def test_spans_cover_input():
    source = "x = 10 * 9\nx + 10\n"
    for tok in tokenize(source):
        assert 0 <= tok.start <= tok.end <= len(source)
        if tok.kind not in ("newline", "eof", "string"):
            assert source[tok.start:tok.end] == tok.lexeme


def test_line_and_column_tracking():
    toks = tokenize("x = 1\n  y = 2")
    y = next(t for t in toks if t.lexeme == "y")
    assert y.source.position(y.start) == (2, 3)


@pytest.mark.parametrize("source, message, span", [
    ('"ab', "unterminated string", (0, 3, 1, 1, 1, 4)),
    ('"a\\', "unknown escape \\", (2, 2, 1, 3, 1, 3)),
    ('"a\\\nb"', "unknown escape \\\n", (2, 2, 1, 3, 1, 3)),
    ('"a\\zb"', "unknown escape \\z", (2, 2, 1, 3, 1, 3)),
    ('"ab\ncd"', "unterminated string", (0, 3, 1, 1, 1, 4)),
    (":", "expected atom name after ':'", (0, 1, 1, 1, 1, 2)),
    (": x", "expected atom name after ':'", (0, 1, 1, 1, 1, 2)),
    (":1", "expected atom name after ':'", (0, 1, 1, 1, 1, 2)),
    (":²", "expected atom name after ':'", (0, 1, 1, 1, 1, 2)),
    ("@", "unknown directive @", (0, 1, 1, 1, 1, 2)),
    ("@specs", "unknown directive @specs", (0, 6, 1, 1, 1, 7)),
    ("@doc x", "unknown directive @doc", (0, 4, 1, 1, 1, 5)),
    ("x ~ y", "stray character '~'", (2, 2, 1, 3, 1, 3)),
    ("x = 1\ny = \xa0", "stray character '\\xa0'", (10, 10, 2, 5, 2, 5)),
    ("²", "stray character '²'", (0, 0, 1, 1, 1, 1)),
])
def test_lex_error_message_and_span(source, message, span):
    # `span` is (start, end, line, col, end_line, end_col)
    with pytest.raises(LexError) as exc:
        tokenize(source)
    got = exc.value.span
    positions = (*got.source.position(got.start), *got.source.position(got.end))
    assert (exc.value.message, (got.start, got.end, *positions)) == (message, span)


def _position(source, offset):
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _assert_span_positions(source, span):
    assert span.source.text == source
    assert span.source.position(span.start) == _position(source, span.start)
    assert span.source.position(span.end) == _position(source, span.end)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=100),
    # None of "\r", "\f", "\x85" and U+2028 ends a line; only "\n" does.
    st.text(alphabet="ab \n\r\f\v\x85\u2028\u2029", max_size=100),
))
def test_position_agrees_with_count_and_rfind(text):
    source = Source(text)
    for offset in range(len(text) + 1):
        assert source.position(offset) == _position(text, offset)


def _raw_text(tok):
    """The source text a token spans, for every kind but strings."""
    if tok.kind == "newline":
        return "\n"
    if tok.kind == "atom":
        return ":" + tok.lexeme
    return tok.lexeme


_LEXEMES = sorted(KEYWORDS) + OPERATORS + PUNCTUATION + [
    "x", "_y1", "é", "1", "2.5", ":ok", '"s\\n"', "# c", "\n", "\r\n", "\t", "\\", "²",
    "\xa0", "~",
]
_SOURCES = [p.read_text() for p in sorted(CORPUS_DIR.glob("*.ex")) + sorted(DATA_DIR.glob("*.ex"))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=100),
    st.text(alphabet="az_09 \t\r\n\"#:@\\()[]{},;%+-*/=<>!^.|~²é\xa0", max_size=100),
    st.lists(st.sampled_from(_LEXEMES), max_size=60).map(" ".join),
    st.sampled_from(_SOURCES),
))
def test_spans_agree_with_offsets(source):
    try:
        tokens = tokenize(source)
    except LexError as err:
        _assert_span_positions(source, err.span)
        return
    for tok in tokens:
        _assert_span_positions(source, tok)
        if tok.kind != "string":
            assert source[tok.start:tok.end] == _raw_text(tok)
