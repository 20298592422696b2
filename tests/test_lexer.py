import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, DATA_DIR
from extc.diagnostics import Source, Span
from extc.lexer import KEYWORDS, OPERATORS, PUNCTUATION, LexError, tokenize
from reference_lexer import reference_tokenize

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import gen  # noqa: E402


def rows(tokens):
    """`tokens`, the columns `tokenize` gives, as (kind, lexeme, start, end) rows."""
    return list(zip(tokens.kinds, tokens.lexemes, tokens.starts, tokens.ends))


def kinds_and_lexemes(source):
    return [(kind, lexeme) for kind, lexeme, _, _ in rows(tokenize(source)) if kind != "eof"]


def test_atom():
    assert kinds_and_lexemes(":ok") == [("atom", "ok")]


def test_atoms_from_listing():
    toks = kinds_and_lexemes(":ok :error :apple")
    assert toks == [("atom", "ok"), ("atom", "error"), ("atom", "apple")]


def test_longest_match_identity_op():
    assert kinds_and_lexemes("a===b") == [("ident", "a"), ("===", "==="), ("ident", "b")]


def test_longest_match_not_identical():
    assert kinds_and_lexemes("a!==b") == [("ident", "a"), ("!==", "!=="), ("ident", "b")]


def test_float_then_plus():
    assert kinds_and_lexemes("1.5+x") == [("float", "1.5"), ("+", "+"), ("ident", "x")]


def test_integer_dot_is_not_float():
    # No digits after the dot: lexes as integer followed by '.'
    assert kinds_and_lexemes("1.x") == [("int", "1"), (".", "."), ("ident", "x")]


def test_double_colon_vs_atom():
    assert kinds_and_lexemes(") :: float")[1] == ("::", "::")


def test_compound_tokens_stay_whole():
    for op in ["<>", "++", "--", "::", "=>", "->", "<=", ">=", "!=", "!=="]:
        assert kinds_and_lexemes(f"a {op} b")[1] == (op, op)


def test_comments_and_whitespace_dropped():
    toks = kinds_and_lexemes("x = 1 # comment to end of line\ny")
    assert toks == [("ident", "x"), ("=", "="), ("int", "1"),
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
    kind, lexeme, _, _ = rows(tokenize(r'"a\nb\t\"q\\"'))[0]
    assert kind == "string"
    assert lexeme == 'a\nb\t"q\\'


def test_class_kinds_spell_no_symbol():
    # A symbol's kind is its text, so a class kind that spelled one would be taken for it.
    class_kinds = {"ident", "int", "float", "string", "atom", "atspec", "newline", "eof"}
    assert not class_kinds & (KEYWORDS | set(OPERATORS) | set(PUNCTUATION))


@pytest.mark.parametrize("source, row", [
    ('"("', ("string", "(")), ('"end"', ("string", "end")), (r'"\n"', ("string", "\n")),
    (":do", ("atom", "do")), (":end", ("atom", "end")),
])
def test_string_or_atom_that_spells_a_symbol_keeps_its_class_kind(source, row):
    assert kinds_and_lexemes(source) == [row]


def test_unknown_escape():
    with pytest.raises(LexError):
        tokenize(r'"\z"')


def test_keywords():
    toks = kinds_and_lexemes("if true do :x else not false end")
    assert toks[0] == ("if", "if")
    assert ("true", "true") in toks
    assert ("not", "not") in toks


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
    for kind, lexeme, start, end in rows(tokenize(source)):
        assert 0 <= start <= end <= len(source)
        if kind not in ("newline", "eof", "string"):
            assert source[start:end] == lexeme


def test_line_and_column_tracking():
    toks = tokenize("x = 1\n  y = 2")
    y = toks.lexemes.index("y")
    assert toks.source.position(toks.starts[y]) == (2, 3)


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


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab \n\r\f\v\x85\u2028\u2029", max_size=100))
def test_line_agrees_with_split(text):
    # A final newline, or an empty file, starts no line.
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    source = Source(text)
    count = source.position(len(text))[0]  # every line `position` can name
    assert [source.line(number) for number in range(1, count + 1)] == (lines + [None])[:count]


def _raw_text(kind, lexeme):
    """The source text a token spans, for every kind but strings."""
    if kind == "newline":
        return "\n"
    if kind == "atom":
        return ":" + lexeme
    return lexeme


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
    for kind, lexeme, start, end in rows(tokens):
        _assert_span_positions(source, Span(start, end, tokens.source))
        if kind != "string":
            assert source[start:end] == _raw_text(kind, lexeme)


def _outcome(text):
    """`tokenize(text)` as rows, or its `LexError` as (message, start, end)."""
    try:
        return rows(tokenize(text))
    except LexError as err:
        return err.message, err.span.start, err.span.end


def _reference(text):
    """`reference_tokenize(text)` as `_outcome` gives it. The reference's
    `keyword`, `op` and `punct` kinds become the lexeme, which is the kind
    `tokenize` gives a symbol; that loses nothing, as lexemes are compared too."""
    result = reference_tokenize(text)
    if isinstance(result, LexError):
        return result.message, result.span.start, result.span.end
    return [(lexeme if kind in ("keyword", "op", "punct") else kind, lexeme, start, end)
            for kind, lexeme, start, end in result]


# Pieces that meet the lexer's edge cases: brackets around newlines, escapes
# and quotes, comments, atoms, directives, and characters that start no token
# or are word characters but start no name.
_EDGE = ["(", ")", "[", "]", "{", "}", "%{", "\n", "\n", "\\", '"', '\\"', "\\n", "\\z",
         "#", "# c\n", ":", ":ok", "::", "@", "@spec", "@doc", "é", "²", "$", " ", "\t",
         "x", "_", "1", "1.5", ",", ";", "do", "end", "fn", "+", "->", "="]


def _mutants(sources, count, seed):
    """`count` excerpts of `sources`, each with one to three pieces of
    `_EDGE` inserted, characters deleted or a stretch repeated."""
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(sources)
        start = rng.randrange(len(text))
        text = text[start:start + rng.randrange(20, 300)]
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:at] + rng.choice(_EDGE) + text[at:]
            elif edit == 1:
                text = text[:at] + text[at + rng.randint(1, 3):]
            else:
                text = text[:at] + text[at:at + 8] + text[at:]
        yield text


class TestDifferential:
    """`tokenize` gives the tokens of the match-loop tokenizer it replaced,
    frozen in `tests/reference_lexer.py`: the same kind, lexeme, start and
    end, or the same `LexError` message and span."""

    @pytest.fixture(scope="class")
    def workload_sources(self):
        return [text for workload in (gen.legacy_migration, gen.dense_bodies)
                for seed in (1, 2, 3) for text in workload(seed).files.values()]

    def test_corpus_and_data(self):
        for text in _SOURCES:
            assert _outcome(text) == _reference(text)

    def test_workload_corpora(self, workload_sources):
        for text in workload_sources:
            assert _outcome(text) == _reference(text)

    def test_mutated_excerpts(self, workload_sources):
        for text in _mutants(_SOURCES + workload_sources, 3000, seed=15):
            assert _outcome(text) == _reference(text), text

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(_EDGE), max_size=30).map("".join))
    @example(")\nx\ny")  # a closer at depth 0 leaves the depth at 0
    @example('"a\\"')  # an escaped quote closes no string
    @example(': "a')  # the first error in source order wins
    @example('"\\n"\n"("\nx')  # strings that unescape to a newline or a bracket
    def test_edge_alphabet(self, text):
        assert _outcome(text) == _reference(text)
