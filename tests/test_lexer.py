from hypothesis import given, settings, strategies as st

from mpgen.minilang import lexer, tokens as tk
from mpgen.minilang.lexer import Diagnostic, lex
from mpgen.minilang.render import render_tokens

from conftest import CORPUS
from oracles import match_loop_lex

CORPUS_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*/*/*.mp"))]


def kinds_texts(toks):
    return [(t.kind, t.text) for t in toks if t.kind not in (tk.NEWLINE, tk.INDENT, tk.DEDENT)]


def test_minimal_statement():
    assert kinds_texts(lex("x = 1")[0]) == [
        (tk.IDENTIFIER, "x"),
        (tk.OPERATOR, "="),
        (tk.NUMBER, "1"),
    ]


def test_identifiers_are_maximal_runs():
    # identifiers are maximal [A-Za-z_][A-Za-z0-9_]* runs
    assert kinds_texts(lex("self._registered_updates")[0]) == [
        (tk.IDENTIFIER, "self"),
        (tk.PUNCTUATOR, "."),
        (tk.IDENTIFIER, "_registered_updates"),
    ]


def test_empty_input():
    assert lex("")[0] == []


def test_keywords_vs_identifiers():
    toks = kinds_texts(lex("return returned")[0])
    assert toks == [(tk.KEYWORD, "return"), (tk.IDENTIFIER, "returned")]


def test_indentation_tokens():
    toks = lex("if x:\n    y = 1\nz = 2")[0]
    kinds = [t.kind for t in toks]
    assert tk.INDENT in kinds and tk.DEDENT in kinds
    assert kinds.index(tk.INDENT) < kinds.index(tk.DEDENT)


def test_marker_literal_lexes_as_marker():
    toks = kinds_texts(lex("<COMP>self")[0])
    assert toks[0] == (tk.MARKER, "<COMP>")
    assert toks[1] == (tk.IDENTIFIER, "self")


def test_illegal_character_raises_with_position():
    toks, diags = lex("x = $")
    assert [t for t in toks if t.kind == tk.ERROR] == [tk.LexToken(tk.ERROR, "$", 1, 4)]
    assert diags == [Diagnostic("illegal character '$'", 1, 4)]


def test_illegal_character_collected_in_tolerant_mode():
    toks, diags = lex("x = $")
    assert any(t.kind == tk.ERROR for t in toks)
    assert len(diags) == 1


def test_unterminated_string_yields_error_token_and_diagnostic():
    toks, diags = lex('x = "abc')
    assert any(t.kind == tk.ERROR and t.text.startswith('"') for t in toks)
    assert any("unterminated" in d.message for d in diags)


def test_positions_point_at_first_character():
    toks = lex("ab = cd")[0]
    ident = [t for t in toks if t.kind == tk.IDENTIFIER]
    assert (ident[0].line, ident[0].column) == (1, 0)
    assert (ident[1].line, ident[1].column) == (1, 5)


def test_positions_strictly_increase():
    src = "def f(a):\n    if a > 1:\n        return a\n    return 0\nx = 1"
    toks = lex(src)[0]
    positions = [(t.line, t.column) for t in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


def test_blank_lines_produce_no_tokens():
    assert lex("\n   \n")[0] == []
    a = lex("x = 1\n\n\ny = 2")[0]
    b = lex("x = 1\ny = 2")[0]
    assert kinds_texts(a) == kinds_texts(b)


_SNIPPETS = st.sampled_from(
    [
        "x = 1",
        "def f(a, b):\n    return a + b",
        'm = "text"',
        "while n > 0:\n    n = n - 1",
        "if a == b:\n    c = a * b\nd = 1",
        "obj.attr_name(arg, 2)",
    ]
)


@given(_SNIPPETS)
def test_render_lex_fixpoint(src):
    # rendering a token stream and re-lexing it reproduces the same tokens
    toks = lex(src)[0]
    rendered = render_tokens(toks)
    again = lex(rendered)[0]
    assert [(t.kind, t.text) for t in toks] == [(t.kind, t.text) for t in again]


def _same_lex(text):
    got, want = lex(text), match_loop_lex(text)
    assert got == want
    assert repr(got) == repr(want)


def test_one_scan_per_line_equals_one_match_per_lexeme_on_the_corpus():
    assert len(CORPUS_TEXTS) == 60
    for text in CORPUS_TEXTS:
        _same_lex(text)


_NOISE = st.sampled_from(
    list(tk.MARKER_TEXTS)
    + ["<COM", "$", '"', '"ab', "\t", "\t\t", "\n   ", "\n  ", "\n ", "   ", "?", "\u00e9", "\r",
       ".", "1.", "==", "!", "<", "\n"]
)


@settings(max_examples=500, deadline=None)
@given(text=st.sampled_from(CORPUS_TEXTS), data=st.data())
def test_one_scan_per_line_equals_one_match_per_lexeme_on_mutants(text, data):
    for _ in range(data.draw(st.integers(1, 8))):
        i = data.draw(st.integers(0, len(text)))
        text = text[:i] + data.draw(_NOISE) + text[i:]
    _same_lex(text)
