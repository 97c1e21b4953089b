"""Canonical text rendering shared by the lexer-level and model-level views.

The same spacing engine serves two producers: rendering LexToken streams
(parser round-trips, augmented function bodies) and detokenizing language
model token strings back into source text. Canonical form means single
spaces between tokens, no space around '.', none inside call parentheses,
4-space indents, and marker tokens glued to the token that follows them.
"""

from __future__ import annotations

from typing import Iterable

from . import tokens as tk
from .tokens import LexToken

# Renderer categories. "word" covers identifiers and identifier subwords;
# consecutive words join with no separator, which is what makes subword
# sequences like ["_", "registered", "_", "updates"] reassemble correctly.
WORD = "word"
KEYWORD = "keyword"
NUMBER = "number"
STRING = "string"
OP = "op"
PUNCT = "punct"
MARKER = "marker"
NEWLINE = "newline"
INDENT = "indent"
DEDENT = "dedent"

_KIND_TO_CAT = {
    tk.KEYWORD: KEYWORD,
    tk.IDENTIFIER: WORD,
    tk.NUMBER: NUMBER,
    tk.STRING: STRING,
    tk.OPERATOR: OP,
    tk.PUNCTUATOR: PUNCT,
    tk.NEWLINE: NEWLINE,
    tk.INDENT: INDENT,
    tk.DEDENT: DEDENT,
    tk.MARKER: MARKER,
    tk.ERROR: WORD,
}

_NO_SPACE_BEFORE = {")", ",", ":", ".", "("}
_NO_SPACE_AFTER = {"(", "."}

INDENT_WIDTH = 4


def _separator(prev_cat: str, prev_text: str, cat: str, text: str) -> str:
    if prev_cat == MARKER:
        return ""
    # Word-word and word-number adjacency only arises from splitting one
    # identifier into subwords (digit-bearing subwords classify as numbers);
    # distinct word and number lexemes are never adjacent in the grammar, so
    # joining is lossless.
    if prev_cat == WORD and cat in (WORD, NUMBER):
        return ""
    if prev_cat == NUMBER and cat == WORD:
        return ""
    if prev_cat == PUNCT and prev_text in _NO_SPACE_AFTER:
        return ""
    if cat == PUNCT and text in _NO_SPACE_BEFORE:
        return ""
    return " "


def render_items(items: Iterable[tuple[str, str]]) -> str:
    """Render (category, text) items to canonical source text.

    Indentation state is tracked from indent/dedent items; a newline item
    emits "\\n" and the next content item is prefixed with the current
    indentation. Output has no trailing newline.
    """
    parts: list[str] = []
    level = 0
    at_line_start = True
    prev: tuple[str, str] | None = None
    for cat, text in items:
        if cat == NEWLINE:
            parts.append("\n")
            at_line_start = True
            prev = None
            continue
        if cat == INDENT:
            level += 1
            continue
        if cat == DEDENT:
            level = max(0, level - 1)
            continue
        if at_line_start:
            parts.append(" " * (INDENT_WIDTH * level))
            at_line_start = False
        elif prev is not None:
            parts.append(_separator(prev[0], prev[1], cat, text))
        parts.append(text)
        prev = (cat, text)
    text_out = "".join(parts)
    return text_out.rstrip("\n")


def render_tokens(tokens: Iterable[LexToken]) -> str:
    """Canonical text for any LexToken sequence (markers included verbatim).

    A function's body tokens render at indent level 0.
    """
    return render_items((_KIND_TO_CAT[t.kind], t.text) for t in tokens)
