"""Canonical text rendering shared by the lexer-level and model-level views.

The same spacing engine serves two producers, both speaking the token kinds
of `tokens`: rendering LexToken streams (parser round-trips, augmented
function bodies) and detokenizing language model tokens, each classified
once by its vocabulary, back into source text. Canonical form means single
spaces between tokens, no space around '.', none inside call parentheses,
4-space indents, and marker tokens glued to the token that follows them.
"""

from __future__ import annotations

from typing import Iterable

from . import tokens as tk
from .tokens import LexToken

# Identifier subwords join with no separator, which is what makes subword
# sequences like ["_", "registered", "_", "updates"] reassemble correctly;
# error tokens (illegal characters) join the same way, so `x$y` stays whole.
_JOINING = frozenset({tk.IDENTIFIER, tk.ERROR})

_NO_SPACE_BEFORE = {")", ",", ":", ".", "("}
_NO_SPACE_AFTER = {"(", "."}

INDENT_WIDTH = 4


def _separator(prev_kind: str, prev_text: str, kind: str, text: str) -> str:
    if prev_kind == tk.MARKER:
        return ""
    # Word-word and word-number adjacency only arises from splitting one
    # identifier into subwords (digit-bearing subwords classify as numbers);
    # distinct word and number lexemes are never adjacent in the grammar, so
    # joining is lossless.
    if prev_kind in _JOINING and (kind in _JOINING or kind == tk.NUMBER):
        return ""
    if prev_kind == tk.NUMBER and kind in _JOINING:
        return ""
    if prev_kind == tk.PUNCTUATOR and prev_text in _NO_SPACE_AFTER:
        return ""
    if kind == tk.PUNCTUATOR and text in _NO_SPACE_BEFORE:
        return ""
    return " "


def render_items(items: Iterable[tuple[str, str]]) -> str:
    """Render (token kind, text) items to canonical source text.

    Kinds are those of `tokens`. Indentation state is tracked from indent and
    dedent items; a newline item emits "\\n" and the next content item is
    prefixed with the current indentation. The text of line-structure items
    is ignored. Output has no trailing newline.
    """
    parts: list[str] = []
    level = 0
    at_line_start = True
    prev: tuple[str, str] | None = None
    for kind, text in items:
        if kind == tk.NEWLINE:
            parts.append("\n")
            at_line_start = True
            prev = None
            continue
        if kind == tk.INDENT:
            level += 1
            continue
        if kind == tk.DEDENT:
            level = max(0, level - 1)
            continue
        if at_line_start:
            parts.append(" " * (INDENT_WIDTH * level))
            at_line_start = False
        elif prev is not None:
            parts.append(_separator(prev[0], prev[1], kind, text))
        parts.append(text)
        prev = (kind, text)
    text_out = "".join(parts)
    return text_out.rstrip("\n")


def render_tokens(tokens: Iterable[LexToken]) -> str:
    """Canonical text for any LexToken sequence (markers included verbatim).

    A function's body tokens render at indent level 0.
    """
    return render_items((t.kind, t.text) for t in tokens)
