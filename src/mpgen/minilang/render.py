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


class Renderer:
    """Canonical text built up one (token kind, text) item at a time.

    Kinds are those of `tokens`. Indentation state is tracked from indent and
    dedent items; a newline item emits "\\n" and the next content item is
    prefixed with the current indentation. The text of line-structure items
    is ignored. A renderer can be read at any point, so a growing sequence
    is rendered once, not once per read.
    """

    __slots__ = ("_parts", "_level", "_prev")

    def __init__(self):
        self._parts: list[str] = []
        self._level = 0
        # The line's last content item; None at the start of a line.
        self._prev: tuple[str, str] | None = None

    def add(self, kind: str, text: str) -> None:
        if kind == tk.NEWLINE:
            self._parts.append("\n")
            self._prev = None
        elif kind == tk.INDENT:
            self._level += 1
        elif kind == tk.DEDENT:
            self._level = max(0, self._level - 1)
        else:
            prev = self._prev
            if prev is None:
                self._parts.append(" " * (INDENT_WIDTH * self._level) + text)
            else:
                self._parts.append(_separator(prev[0], prev[1], kind, text) + text)
            self._prev = (kind, text)

    def text(self) -> str:
        """The text of the items added so far, with no trailing newline."""
        return "".join(self._parts).rstrip("\n")


def render_items(items: Iterable[tuple[str, str]]) -> str:
    """Render (token kind, text) items to canonical source text, as a
    `Renderer` fed them in order does."""
    renderer = Renderer()
    for kind, text in items:
        renderer.add(kind, text)
    return renderer.text()


def render_tokens(tokens: Iterable[LexToken]) -> str:
    """Canonical text for any LexToken sequence (markers included verbatim).

    A function's body tokens render at indent level 0.
    """
    return render_items((t.kind, t.text) for t in tokens)
