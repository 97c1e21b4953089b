"""Indentation-aware lexer for MiniPy source text.

`lex` never raises: the completion tool and the linter run on half-written
code, so an illegal character or an unterminated string literal becomes an
error token plus a diagnostic, and lexing goes on. `Diagnostic` is the one
diagnostic record of the front end: the parser reports in it too, and keeps
the lexer's records as they are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import tokens as tk
from .tokens import LexToken


@dataclass(frozen=True)
class Diagnostic:
    """A lex or parse error at a 1-based line and 0-based column."""

    message: str
    line: int
    column: int


def _any_of(texts) -> str:
    """A regex for any one of texts: the longer ones first, which the regex
    then prefers, and the single characters in one class."""
    longer = [re.escape(t) for t in sorted(texts, key=len, reverse=True) if len(t) > 1]
    return "|".join(longer + ["[" + "".join(re.escape(t) for t in texts if len(t) == 1) + "]"])


_TOKEN_RE = re.compile(
    rf"""
      (?P<marker>{'|'.join(map(re.escape, tk.MARKER_TEXTS))})
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<number>[0-9]+(?:\.[0-9]+)?)
    | (?P<string>"[^"\n]*")
    | (?P<unterminated>"[^"\n]*)
    | (?P<op>{_any_of(tk.OPERATORS)})
    | (?P<punct>{_any_of(tk.PUNCTUATORS)})
    | (?P<space>\ +)
    | (?P<illegal>.)
    """,
    re.VERBOSE,
)

# Token kind of each regex group; a name in KEYWORDS becomes a keyword, and
# spaces yield no token. The last group takes any one character no other
# group matches, so one scan covers a whole line.
_GROUP_KIND = {
    "marker": tk.MARKER,
    "name": tk.IDENTIFIER,
    "number": tk.NUMBER,
    "string": tk.STRING,
    "unterminated": tk.ERROR,
    "op": tk.OPERATOR,
    "punct": tk.PUNCTUATOR,
    "space": None,
    "illegal": tk.ERROR,
}


class LineLexer:
    """`lex`'s engine, fed one source line at a time.

    Between lines its whole state is the tokens and diagnostics so far, the
    indent stack, and the position of the last newline, where synthetic
    dedent tokens go; `copy` saves that state, so lexing can resume from it.
    """

    __slots__ = ("tokens", "diagnostics", "_indents", "_last_line", "_last_col")

    def __init__(self):
        self.tokens: list[LexToken] = []
        self.diagnostics: list[Diagnostic] = []
        self._indents = [0]
        # Position for synthetic dedent tokens: just past the previous
        # newline, keeping positions strictly increasing.
        self._last_line = 0
        self._last_col = 0

    def copy(self) -> "LineLexer":
        other = LineLexer()
        other.tokens = self.tokens[:]
        other.diagnostics = self.diagnostics[:]
        other._indents = self._indents[:]
        other._last_line = self._last_line
        other._last_col = self._last_col
        return other

    def line(self, lineno: int, raw: str) -> None:
        """Lex line number lineno (1-based), raw without its newline."""
        stripped = raw.lstrip(" ")
        if stripped == "":
            # Blank or whitespace-only line: no tokens, no indent change.
            return
        out = self.tokens
        diags = self.diagnostics
        indents = self._indents
        indent = len(raw) - len(stripped)
        if indent > indents[-1]:
            indents.append(indent)
            out.append(LexToken(tk.INDENT, "", lineno, 0))
        elif indent < indents[-1]:
            n = 0
            while indents[-1] > indent:
                indents.pop()
                out.append(LexToken(tk.DEDENT, "", self._last_line, self._last_col + 1 + n))
                n += 1
            if indents[-1] != indent:
                diags.append(
                    Diagnostic("unindent does not match any outer level", lineno, 0)
                )
                indents.append(indent)
                out.append(LexToken(tk.INDENT, "", lineno, 0))

        for m in _TOKEN_RE.finditer(raw, indent):
            group = m.lastgroup
            kind = _GROUP_KIND[group]
            if kind is None:
                continue
            text = m.group()
            if kind == tk.IDENTIFIER:
                if text in tk.KEYWORDS:
                    kind = tk.KEYWORD
            elif kind == tk.ERROR:
                message = (
                    f"illegal character {text!r}" if group == "illegal"
                    else "unterminated string literal"
                )
                diags.append(Diagnostic(message, lineno, m.start()))
            out.append(LexToken(kind, text, lineno, m.start()))

        out.append(LexToken(tk.NEWLINE, "", lineno, len(raw)))
        self._last_line = lineno
        self._last_col = len(raw)

    def finish(self) -> tuple[list[LexToken], list[Diagnostic]]:
        """Close every open indentation level; the (tokens, diagnostics) pair."""
        indents = self._indents
        n = 0
        while len(indents) > 1:
            indents.pop()
            self.tokens.append(LexToken(tk.DEDENT, "", self._last_line, self._last_col + 1 + n))
            n += 1
        return self.tokens, self.diagnostics


def lex(source: str) -> tuple[list[LexToken], list[Diagnostic]]:
    """Lex MiniPy source into a (tokens, diagnostics) pair.

    Illegal characters and unterminated string literals become error tokens,
    each with a diagnostic at its position.

    Indentation is encoded as indent/dedent tokens. Blank (or all-space)
    lines produce no tokens. Every content line is terminated by a newline
    token whether or not the source ends with one.
    """
    lexer = LineLexer()
    for lineno, raw in enumerate(source.split("\n"), start=1):
        lexer.line(lineno, raw)
    return lexer.finish()
