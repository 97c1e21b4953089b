"""Token kinds and the lexical token record shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

KEYWORD = "keyword"
IDENTIFIER = "identifier"
NUMBER = "number-literal"
STRING = "string-literal"
OPERATOR = "operator"
PUNCTUATOR = "punctuator"
NEWLINE = "newline"
INDENT = "indent"
DEDENT = "dedent"
# Two kinds beyond the plain-source taxonomy: "marker" for the reserved
# control-token literals that may appear in augmented code, "error" for
# unterminated strings and illegal characters.
MARKER = "marker"
ERROR = "error"

KEYWORDS = frozenset({"def", "class", "return", "if", "else", "while", "import", "from"})

# Multi-character operators must come first so the regex prefers them.
OPERATORS = ("==", "!=", "<", ">", "+", "-", "*", "/", "=")
PUNCTUATORS = ("(", ")", ",", ".", ":")

BOS_TEXT = "<BOS>"
EOS_TEXT = "<EOS>"
UNK_TEXT = "<UNK>"
COMP_TEXT = "<COMP>"
MARKER_TEXTS = (BOS_TEXT, EOS_TEXT, UNK_TEXT, COMP_TEXT)


@dataclass(frozen=True)
class LexToken:
    """One lexeme with its source position.

    line is 1-based, column is 0-based; both point at the first character of
    the lexeme. Synthetic tokens (newline/indent/dedent) carry positions
    chosen so that the token stream stays strictly increasing.
    """

    kind: str
    text: str
    line: int
    column: int

    @property
    def pos(self) -> tuple[int, int]:
        return (self.line, self.column)
