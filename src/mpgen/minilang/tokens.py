"""Token kinds and the lexical token record shared across the package.

These kinds are the only lexeme taxonomy from the lexer to the decoder: the
renderer spaces (kind, text) pairs by them, and the model vocabulary gives
each of its tokens one of them when it is built.
"""

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

# The only spelling of each operator and punctuator: the lexer's regex groups
# and the vocabulary's token kinds are built from these.
OPERATORS = ("==", "!=", "<", ">", "+", "-", "*", "/", "=")
PUNCTUATORS = ("(", ")", ",", ".", ":")

# The reserved marker literals, in vocabulary id order; the only spelling of
# each. The lexer reads them as marker tokens, and they open every vocabulary.
COMP_TEXT = "<COMP>"
MARKER_TEXTS = ("<BOS>", "<EOS>", "<UNK>", COMP_TEXT)


@dataclass(slots=True, unsafe_hash=True)
class LexToken:
    """One lexeme with its source position.

    line is 1-based, column is 0-based; both point at the first character of
    the lexeme. Synthetic tokens (newline/indent/dedent) carry positions
    chosen so that the token stream stays strictly increasing.

    Tokens are values: nothing assigns to a field once one is built, so the
    hash holds. The class is slotted and not frozen because the lexer builds
    one per lexeme, and a frozen dataclass's initializer costs several times
    as much.
    """

    kind: str
    text: str
    line: int
    column: int
