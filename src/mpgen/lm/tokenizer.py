"""Rule-based subword tokenizer over MiniPy lexical boundaries.

Text is first lexed; identifiers are then split at underscores (each
underscore is its own token) and at lowercase-to-uppercase transitions, so
multi-word identifiers become several vocabulary tokens. Keywords,
operators, punctuators and literals map one-to-one. Line structure maps to
the plain tokens <NL>, <INDENT>, <DEDENT>. The reserved marker literals map
to their fixed ids. Splitting is injective: concatenating an identifier's
subwords reproduces the identifier, so detokenization is exact up to the
canonical whitespace normalization.
"""

from __future__ import annotations

import re

from ..minilang import render as rnd
from ..minilang import tokens as tk
from ..minilang.lexer import lex
from .vocab import RESERVED_TOKENS, UNK_TOKEN, Vocab

NL_TOKEN = "<NL>"
INDENT_TOKEN = "<INDENT>"
DEDENT_TOKEN = "<DEDENT>"

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NUMBER_RE = re.compile(r"[0-9]+(\.[0-9]+)?\Z")


def split_identifier(name: str) -> list[str]:
    parts: list[str] = []
    buf = ""
    for ch in name:
        if ch == "_":
            if buf:
                parts.append(buf)
                buf = ""
            parts.append("_")
        elif buf and ch.isupper() and buf[-1].islower():
            parts.append(buf)
            buf = ch
        else:
            buf += ch
    if buf:
        parts.append(buf)
    return parts


def token_strings(text: str) -> list[str]:
    """The tokenizer's string stream for a text (pre-vocabulary)."""
    toks, _ = lex(text)
    out: list[str] = []
    for t in toks:
        if t.kind == tk.NEWLINE:
            out.append(NL_TOKEN)
        elif t.kind == tk.INDENT:
            out.append(INDENT_TOKEN)
        elif t.kind == tk.DEDENT:
            out.append(DEDENT_TOKEN)
        elif t.kind == tk.IDENTIFIER:
            out.extend(split_identifier(t.text))
        elif t.kind == tk.MARKER:
            out.append(t.text)
        elif t.kind == tk.ERROR:
            out.append(UNK_TOKEN)
        else:
            out.append(t.text)
    # Trailing line-structure tokens carry no content; dropping them keeps
    # tokenize/detokenize exact inverses under the canonical normalization
    # (which strips trailing newlines anyway).
    while out and out[-1] in (NL_TOKEN, DEDENT_TOKEN):
        out.pop()
    return out


def tokenize(text: str, vocab: Vocab) -> list[int]:
    return [vocab.id(s) for s in token_strings(text)]


def _classify(token: str) -> tuple[str, str]:
    if token == NL_TOKEN:
        return (rnd.NEWLINE, "")
    if token == INDENT_TOKEN:
        return (rnd.INDENT, "")
    if token == DEDENT_TOKEN:
        return (rnd.DEDENT, "")
    if token in RESERVED_TOKENS:
        return (rnd.MARKER, token)
    if token in tk.KEYWORDS:
        return (rnd.KEYWORD, token)
    if token in tk.OPERATORS:
        return (rnd.OP, token)
    if token in tk.PUNCTUATORS:
        return (rnd.PUNCT, token)
    if _NUMBER_RE.match(token):
        return (rnd.NUMBER, token)
    if token.startswith('"'):
        return (rnd.STRING, token)
    if _WORD_RE.match(token):
        return (rnd.WORD, token)
    return (rnd.WORD, token)


def detokenize(ids, vocab: Vocab) -> str:
    """Inverse of tokenize up to canonical whitespace normalization."""
    items = [_classify(vocab.token(i)) for i in ids]
    return rnd.render_items(items)
