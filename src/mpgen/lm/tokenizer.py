"""Rule-based subword tokenizer over MiniPy lexical boundaries.

Text is first lexed; identifiers are then split at underscores (each
underscore is its own token) and at lowercase-to-uppercase transitions, so
multi-word identifiers become several vocabulary tokens. Keywords,
operators, punctuators and literals map one-to-one. Line structure maps to
the plain tokens <NL>, <INDENT>, <DEDENT> of `vocab.STRUCTURE_TOKENS`. The
reserved marker literals map to their fixed ids. Splitting is injective:
concatenating an identifier's subwords reproduces the identifier, so
detokenization is exact up to the canonical whitespace normalization.
Detokenizing renders each id's (kind, token) pair, which the vocabulary
decided when it was built.
"""

from __future__ import annotations

from ..minilang import render as rnd
from ..minilang import tokens as tk
from ..minilang.lexer import lex
from .vocab import STRUCTURE_TOKENS, UNK_TOKEN, Vocab

NL_TOKEN = STRUCTURE_TOKENS[tk.NEWLINE]


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


def token_strings(text: str, *, lexed=None) -> list[str]:
    """The tokenizer's string stream for a text (pre-vocabulary).

    lexed, when given, must be `lex(text)`; passing it saves lexing the same
    text a second time.
    """
    toks, _ = lexed if lexed is not None else lex(text)
    out: list[str] = []
    for t in toks:
        if t.kind == tk.IDENTIFIER:
            out.extend(split_identifier(t.text))
        elif t.kind == tk.ERROR:
            out.append(UNK_TOKEN)
        else:
            out.append(STRUCTURE_TOKENS.get(t.kind, t.text))
    # Trailing line-structure tokens carry no content; dropping them keeps
    # tokenize/detokenize exact inverses under the canonical normalization
    # (which strips trailing newlines anyway).
    while out and out[-1] in (NL_TOKEN, STRUCTURE_TOKENS[tk.DEDENT]):
        out.pop()
    return out


def tokenize(text: str, vocab: Vocab, *, lexed=None) -> list[int]:
    return [vocab.id(s) for s in token_strings(text, lexed=lexed)]


def detokenize(ids, vocab: Vocab) -> str:
    """Inverse of tokenize up to canonical whitespace normalization."""
    return rnd.render_items(map(vocab.item, ids))
