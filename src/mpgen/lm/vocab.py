"""The expanded model vocabulary with reserved control tokens.

Index layout is fixed: <BOS>=0, <EOS>=1, <UNK>=2, <COMP>=3, then every
distinct subword seen in the corpus in lexicographic order. The trigger
token <COMP> is always present whether or not the corpus contains it, which
is what makes it a legal prediction target at every step.

The model-token spellings live here: the reserved tokens are the lexer's
marker literals, and line structure is spelled by `STRUCTURE_TOKENS`. A
vocabulary gives each of its tokens one lexer token kind when it is built,
and `item` answers (kind, token) per id, which is all rendering needs. It
also records then whether a run of its word tokens, which render joined, can
spell a keyword (`words_spell_keyword`); the generation cache reads keywords
as single items, so it keys nothing for such a vocabulary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from ..minilang import tokens as tk

RESERVED_TOKENS = tk.MARKER_TEXTS

BOS_ID = 0
EOS_ID = 1
UNK_ID = 2
COMP_ID = 3

UNK_TOKEN = RESERVED_TOKENS[UNK_ID]

# ids stripped out when rendering generated text / inserting partials
CONTROL_IDS = frozenset({BOS_ID, EOS_ID, COMP_ID})

# The model token that spells each line-structure kind.
STRUCTURE_TOKENS = {tk.NEWLINE: "<NL>", tk.INDENT: "<INDENT>", tk.DEDENT: "<DEDENT>"}

# Kinds of the tokens with a fixed spelling; these spellings are disjoint.
_FIXED_KINDS = {
    **{s: kind for kind, s in STRUCTURE_TOKENS.items()},
    **dict.fromkeys(RESERVED_TOKENS, tk.MARKER),
    **dict.fromkeys(tk.KEYWORDS, tk.KEYWORD),
    **dict.fromkeys(tk.OPERATORS, tk.OPERATOR),
    **dict.fromkeys(tk.PUNCTUATORS, tk.PUNCTUATOR),
}
_NUMBER_RE = re.compile(r"[0-9]+(\.[0-9]+)?\Z")


def _token_kind(token: str) -> str:
    """The kind a model token renders as; any other token is a word, that is
    an identifier or one of its subwords."""
    kind = _FIXED_KINDS.get(token)
    if kind is not None:
        return kind
    if _NUMBER_RE.match(token):
        return tk.NUMBER
    if token.startswith('"'):
        return tk.STRING
    return tk.IDENTIFIER


def _is_run_of_words(text: str, words: set[str]) -> bool:
    """Whether text is two or more of the words, joined."""
    starts = [0]  # 0 and the ends of the prefixes of text that a run of words spells
    for end in range(1, len(text)):
        if any(text[i:end] in words for i in starts):
            starts.append(end)
    return any(text[i:] in words for i in starts[1:])


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {t: i for i, t in enumerate(self.tokens)}
        )
        object.__setattr__(
            self, "_items", tuple((_token_kind(t), t) for t in self.tokens)
        )
        words = {t for kind, t in self._items if kind == tk.IDENTIFIER}
        object.__setattr__(
            self, "words_spell_keyword", any(_is_run_of_words(k, words) for k in tk.KEYWORDS)
        )

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        """Token id, falling back to <UNK> for unknown subwords."""
        return self._index.get(token, UNK_ID)

    def token(self, idx: int) -> str:
        return self.item(idx)[1]

    def item(self, idx: int) -> tuple[str, str]:
        """The (token kind, token) pair of an id."""
        if not (0 <= idx < len(self._items)):
            raise ValueError(f"unknown token id {idx}")
        return self._items[idx]


def build_vocab(streams: Iterable[Iterable[str]]) -> Vocab:
    """Vocabulary over token-string streams, one per text as
    `tokenizer.token_strings` splits it: reserved tokens plus sorted subwords."""
    streams = list(streams)
    if not streams:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    seen = set().union(*streams).difference(RESERVED_TOKENS)
    return Vocab(tokens=RESERVED_TOKENS + tuple(sorted(seen)))
