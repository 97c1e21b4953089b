"""Splicing a partial function into a repository snapshot.

Used during generation: the text rendered so far is inserted at the
reserved position so the completion tool sees the caret in real context.
Control tokens (<BOS>, <EOS>, <COMP>) are removed before rendering so the
inserted text stays lexable. The input repository is never modified.
"""

from __future__ import annotations

from typing import Sequence

from ..repo import CaretPosition, Repository


def indent_body(body_text: str, column: int) -> str:
    """Level-0 body text with every line after the first indented to column."""
    return body_text.replace("\n", "\n" + " " * column)


def insert_text(
    repo: Repository, pos: CaretPosition, body_text: str
) -> tuple[Repository, CaretPosition]:
    """Splice level-0 body text at pos, re-indented to pos.column.

    Returns the snapshot plus the caret immediately after the last inserted
    character.
    """
    offset = repo.offset_of(pos)
    text = repo.text(pos.file)
    indented = indent_body(body_text, pos.column)
    new_text = text[:offset] + indented + text[offset:]
    snap = repo.with_text(pos.file, new_text)
    caret = snap.position_at(pos.file, offset + len(indented))
    return snap, caret


def insert(
    repo: Repository,
    pos: CaretPosition,
    partial_function: Sequence[int],
    vocab,
) -> tuple[Repository, CaretPosition]:
    """Insert a partial function given as model token ids.

    <BOS>, <EOS> and <COMP> ids are dropped before detokenizing; the rest is
    rendered canonically and spliced at pos.
    """
    from ..lm.tokenizer import detokenize
    from ..lm.vocab import CONTROL_IDS

    kept = [t for t in partial_function if t not in CONTROL_IDS]
    body_text = detokenize(kept, vocab)
    return insert_text(repo, pos, body_text)
