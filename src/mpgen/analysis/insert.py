"""Splicing a partial function into a repository snapshot.

Used during generation at a caret that is not a blanked task's: the body
rendered so far, without control tokens, is inserted at the reserved
position so the completion tool sees the caret in real context. The input
repository is never modified.
"""

from __future__ import annotations

from ..repo import CaretPosition, Repository


def indent_body(body_text: str, column: int) -> str:
    """Level-0 body text with every line after the first indented to column."""
    return body_text.replace("\n", "\n" + " " * column)


def insert(
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
