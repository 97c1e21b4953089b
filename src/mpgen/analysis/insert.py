"""Splicing a partial function into a repository snapshot.

Used during generation without a task context (`mpgen generate`): the body
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
    character. Raises DataError when pos does not lie in the repository.
    """
    repo.validate_caret(pos)
    lines = repo.text(pos.file).split("\n")
    row = lines[pos.line - 1]
    inserted = indent_body(body_text, pos.column).split("\n")
    end = CaretPosition(
        pos.file,
        pos.line + len(inserted) - 1,
        len(inserted[-1]) + (pos.column if len(inserted) == 1 else 0),
    )
    inserted[0] = row[: pos.column] + inserted[0]
    inserted[-1] += row[pos.column:]
    lines[pos.line - 1 : pos.line] = inserted
    return repo.with_text(pos.file, "\n".join(lines)), end
