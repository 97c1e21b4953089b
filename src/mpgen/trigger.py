"""Trigger insertion: mark completable identifiers and assemble the dataset.

Walks every token of a function body; at each identifier that is not a
builtin, the completion tool is queried at the identifier's start position,
and if the identifier appears among the suggestions a <COMP> marker token is
emitted immediately before it. All body tokens, identifier or not, are
appended in order, so stripping the markers recovers the original body
exactly.

Each eligible identifier asks `tool_complete` once, with no cache of its
own in front: the analysis a completion needs is already shared, since the
repository lexes, parses and scopes each file once, the first time a
completion reaches it. `is_trigger` is the marking rule; the metrics
apply it, with a task analysis's completions, to mark a ground truth.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from statistics import mean
from typing import Callable, Iterable

from . import DataError, __version__
from .analysis.builtins import is_builtin
from .analysis.complete import tool_complete
from .minilang import tokens as tk
from .minilang.parser import FunctionDef, extract_functions
from .minilang.render import render_tokens
from .minilang.tokens import LexToken
from .repo import CaretPosition, Repository


class MissingDocstringError(ValueError):
    """The function has no docstring and cannot become a training pair."""


@dataclass
class AugmentedFunction:
    description: str
    augmented_body: list[LexToken]  # body tokens with marker tokens interleaved
    file: str
    line: int

    @property
    def comp_count(self) -> int:
        """The number of markers inserted."""
        return sum(1 for t in self.augmented_body if t.kind == tk.MARKER)

    def body_text(self) -> str:
        return render_tokens(self.augmented_body)


@dataclass
class AugmentedDataset:
    pairs: list[AugmentedFunction]
    corpus_id: str
    tool_version: str

    @property
    def stats(self) -> dict:
        if not self.pairs:
            return {
                "pair_count": 0,
                "mean_description_tokens": 0.0,
                "mean_body_tokens": 0.0,
                "mean_comp_count": 0.0,
            }
        from .lm.tokenizer import token_strings

        return {
            "pair_count": len(self.pairs),
            "mean_description_tokens": mean(
                len(token_strings(p.description)) for p in self.pairs
            ),
            "mean_body_tokens": mean(
                len(token_strings(p.body_text())) for p in self.pairs
            ),
            "mean_comp_count": mean(p.comp_count for p in self.pairs),
        }


def is_trigger(t: LexToken, complete: Callable[[int, int], list[str]]) -> bool:
    """Whether a marker goes before the body token: an identifier, not a
    builtin, that complete(line, column) suggests at its start."""
    return (
        t.kind == tk.IDENTIFIER and not is_builtin(t.text) and t.text in complete(t.line, t.column)
    )


def insert_triggers(repo: Repository, file: str, func: FunctionDef) -> AugmentedFunction:
    if func.docstring is None:
        raise MissingDocstringError(f"{file}:{func.line}: {func.name} has no docstring")

    def complete(line: int, column: int) -> list[str]:
        return tool_complete(repo, CaretPosition(file, line, column))

    out: list[LexToken] = []
    for t in func.body_tokens:
        if is_trigger(t, complete):
            out.append(LexToken(tk.MARKER, tk.COMP_TEXT, t.line, t.column))
        out.append(t)
    return AugmentedFunction(
        description=func.description,
        augmented_body=out,
        file=file,
        line=func.line,
    )


def corpus_id_of(repos: Iterable[Repository]) -> str:
    h = hashlib.sha256()
    for repo in repos:
        for path in repo.paths():
            h.update(path.encode("utf-8"))
            h.update(b"\x00")
            h.update(repo.text(path).encode("utf-8"))
            h.update(b"\x01")
    return h.hexdigest()[:16]


def _repo_label(repo: Repository) -> str:
    if repo.root:
        import os

        return os.path.basename(os.path.normpath(repo.root))
    return ""


def augment_corpus(repos: list[Repository]) -> AugmentedDataset:
    """Apply trigger insertion to every docstring-bearing function.

    Output order is deterministic: repositories in the given order, files by
    path, functions by source position. Functions without docstrings are
    omitted. The parser recovers from syntax errors, so a file that does not
    fully parse still yields the functions it could read.
    """
    pairs: list[AugmentedFunction] = []
    for repo in repos:
        label = _repo_label(repo)
        for path in repo.paths():
            module = repo.module(path)
            for func in extract_functions(module):
                if func.docstring is None:
                    continue
                aug = insert_triggers(repo, path, func)
                if label:
                    aug.file = f"{label}/{path}"
                pairs.append(aug)
    return AugmentedDataset(
        pairs=pairs, corpus_id=corpus_id_of(repos), tool_version=__version__
    )


def save_dataset(dataset: AugmentedDataset, path: str, meta_path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in dataset.pairs:
            fh.write(
                json.dumps(
                    {
                        "description": p.description,
                        "augmented_body": p.body_text(),
                        "file": p.file,
                        "line": p.line,
                        "comp_count": p.comp_count,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    meta = {
        "corpus_id": dataset.corpus_id,
        "tool_version": dataset.tool_version,
        "stats": dataset.stats,
    }
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_dataset_records(path: str) -> list[dict]:
    """The records of a dataset file. DataError for a line that is not a JSON
    object whose description and augmented_body are strings."""
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"malformed dataset record {line!r}: {exc}") from exc
            if not (
                type(rec) is dict
                and type(rec.get("description")) is str
                and type(rec.get("augmented_body")) is str
            ):
                raise DataError(
                    f"malformed dataset record {line!r}: not an object with string "
                    "'description' and 'augmented_body'"
                )
            records.append(rec)
    return records
