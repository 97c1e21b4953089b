"""Trigger insertion: mark completable identifiers and assemble the dataset.

Walks every token of a function body; at each identifier that is not a
builtin, the completion tool is queried at the identifier's start position,
and if the identifier appears among the suggestions a <COMP> marker token is
emitted immediately before it. All body tokens, identifier or not, are
appended in order, so stripping the markers recovers the original body
exactly.

Each function's eligible identifiers ask the completion rule
(`complete_in`) in one function scope (`FunctionScope`), which gives what
`tool_complete` gives at each of them but finds the enclosing function and
walks the body once per function, not once per identifier. The analysis it
reads is shared: the repository lexes, parses and scopes each file once,
the first time a completion reaches it. `is_trigger` is the marking rule; the metrics
apply it, with a task analysis's completions, to mark a ground truth.

A training pair exists only as the dataset record `save_dataset` writes
and `load_dataset_records` reads back.
"""

from __future__ import annotations

import json
from functools import partial
from statistics import mean
from typing import Callable, Iterable

from . import __version__, read_json_lines
from .analysis.builtins import is_builtin
from .analysis.complete import complete_in
from .analysis.scope import FunctionScope, build_scope_index
from .lm.tokenizer import token_strings
from .minilang import tokens as tk
from .minilang.parser import FunctionDef, extract_functions
from .minilang.render import render_tokens
from .minilang.tokens import LexToken
from .repo import Repository


def is_trigger(t: LexToken, complete: Callable[[int, int], list[str]]) -> bool:
    """Whether a marker goes before the body token: an identifier, not a
    builtin, that complete(line, column) suggests at its start."""
    return (
        t.kind == tk.IDENTIFIER and not is_builtin(t.text) and t.text in complete(t.line, t.column)
    )


def insert_triggers(repo: Repository, file: str, func: FunctionDef) -> list[LexToken]:
    """The body tokens of func, a function of file, with a marker token
    before each trigger."""
    scope = FunctionScope(build_scope_index(repo), file, func)
    complete = partial(complete_in, scope, repo.lex(file)[0])
    out: list[LexToken] = []
    for t in func.body_tokens:
        if is_trigger(t, complete):
            out.append(LexToken(tk.MARKER, tk.COMP_TEXT, t.line, t.column))
        out.append(t)
    return out


def corpus_id_of(repos: Iterable[Repository]) -> str:
    # imported here: hashlib maps OpenSSL, about 3.6 MB of resident memory
    # that a process which never augments (evaluate, generate) need not hold
    import hashlib

    h = hashlib.sha256()
    for repo in repos:
        for path in repo.paths():
            h.update(path.encode("utf-8"))
            h.update(b"\x00")
            h.update(repo.text(path).encode("utf-8"))
            h.update(b"\x01")
    return h.hexdigest()[:16]


def augment_corpus(repos: list[tuple[str, Repository]]) -> tuple[list[dict], dict]:
    """The dataset records of every docstring-bearing function of the named
    repositories, and the dataset's meta: corpus id, tool version and stats.

    Output order is deterministic: repositories in the given order, files by
    path, functions by source position. Functions without docstrings are
    omitted. The parser recovers from syntax errors, so a file that does not
    fully parse still yields the functions it could read.
    """
    records: list[dict] = []
    for name, repo in repos:
        for path in repo.paths():
            for func in extract_functions(repo.module(path)):
                if func.docstring is None:
                    continue
                body = insert_triggers(repo, path, func)
                records.append({
                    "description": func.description,
                    "augmented_body": render_tokens(body),
                    "file": f"{name}/{path}",
                    "line": func.line,
                    "comp_count": sum(1 for t in body if t.kind == tk.MARKER),
                })

    def mean_of(measure: Callable[[dict], int]):
        # statistics.mean keeps a whole mean of ints an int: the meta says `3`, not `3.0`
        return mean(map(measure, records)) if records else 0.0

    stats = {
        "pair_count": len(records),
        "mean_description_tokens": mean_of(lambda r: len(token_strings(r["description"]))),
        "mean_body_tokens": mean_of(lambda r: len(token_strings(r["augmented_body"]))),
        "mean_comp_count": mean_of(lambda r: r["comp_count"]),
    }
    meta = {
        "corpus_id": corpus_id_of(repo for _name, repo in repos),
        "tool_version": __version__,
        "stats": stats,
    }
    return records, meta


def save_dataset(records: list[dict], meta: dict, path: str, meta_path: str) -> None:
    """Write the records to path, one JSON line each, and meta to meta_path."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_dataset_records(path: str) -> list[dict]:
    """The records of a dataset file. DataError for a line that is not a JSON
    object whose description and augmented_body are strings."""
    fields = (("description", str), ("augmented_body", str))
    return [rec for rec, _where in read_json_lines(path, "dataset", "dataset record", fields)]
