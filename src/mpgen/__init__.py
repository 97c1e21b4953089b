"""mpgen: completion-tool-integrated code generation for MiniPy repositories.

The package wires a small static analyzer for the MiniPy mini-language into
the decoding loop of a trainable count-based language model: a reserved
trigger token makes the model ask the autocompletion tool for valid
identifiers, and a prefix-trie constrained greedy search picks one.
"""

import json

__version__ = "0.1.0"


class DataError(Exception):
    """Missing or malformed input artifacts (exit code 2 at the CLI)."""


def read_json(path: str, what: str):
    """The JSON value of the UTF-8 file at path. DataError, naming what and
    path, for a file that cannot be opened, decoded or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError: bad UTF-8 or bad JSON; RecursionError: nested too deeply
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read {what} {path!r}: {exc}") from exc


# The most characters of a value's repr that an error message quotes.
QUOTE_LIMIT = 80


def quote(value) -> str:
    """value's repr for an error message, cut to QUOTE_LIMIT characters and
    then marked by "...", so that a message stays one short line."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def read_json_lines(path: str, what: str, record: str, fields) -> list[tuple[dict, str]]:
    """(record, where) for each non-blank line of the UTF-8 JSON-lines file
    at path: a JSON object whose (name, type) fields hold exactly that type,
    so a bool is not an int, and where the record is, for an error message:
    the file, the 1-based line number and the `quote`d line. DataError
    otherwise, saying where the malformed record is."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {what} {path!r}: {exc}") from exc
    records = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"at {path!r} line {number} {quote(line)}"
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"malformed {record} {where}: {exc}") from exc
        if type(rec) is not dict:
            raise DataError(f"malformed {record} {where}: not a JSON object")
        for name, kind in fields:
            if type(rec.get(name)) is not kind:
                raise DataError(f"malformed {record} {where}: {name!r} must be a {kind.__name__}")
        records.append((rec, where))
    return records


from .repo import CaretPosition, Repository

__all__ = ["CaretPosition", "DataError", "Repository", "__version__"]
