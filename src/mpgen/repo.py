"""In-memory repositories of MiniPy files and caret positions into them.

A Repository is an immutable mapping of repository-relative paths to file
text. An edit makes a snapshot that copies the file map with one file
replaced and shares nothing else. Lex and parse results are pure functions
of (path, text); each repository caches them lazily, for the paths asked of
it only, and keeps the scopes `analysis.scope.ScopeIndex` builds of its
files. Generation without a task context makes one snapshot per
completion trigger, which analyses the files the tool reaches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

from .minilang import lexer as _lexer
from .minilang import parser as _parser

SOURCE_SUFFIX = ".mp"


class CaretError(ValueError):
    """Caret position does not lie within the repository's text bounds."""


@dataclass(frozen=True)
class CaretPosition:
    file: str
    line: int      # 1-based
    column: int    # 0-based


class Repository:
    def __init__(self, files: Mapping[str, str]):
        self._files = dict(sorted(files.items()))
        self._lex_cache: dict[str, tuple[list, list]] = {}
        self._module_cache: dict[str, _parser.Module] = {}
        # path -> its analysis.scope.ModuleScope, built lazily by ScopeIndex
        self._scope_cache: dict = {}

    @classmethod
    def from_dir(cls, root: str) -> "Repository":
        files: dict[str, str] = {}
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_SUFFIX):
                    full = os.path.join(dirpath, fn)
                    rel = os.path.relpath(full, root)
                    try:
                        with open(full, "r", encoding="utf-8") as fh:
                            files[rel] = fh.read()
                    except UnicodeDecodeError as exc:
                        exc.reason = f"{exc.reason} in {full}"
                        raise
        return cls(files)

    @property
    def files(self) -> dict[str, str]:
        return self._files

    def paths(self) -> list[str]:
        return list(self._files)

    def text(self, path: str) -> str:
        try:
            return self._files[path]
        except KeyError:
            raise CaretError(f"no such file in repository: {path!r}") from None

    def lex(self, path: str):
        """Cached (tokens, lex diagnostics) for one file."""
        lexed = self._lex_cache.get(path)
        if lexed is None:
            lexed = self._lex_cache[path] = _lexer.lex(self.text(path))
        return lexed

    def module(self, path: str) -> _parser.Module:
        """Cached parse of one file, built from the cached lex."""
        mod = self._module_cache.get(path)
        if mod is None:
            mod = _parser.parse(self.text(path), path, lexed=self.lex(path))
            self._module_cache[path] = mod
        return mod

    def with_text(self, path: str, text: str) -> "Repository":
        """Snapshot with one file replaced (or added), and empty caches."""
        files = dict(self._files)
        files[path] = text
        return Repository(files)

    def validate_caret(self, caret: CaretPosition) -> None:
        text = self.text(caret.file)
        lines = text.split("\n")
        if not (1 <= caret.line <= len(lines)):
            raise CaretError(f"line {caret.line} out of range for {caret.file!r}")
        if not (0 <= caret.column <= len(lines[caret.line - 1])):
            raise CaretError(
                f"column {caret.column} out of range on line {caret.line} of {caret.file!r}"
            )

    def __repr__(self) -> str:
        return f"Repository({len(self._files)} files)"


def load_repositories(root: str) -> list[tuple[str, Repository]]:
    """Load every repository directory directly under root, sorted by name."""
    repos: list[tuple[str, Repository]] = []
    for name in sorted(os.listdir(root)):
        full = os.path.join(root, name)
        if os.path.isdir(full):
            repos.append((name, Repository.from_dir(full)))
    return repos

