"""In-memory repositories of MiniPy files and caret positions into them.

A Repository is an immutable mapping of repository-relative paths to file
text. Edits produce copy-on-write snapshots. Lex and parse results are pure
functions of (path, text) and are cached per file, lazily, on the repository
that first held that text: a snapshot answers `lex` and `module` for every
file it did not edit by asking the ancestor it inherited the text from, so
a text is lexed and parsed once however many snapshots inherit it. A
snapshot caches only its own edited files, which are freed with it.
Generation makes one snapshot per completion trigger and so re-analyses
only the file being written.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

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
    def __init__(self, files: Mapping[str, str], root: Optional[str] = None):
        self._files = dict(sorted(files.items()))
        self.root = root
        self._lex_cache: dict[str, tuple[list, list]] = {}
        self._module_cache: dict[str, _parser.Module] = {}
        # path -> the ancestor whose caches hold this path's (unchanged) text
        self._origin: dict[str, Repository] = {}
        self._index = None  # built lazily by analysis.build_scope_index

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
        return cls(files, root=root)

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
        """Cached (tokens, lex diagnostics) for one file, tolerant mode."""
        origin = self._origin.get(path)
        if origin is not None:
            return origin.lex(path)
        lexed = self._lex_cache.get(path)
        if lexed is None:
            lexed = _lexer.lex(self.text(path), collect_errors=True)
            # setdefault: threads racing on a shared ancestor keep one result
            lexed = self._lex_cache.setdefault(path, lexed)
        return lexed

    def module(self, path: str) -> _parser.Module:
        """Cached parse of one file, built from the cached lex."""
        origin = self._origin.get(path)
        if origin is not None:
            return origin.module(path)
        mod = self._module_cache.get(path)
        if mod is None:
            mod = _parser.parse(self.text(path), path, lexed=self.lex(path))
            mod = self._module_cache.setdefault(path, mod)
        return mod

    def modules(self) -> dict[str, _parser.Module]:
        return {p: self.module(p) for p in self._files}

    def with_text(self, path: str, text: str) -> "Repository":
        """Copy-on-write snapshot with one file replaced (or added).

        Every other file keeps its text, so the snapshot delegates its lex and
        parse to the ancestor that first held that text: the parent's own
        origin when it has one, else the parent. Chains therefore point
        straight at that ancestor and keep no intermediate snapshot alive.
        The replaced file is always analysed, and cached, on the snapshot
        itself, even when its new text equals an ancestor's.
        """
        files = dict(self._files)
        files[path] = text
        snap = Repository(files, root=self.root)
        snap._origin = {p: self._origin.get(p, self) for p in self._files if p != path}
        return snap

    def validate_caret(self, caret: CaretPosition) -> None:
        text = self.text(caret.file)
        lines = text.split("\n")
        if not (1 <= caret.line <= len(lines)):
            raise CaretError(f"line {caret.line} out of range for {caret.file!r}")
        if not (0 <= caret.column <= len(lines[caret.line - 1])):
            raise CaretError(
                f"column {caret.column} out of range on line {caret.line} of {caret.file!r}"
            )

    def offset_of(self, caret: CaretPosition) -> int:
        self.validate_caret(caret)
        lines = self.text(caret.file).split("\n")
        return sum(len(l) + 1 for l in lines[: caret.line - 1]) + caret.column

    def position_at(self, path: str, offset: int) -> CaretPosition:
        text = self.text(path)
        head = text[:offset]
        line = head.count("\n") + 1
        col = len(head) - (head.rfind("\n") + 1)
        return CaretPosition(path, line, col)

    def __eq__(self, other) -> bool:
        return isinstance(other, Repository) and self._files == other._files

    def __repr__(self) -> str:
        return f"Repository({len(self._files)} files, root={self.root!r})"


def load_repositories(root: str) -> list[tuple[str, Repository]]:
    """Load every repository directory directly under root, sorted by name."""
    repos: list[tuple[str, Repository]] = []
    for name in sorted(os.listdir(root)):
        full = os.path.join(root, name)
        if os.path.isdir(full):
            repos.append((name, Repository.from_dir(full)))
    return repos

