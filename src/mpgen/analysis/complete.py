"""The autocompletion tool: identifier suggestions at any caret position
(`tool_complete`), or inside the function being written at a blanked task's
caret (`TaskContext`, which answers as `tool_complete` would, and lints that
function as `lint_check` would)."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from ..minilang import tokens as tk
from ..minilang.lexer import Diagnostic, LineLexer
from ..minilang.parser import ClassDef, FunctionDef, extract_functions, parse
from ..minilang.tokens import LexToken
from ..repo import CaretPosition, Repository
from .builtins import is_builtin
from .insert import indent_body
from .lint import LintError, function_errors, syntax_errors
from .scope import (
    ScopeIndex, build_scope_index, locals_before, receiver_members, scope_index_for,
)


@dataclass(frozen=True)
class CaretContext:
    """What the token stream immediately left of the caret looks like.

    kind is "attribute" when the stream ends with `<receiver> .`, otherwise
    "scope". receiver is the single-hop receiver identifier for attribute
    contexts (None when the receiver is chained or not an identifier, which
    makes it unresolvable).
    """

    kind: str
    receiver: Optional[str] = None


def caret_context(toks: list[LexToken], line: int, column: int) -> CaretContext:
    """Caret context from a file's tokens, read off the last three left of it.

    Tokens strictly increase in (line, column), so the ones left of the caret
    are a prefix. Indentation tokens need no skipping: a newline precedes
    every indent or dedent, so neither can stand where a receiver or a `.`
    would decide the context.
    """
    i = bisect_left(toks, (line, column), key=lambda t: (t.line, t.column))
    left = toks[max(0, i - 3):i]
    if left and left[-1].kind == tk.PUNCTUATOR and left[-1].text == ".":
        if len(left) >= 2 and left[-2].kind == tk.IDENTIFIER:
            if len(left) >= 3 and left[-3].kind == tk.PUNCTUATOR and left[-3].text == ".":
                return CaretContext("attribute", receiver=None)  # chained: a.b.
            return CaretContext("attribute", receiver=left[-2].text)
        return CaretContext("attribute", receiver=None)
    return CaretContext("scope")


def classify_caret(repo: Repository, caret: CaretPosition) -> CaretContext:
    repo.validate_caret(caret)
    return caret_context(repo.lex(caret.file)[0], caret.line, caret.column)


def tool_complete(repo: Repository, caret: CaretPosition) -> list[str]:
    """Identifier-level completion suggestions at the caret.

    Attribute context (`expr.`): members of the statically resolved receiver
    type. Scope context: everything visible in the enclosing scope (params,
    locals defined before the caret, module-level names, imported names).
    Builtins are excluded; the result is sorted and duplicate-free. An
    unresolvable receiver yields an empty list rather than an error.
    """
    ctx = classify_caret(repo, caret)
    index = scope_index_for(repo)
    _, func = index.enclosing(caret.file, caret.line)
    return _suggestions(index, caret, ctx, func)


def _suggestions(
    index: ScopeIndex, caret: CaretPosition, ctx: CaretContext, func: Optional[FunctionDef],
    own_class: Optional[ClassDef] = None, own_attributes: frozenset = frozenset(),
) -> list[str]:
    """Suggestions at the caret inside func; a class resolved to the node
    own_class also has own_attributes, which index does not hold."""
    if ctx.kind == "attribute":
        if ctx.receiver is None:
            return []
        target = index.resolve_receiver(caret.file, func, ctx.receiver, (caret.line, caret.column))
        if target is None:
            return []
        names = receiver_members(target, own_class, own_attributes)
        return sorted(n for n in names if not is_builtin(n))

    names: set[str] = set()
    scope = index.module_scope(caret.file)
    if scope is not None:
        names |= scope.visible_names
    if func is not None:
        names |= set(func.params)
        names |= locals_before(func, (caret.line, caret.column))
    return sorted(n for n in names if not is_builtin(n))


@dataclass
class TaskContext:
    """The one function being written at a blanked caret, analysed alone.

    Holds the blanked repository's scope index and a head text of the lines
    the function needs (class header, def line, docstring) at their own line
    numbers; `analyse` lexes and parses only the head plus a body. That is
    exact: lexing is line-local but for the indent stack, a def's parse ends
    at the dedent closing its body, and every later line of the blanked file
    sits below the body's indentation. Nor can a body change what the index
    holds, since every body line is indented past the module level; the one
    exception, the attributes a method assigns to its class, the analysis
    adds.

    Lexing resumes from a checkpoint: the `LineLexer` state after the closed
    lines of the head, and after the closed lines of the text last analysed
    (every line but its last). A checkpoint whose text the new text extends
    lexes only the lines after it, so a body growing during generation has
    each closed line lexed once, and the head is lexed once per context. That
    is exact too: between lines a lexer's whole state is its tokens and
    diagnostics, its indent stack and its dedent position, which the
    checkpoint copies, and the same lines fed after the same state give the
    same tokens. A text that does not extend the last one, as scoring's
    ground truth and predictions do not, resumes from the head.
    """

    index: ScopeIndex
    pos: CaretPosition
    head: str
    own_class: Optional[ClassDef]  # the enclosing class in index, if any
    # (closed text, its line count, the lexer after it): head, last analysed
    _head_checkpoint: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _checkpoint: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def at(cls, repo: Repository, pos: CaretPosition) -> Optional["TaskContext"]:
        """The context at pos, or None unless pos is a blanked task's caret: a
        line of exactly pos.column spaces directly below the docstring, also at
        pos.column and alone on its line, of a function with no body. Every
        task `pipeline._blank_function` makes has this shape."""
        lines = repo.files.get(pos.file, "").split("\n")
        if not 2 <= pos.line <= len(lines) or lines[pos.line - 1] != " " * pos.column:
            return None
        # a transient view, so the blanked file's analysis dies with the context
        index = build_scope_index(repo.with_text(pos.file, repo.text(pos.file)))
        owner, func = index.enclosing(pos.file, pos.line)
        if func is None or func.body_tokens or func.docstring is None:
            return None
        if lines[pos.line - 2] != " " * pos.column + f'"{func.docstring}"':
            return None
        keep = set(range(func.line, pos.line))
        if owner is not None:
            keep.add(owner.line)
        head = [lines[n - 1] if n in keep else "" for n in range(1, pos.line)]
        return cls(index, pos, "\n".join(head + [" " * pos.column]), owner)

    def _lex(self, text: str) -> tuple[list[LexToken], list[Diagnostic]]:
        """`lex(text)` for a text that starts with the head, resumed from the
        last checkpoint when text extends it and from the head's otherwise."""
        if self._head_checkpoint is None:
            closed = self.head[: self.head.rfind("\n") + 1]
            self._head_checkpoint = self._lex_lines(closed, ("", 0, LineLexer()))
        start = self._checkpoint
        if start is None or not text.startswith(start[0]):
            start = self._head_checkpoint
        cut = text.rfind("\n") + 1
        if cut > len(start[0]):
            start = self._checkpoint = self._lex_lines(text[:cut], start)
        lexer = start[2].copy()
        lexer.line(start[1] + 1, text[cut:])
        return lexer.finish()

    @staticmethod
    def _lex_lines(closed: str, start: tuple) -> tuple:
        """The checkpoint after closed, a text of whole lines extending start's."""
        done, lineno, lexer = start
        lexer = lexer.copy()
        for raw in closed[len(done):].split("\n")[:-1]:
            lineno += 1
            lexer.line(lineno, raw)
        return closed, lineno, lexer

    def analyse(self, body_text: str) -> "TaskAnalysis":
        """One lex and parse of the head plus level-0 body text spliced at pos."""
        text = self.head + indent_body(body_text, self.pos.column)
        lexed = self._lex(text)
        module = parse(text, self.pos.file, lexed=lexed)
        (func,) = extract_functions(module)
        written = module.classes[0].attributes if self.own_class is not None else ()
        end = CaretPosition(self.pos.file, text.count("\n") + 1, len(text) - text.rfind("\n") - 1)
        return TaskAnalysis(self, lexed[0], module.diagnostics, func, frozenset(written), end)

    def complete(self, body_text: str) -> list[str]:
        """tool_complete's suggestions after splicing level-0 body text at pos."""
        analysis = self.analyse(body_text)
        return analysis.complete_at(analysis.end.line, analysis.end.column)


@dataclass
class TaskAnalysis:
    """A task's function with a whole body written, as the blanked file with
    that body spliced in would show it; positions are that file's."""

    task: TaskContext
    tokens: list[LexToken]
    diagnostics: list[Diagnostic]  # the lexer's and the parser's
    function: FunctionDef
    own_attributes: frozenset      # what the function assigns to its class
    end: CaretPosition             # just past the body

    def complete_at(self, line: int, column: int) -> list[str]:
        """tool_complete's suggestions at a caret inside the function."""
        task = self.task
        caret = CaretPosition(task.pos.file, line, column)
        ctx = caret_context(self.tokens, line, column)
        return _suggestions(
            task.index, caret, ctx, self.function, task.own_class, self.own_attributes
        )

    def lint(self) -> list[LintError]:
        """The records `lint_check` gives the spliced file from the def line
        to the end of the body, in no particular order."""
        task, path = self.task, self.task.pos.file
        errors = syntax_errors(path, self.diagnostics)
        errors += function_errors(
            task.index, path, self.function, task.own_class, self.own_attributes
        )
        return [e for e in errors if self.function.line <= e.line <= self.end.line]
