"""The autocompletion tool: identifier suggestions at any caret position
(`tool_complete`), or inside the function being written at a blanked task's
caret (`TaskContext`, which answers as `tool_complete` would, and lints that
function as `lint_check` would). One completion rule serves both:
`complete_in` answers a caret inside one function scope
(`scope.FunctionScope`), and trigger insertion asks it about every
identifier of a function's body in one scope."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Optional

from ..minilang import tokens as tk
from ..minilang.lexer import Diagnostic, LineLexer
from ..minilang.parser import (
    BodyCheckpoint, FunctionDef, assigned_attributes, parser_tokens, resume_body,
)
from ..minilang.tokens import LexToken
from ..repo import CaretPosition, Repository
from .builtins import BUILTIN_NAMES
from .insert import indent_body
from .lint import LintError, name_errors, syntax_errors
from .scope import FunctionScope, ScopeIndex, build_scope_index, class_at, own_class_members


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
    unresolvable receiver yields an empty list rather than an error. The
    rule is `complete_in`'s, asked in the caret's enclosing function.
    """
    repo.validate_caret(caret)
    index = build_scope_index(repo)
    _, func = index.enclosing(caret.file, caret.line)
    scope = FunctionScope(index, caret.file, func)
    return complete_in(scope, repo.lex(caret.file)[0], caret.line, caret.column)


def complete_in(scope: FunctionScope, tokens: list[LexToken], line: int, column: int) -> list[str]:
    """The suggestions at the caret (line, column) inside scope's function,
    in the file whose tokens are tokens, builtins left out. A scope caret
    adds the targets of the assignments before it to the names the scope
    sees; an attribute caret offers the members of what its receiver
    resolves to (`FunctionScope.receiver`)."""
    ctx = caret_context(tokens, line, column)
    before = (line, column)
    if ctx.kind == "attribute":
        target = None if ctx.receiver is None else scope.receiver(ctx.receiver, before)
        if target is None:
            return []
        return sorted(scope.index.members(target).difference(BUILTIN_NAMES))
    local = {
        stmt.target.id
        for stmt in scope.assignments()
        if (stmt.target.line, stmt.target.column) < before
    }
    return sorted(scope.names.union(local).difference(BUILTIN_NAMES))


def docstring_line(column: int, docstring: str) -> str:
    """The docstring's line of a blanked task, at the caret's column."""
    return " " * column + f'"{docstring}"'


def head_is_clean(repo: Repository, path: str, lines: list[str], func: FunctionDef) -> bool:
    """Whether the outermost head line of func, a function of the file at
    path whose lines are lines, is not indented and draws no parse record;
    that line is the class line for a method and the def line otherwise. A
    task's analysis lexes the head's lines but parses none of them, so it
    would miss what the whole file's parser reports for an indented head
    line, there or where its level closes, and for a token before the head's
    keyword or a class or def line above it left with no block. Such a
    function is no task (the rule of both `pipeline.derive_tasks` and
    `TaskContext.at`)."""
    module, lex_records = repo.module(path), set(repo.lex(path)[1])
    owner = class_at(module, func.line)
    line = (func if owner is None else owner).line
    return not lines[line - 1].startswith(" ") and all(
        d.line != line or d in lex_records for d in module.diagnostics
    )


@dataclass
class TaskContext:
    """The one function being written at a blanked caret, analysed alone.

    Holds a scope index that knows the class holding the function (its own
    class) and that class's members which no body of the function can
    change: its method names and what its other methods assign
    (`own_class_members`, `ScopeIndex.members`). Holds too the checkpoint
    where the body starts (start): the head, the lines the function needs
    (class header, def line, docstring), lexed at their own line numbers,
    and the function's header. `analyse` lexes and parses only a body after
    the head; that is exact, since lexing is line-local but for the indent
    stack, a def's parse ends at the dedent closing its body, and every
    later line of the file sits below the body's indentation. Nor does the
    head need a parse: a blank line adds no token, so the lines between the
    head's add nothing, and a def whose header draws a parse diagnostic is
    dropped, so the header of the head's parse is the loaded function's,
    its body emptied. A function whose outermost head line is indented or
    draws a parse record is no task (`head_is_clean`), since the analysis
    would leave records of the whole file out.

    No body can change the rest of what the index holds, since every body
    line is indented past the module level: the module members, classes,
    imports and name rules are those of the file with the function blanked
    or with its body written, alike. So a loaded task's context
    (`of_function`) reads the scopes of the loaded repository the task was
    blanked from, whose paths are the snapshot's, so every import resolves
    the same way; each of its files is scoped at most once, for all their
    tasks, and no file of the snapshot is lexed or parsed. Scoring pairs
    that come with no loaded task (`at`) reads the scopes of a transient
    view of the blanked repository instead: making the context lexes,
    parses and scopes the blanked file alone, another file being scoped
    only when a receiver resolves through an import of it (the index is
    lazy, see `analysis.scope`). Either way, each analysis reads an index
    whose own class also has the attributes the body being written assigns.

    The analysis resumes from a checkpoint (`parser.resume_body`): start, or
    the one after the closed lines of the text last analysed (every line
    but its last) when the new text extends them. A body growing during
    generation therefore has each closed line lexed once, and each
    statement parsed again only until it settles; the head is lexed once
    per context, when it is made. A text that does not extend the last
    one's closed lines resumes from start. Resuming is exact:

    - Lexing. Between lines a lexer's whole state is its tokens and
      diagnostics, its indent stack and its dedent position, which the
      checkpoint copies, and the same lines fed after the same state give
      the same tokens.
    - Parsing. A body statement is settled once the next body-level
      statement starts on a closed line, and the checkpoint holds the body's
      statement loop at the start of that next statement. Every token the
      loop has read until then, the DEDENTs closing earlier blocks and the
      token an `if` peeks at for its `else` included, comes from closed
      lines, which resumed lexing gives again. Nor can appended text attach
      to a settled statement: `else` binds only directly after its `if`
      block, and `_recover` skips only to the next line, or past the block
      that line opens. The body's parse ends at the dedent closing it; what
      follows is that dedent and the class's, which the whole parse reads
      without a diagnostic.
    """

    index: ScopeIndex
    pos: CaretPosition
    start: BodyCheckpoint  # after the head, where the body starts
    _checkpoint: Optional[BodyCheckpoint] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def at(cls, repo: Repository, pos: CaretPosition) -> "TaskContext":
        """The context at pos, a blanked task's caret: a line of exactly
        pos.column spaces directly below the docstring, also at pos.column
        and alone on its line, of a function with no body whose outermost
        head line is clean (`head_is_clean`). Every task
        `pipeline._blank_function` makes has this shape. Raises ValueError at
        any other caret.

        This analyses the blanked file, through a transient view so that its
        analysis dies with the context. Only `metrics.evaluate_pairs` given
        no judged rows needs it, having no loaded task to build the context
        from (`of_function`)."""
        lines = repo.files.get(pos.file, "").split("\n")
        func = None
        if 2 <= pos.line <= len(lines) and lines[pos.line - 1] == " " * pos.column:
            view = repo.with_text(pos.file, repo.text(pos.file))
            _owner, func = build_scope_index(view).enclosing(pos.file, pos.line)
        if (
            func is None or func.body_tokens or func.docstring is None
            or lines[pos.line - 2] != docstring_line(pos.column, func.docstring)
            or not head_is_clean(view, pos.file, lines, func)
        ):
            raise ValueError(f"{pos.file}:{pos.line}:{pos.column} is not a blanked task's caret")
        return cls.of_function(view, func, pos)

    @classmethod
    def of_function(cls, repo: Repository, func: FunctionDef, pos: CaretPosition) -> "TaskContext":
        """The context at pos, the caret of the task that blanked func, a
        function of the file pos.file of repo as repo parses it. Nothing is
        parsed: the head's lines are lexed at their own line numbers, the
        docstring's as blanking writes it, and the header is func's with
        its body emptied."""
        owner, _func = build_scope_index(repo).enclosing(pos.file, func.line)
        members = own_class_members(owner, func) if owner is not None else frozenset()
        lines = repo.text(pos.file).split("\n")
        lexer = LineLexer()
        if owner is not None:
            lexer.line(owner.line, lines[owner.line - 1])
        lexer.line(func.line, lines[func.line - 1])
        lexer.line(pos.line - 1, docstring_line(pos.column, func.docstring))
        header = replace(
            func, body=[], body_tokens=[], body_start_line=pos.line, end_line=pos.line - 1
        )
        first = len(parser_tokens(lexer.tokens, lexer.diagnostics))
        start = BodyCheckpoint("", pos.line - 1, lexer, header, first, first, (), ())
        return cls(ScopeIndex(repo, owner, members), pos, start)

    def analyse(self, body_text: str) -> "TaskAnalysis":
        """The level-0 body text spliced at pos, lexed and parsed after the
        head from the last checkpoint that the text extends."""
        text = " " * self.pos.column + indent_body(body_text, self.pos.column)
        start = self._checkpoint
        if start is None or not text.startswith(start.closed):
            start = self.start
        func, toks, diagnostics, self._checkpoint = resume_body(start, text)
        index = self.index
        if index.own_class is not None:
            written = index.own_members | assigned_attributes(func, func.body)
            index = ScopeIndex(index.repo, index.own_class, written)
        end = CaretPosition(
            self.pos.file, self.pos.line + text.count("\n"), len(text) - text.rfind("\n") - 1
        )
        return TaskAnalysis(FunctionScope(index, self.pos.file, func), toks, diagnostics, end)

    def complete(self, body_text: str) -> list[str]:
        """tool_complete's suggestions after splicing level-0 body text at pos."""
        analysis = self.analyse(body_text)
        return analysis.complete_at(analysis.end.line, analysis.end.column)


@dataclass
class TaskAnalysis:
    """A task's function with a whole body written, as the blanked file with
    that body spliced in would show it; positions are that file's."""

    scope: FunctionScope           # the function; its index's own class has what the body assigns
    tokens: list[LexToken]
    diagnostics: list[Diagnostic]  # the lexer's and the parser's
    end: CaretPosition             # just past the body

    def complete_at(self, line: int, column: int) -> list[str]:
        """tool_complete's suggestions at a caret inside the function."""
        return complete_in(self.scope, self.tokens, line, column)

    def lint(self) -> list[LintError]:
        """The records `lint_check` gives the spliced file from the def line
        to the end of the body, in no particular order."""
        scope, func = self.scope, self.scope.func
        errors = syntax_errors(scope.path, self.diagnostics) + name_errors(scope, func.body)
        return [e for e in errors if func.line <= e.line <= self.end.line]
