"""The autocompletion tool: identifier suggestions at any caret position
(`tool_complete`), or inside the function being written at a blanked task's
caret (`TaskContext`, which answers as `tool_complete` would, and lints that
function as `lint_check` would)."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

from ..minilang import tokens as tk
from ..minilang.lexer import Diagnostic, LineLexer
from ..minilang.parser import (
    BodyCheckpoint, ClassDef, FunctionDef, Module, assigned_attributes, parser_tokens, resume_body,
)
from ..minilang.tokens import LexToken
from ..repo import CaretPosition, Repository
from .builtins import is_builtin
from .insert import indent_body
from .lint import LintError, function_errors, syntax_errors
from .scope import (
    ScopeIndex, build_scope_index, class_at, locals_before, own_class_members, receiver_members,
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
    index = build_scope_index(repo)
    _, func = index.enclosing(caret.file, caret.line)
    return _suggestions(index, caret, ctx, func)


def _suggestions(
    index: ScopeIndex, caret: CaretPosition, ctx: CaretContext, func: Optional[FunctionDef],
    own_class: Optional[ClassDef] = None, own_members: frozenset = frozenset(),
) -> list[str]:
    """Suggestions at the caret inside func; a class resolved to the node
    own_class has own_members (see `receiver_members`)."""
    if ctx.kind == "attribute":
        if ctx.receiver is None:
            return []
        target = index.resolve_receiver(caret.file, func, ctx.receiver, (caret.line, caret.column))
        if target is None:
            return []
        names = receiver_members(target, own_class, own_members)
        return sorted(n for n in names if not is_builtin(n))

    names: set[str] = set()
    scope = index.module_scope(caret.file)
    if scope is not None:
        names |= scope.visible_names
    if func is not None:
        names |= set(func.params)
        names |= locals_before(func, (caret.line, caret.column))
    return sorted(n for n in names if not is_builtin(n))


class _Checkpoint(NamedTuple):
    """The analysis of a text's closed lines (all but its last), to resume
    from in a text that extends them."""

    closed: str               # the body's text, from the caret's line to its last newline
    lines: int                # the line number of the last closed line
    lexer: LineLexer          # the lexer after them
    body: BodyCheckpoint      # the body's parse at its last settled statement
    attributes: frozenset     # what the settled statements assign to the class


def head_is_indented(module: Module, lines: list[str], func: FunctionDef) -> bool:
    """Whether func's outermost head line, its class line for a method and
    its def line otherwise, is indented; lines are module's. The parser
    recovers from that line with "unexpected indentation" records that a
    task's analysis does not see, so such a function is no task (the rule
    of both `pipeline.derive_tasks` and `TaskContext.at`)."""
    owner = class_at(module, func.line)
    return lines[(func if owner is None else owner).line - 1].startswith(" ")


@dataclass
class TaskContext:
    """The one function being written at a blanked caret, analysed alone.

    Holds a scope index, the class that holds the function (own_class),
    that class's members which no body of the function can change
    (own_members: its method names and what its other methods assign,
    `own_class_members`), and the checkpoint where the body starts (start):
    the head, the lines the function needs (class header, def line,
    docstring), lexed at their own line numbers, and the function's header.
    `analyse` lexes and parses only a body after the head; that is exact,
    since lexing is line-local but for the indent stack, a def's parse ends
    at the dedent closing its body, and every later line of the file sits
    below the body's indentation. Nor does the head need a parse: a blank
    line adds no token, so the lines between the head's add nothing, and a
    def whose header draws a parse diagnostic is dropped, so the header of
    the head's parse is the loaded function's, its body emptied. A function
    whose outermost head line is itself indented is no task
    (`head_is_indented`), since the parse draws "unexpected indentation"
    records there, which the analysis would leave out.

    No body can change the rest of what the index holds, since every body
    line is indented past the module level: the module members, classes,
    imports and name rules are those of the file with the function blanked
    or with its body written, alike. So a loaded task's context
    (`of_function`) reads the index of the loaded repository the task was
    blanked from, whose paths are the snapshot's, so every import resolves
    the same way; each of its files is scoped at most once, for all their
    tasks, and no file of the snapshot is lexed or parsed. Scoring pairs
    that come with no loaded task (`at`) reads the index of a transient
    view of the blanked repository instead: making the context lexes,
    parses and scopes the blanked file alone, another file being scoped
    only when a receiver resolves through an import of it (the index is
    lazy, see `analysis.scope`). Either way, the own class has own_members
    plus the attributes the body being written assigns, which the analysis
    adds.

    The analysis resumes from a checkpoint: start, or the one after the
    closed lines of the text last analysed (every line but its last) when
    the new text extends them. A body growing during generation therefore
    has each closed line lexed once, and each statement parsed again only
    until it settles; the head is lexed once per context, when it is made.
    A text that does not extend the last one's closed lines resumes from
    start. Resuming is exact:

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
      without a diagnostic. A method assigns to its class what its settled
      statements assign plus what the statements after them do.
    """

    index: ScopeIndex
    pos: CaretPosition
    own_class: Optional[ClassDef]  # the enclosing class in index, if any
    own_members: frozenset         # own_class's members that the body cannot change
    start: _Checkpoint             # the checkpoint after the head, where the body starts
    _checkpoint: Optional[_Checkpoint] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def at(cls, repo: Repository, pos: CaretPosition) -> "TaskContext":
        """The context at pos, a blanked task's caret: a line of exactly
        pos.column spaces directly below the docstring, also at pos.column
        and alone on its line, of a function with no body whose outermost
        head line is not indented (`head_is_indented`). Every task
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
            or lines[pos.line - 2] != " " * pos.column + f'"{func.docstring}"'
            or head_is_indented(view.module(pos.file), lines, func)
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
        index = build_scope_index(repo)
        owner, _func = index.enclosing(pos.file, func.line)
        lines = repo.text(pos.file).split("\n")
        lexer = LineLexer()
        if owner is not None:
            lexer.line(owner.line, lines[owner.line - 1])
        lexer.line(func.line, lines[func.line - 1])
        lexer.line(pos.line - 1, " " * pos.column + f'"{func.docstring}"')
        header = replace(
            func, body=[], body_tokens=[], body_start_line=pos.line, end_line=pos.line - 1
        )
        first = len(parser_tokens(lexer.tokens, lexer.diagnostics))
        body = BodyCheckpoint(header, first, first, (), ())
        start = _Checkpoint("", pos.line - 1, lexer, body, frozenset())
        members = own_class_members(owner, func) if owner is not None else frozenset()
        return cls(index, pos, owner, members, start)

    def analyse(self, body_text: str) -> "TaskAnalysis":
        """The level-0 body text spliced at pos, lexed and parsed after the
        head from the last checkpoint that the text extends."""
        text = " " * self.pos.column + indent_body(body_text, self.pos.column)
        start = self._checkpoint
        if start is None or not text.startswith(start.closed):
            start = self.start
        cut = text.rfind("\n") + 1
        lines, closed_lexer = start.lines, start.lexer
        if cut > len(start.closed):
            lines, closed_lexer = self._lex_lines(closed_lexer, lines, text[len(start.closed):cut])
        lexer = closed_lexer.copy()
        lexer.line(lines + 1, text[cut:])
        toks, lex_diags = lexer.finish()
        func, parse_diags, body = resume_body(start.body, (toks, lex_diags), lines)

        settled, written = start.attributes, frozenset()
        if self.own_class is not None:  # walk only the statements after start's
            k, m = len(start.body.body), len(body.body)
            settled = settled | assigned_attributes(func, func.body[k:m])
            written = settled | assigned_attributes(func, func.body[m:])
        if cut > len(start.closed):
            self._checkpoint = _Checkpoint(text[:cut], lines, closed_lexer, body, settled)
        end = CaretPosition(self.pos.file, lines + 1, len(text) - cut)
        return TaskAnalysis(self, toks, lex_diags + parse_diags, func, written, end)

    @staticmethod
    def _lex_lines(lexer: LineLexer, lineno: int, lines: str) -> tuple[int, LineLexer]:
        """A copy of lexer, whose last line was number lineno, fed lines, whole
        lines each ending in a newline; and the number of its last line."""
        lexer = lexer.copy()
        for raw in lines.split("\n")[:-1]:
            lineno += 1
            lexer.line(lineno, raw)
        return lineno, lexer

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

    @property
    def own_members(self) -> frozenset:
        """The members of the task's own class with this body written."""
        return self.task.own_members | self.own_attributes

    def complete_at(self, line: int, column: int) -> list[str]:
        """tool_complete's suggestions at a caret inside the function."""
        task = self.task
        caret = CaretPosition(task.pos.file, line, column)
        ctx = caret_context(self.tokens, line, column)
        return _suggestions(task.index, caret, ctx, self.function, task.own_class, self.own_members)

    def lint(self) -> list[LintError]:
        """The records `lint_check` gives the spliced file from the def line
        to the end of the body, in no particular order."""
        task, path = self.task, self.task.pos.file
        errors = syntax_errors(path, self.diagnostics)
        errors += function_errors(task.index, path, self.function, task.own_class, self.own_members)
        return [e for e in errors if self.function.line <= e.line <= self.end.line]
