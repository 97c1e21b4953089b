"""Recursive-descent parser for MiniPy with statement-level error recovery.

Parse errors are collected as diagnostics, never raised: a file containing
one broken function must still yield usable definitions for the rest, since
the lint checker and the completion tool run on files holding partially
generated code. Recovery skips to the next line (inside a block) or to the
next top-level definition (at module level). `parse`, `parse_body` and
`resume_body` share the parser set-up, the statement rules and the one
recovery rule `_recover`. `parse_body` parses its text with the statement
loop of a def's body, and `resume_body` runs that loop from a
`BodyCheckpoint`, so a body that grows at its end is parsed from its last
settled statement on, not from its first.

Every diagnostic, the lexer's included, is a syntax error in the lexer's one
record type, `Diagnostic`. The parser checks syntax only: redefining a name
is not an error, and a later definition simply shadows an earlier one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from . import nodes, tokens as tk
from .lexer import Diagnostic, lex
from .tokens import LexToken


@dataclass
class FunctionDef:
    name: str
    params: list[str]
    docstring: Optional[str]
    body: list[nodes.Stmt]            # excludes the docstring statement
    body_tokens: list[LexToken]       # excludes the docstring statement
    signature_text: str
    line: int
    body_start_line: int              # first non-docstring body line
    end_line: int
    owner_class: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.owner_class is not None

    @property
    def description(self) -> str:
        """The natural-language description of a docstring-bearing function:
        its signature, then its docstring."""
        return self.signature_text + " " + self.docstring


@dataclass
class ClassDef:
    name: str
    methods: list[FunctionDef]
    attributes: set[str]
    line: int
    end_line: int

    @property
    def members(self) -> set[str]:
        """What `obj.` offers on an instance: methods and assigned attributes."""
        return {m.name for m in self.methods} | self.attributes


@dataclass
class ImportDecl:
    module: str
    names: list[str]   # empty for plain `import m`; bound names for `from m import a, b`

    @property
    def bound_names(self) -> list[str]:
        return self.names if self.names else [self.module]


@dataclass
class Module:
    path: str
    imports: list[ImportDecl] = field(default_factory=list)
    classes: list[ClassDef] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)
    body: list[nodes.Stmt] = field(default_factory=list)  # module-level simple statements
    diagnostics: list[Diagnostic] = field(default_factory=list)


class _Recover(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


# Binding level of each binary operator; all of them are left-associative.
_LEVEL = {"==": 1, "!=": 1, "<": 1, ">": 1, "+": 2, "-": 2, "*": 3, "/": 3}

# The most `if`/`else`/`while` blocks and brackets (grouping parentheses and
# call argument lists) open at once. The recursive descent takes at most 7
# frames a level, so 100 levels stay well inside the interpreter's default
# recursion limit of 1,000. The corpus nests 1 deep, and the 252 benchmark
# predictions at most 23.
MAX_NESTING = 100


class _Parser:
    def __init__(self, toks: list[LexToken], path: str):
        self.toks = toks
        self.i = 0
        self.path = path
        self.diags: list[Diagnostic] = []
        self.depth = 0  # blocks and brackets open, at most MAX_NESTING

    # --- cursor helpers -------------------------------------------------
    def peek(self, ahead: int = 0) -> Optional[LexToken]:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def advance(self) -> LexToken:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t is not None and t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> LexToken:
        t = self.peek()
        if t is None:
            raise self._eof(f"unexpected end of file, expected {text or kind}")
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise _Recover(Diagnostic(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.column))
        return self.advance()

    def _eof(self, message: str) -> _Recover:
        return _Recover(Diagnostic(message, self.toks[-1].line if self.toks else 1, 0))

    def _recover(self, r: _Recover) -> None:
        """Record the diagnostic, skip to the next line and any block it opens."""
        self.diags.append(r.diag)
        while (t := self.peek()) is not None and t.kind not in (tk.NEWLINE, tk.INDENT, tk.DEDENT):
            self.advance()
        if self.at(tk.NEWLINE):
            self.advance()
        if self.at(tk.INDENT):
            depth = 0
            while (t := self.peek()) is not None:
                self.advance()
                if t.kind == tk.INDENT:
                    depth += 1
                elif t.kind == tk.DEDENT:
                    depth -= 1
                    if depth == 0:
                        return

    def _descend(self, opener: LexToken) -> None:
        """Open one more level of nesting at opener. Past MAX_NESTING levels
        the diagnostic drops the statement, as `_recover` drops any
        malformed one; the caller closes the level in a `finally`."""
        if self.depth == MAX_NESTING:
            raise _Recover(Diagnostic(
                f"more than {MAX_NESTING} nested blocks and brackets", opener.line, opener.column
            ))
        self.depth += 1

    def _sync_top_level(self) -> None:
        depth = 0
        while self.peek() is not None:
            t = self.peek()
            if t.kind == tk.INDENT:
                depth += 1
            elif t.kind == tk.DEDENT:
                depth = max(0, depth - 1)
            elif depth == 0 and t.kind == tk.KEYWORD and t.text in ("def", "class", "import", "from"):
                return
            self.advance()

    # --- expressions ----------------------------------------------------
    def parse_expr(self) -> nodes.Expr:
        return self._binary(1)

    def _binary(self, min_level: int) -> nodes.Expr:
        """Precedence climbing: a chain of operators binding at least min_level."""
        left = self._postfix()
        while self.at(tk.OPERATOR) and _LEVEL.get(self.peek().text, 0) >= min_level:
            op = self.advance().text
            left = nodes.BinOp(left, op, self._binary(_LEVEL[op] + 1))
        return left

    def _postfix(self) -> nodes.Expr:
        e = self._atom()
        while True:
            if self.at(tk.PUNCTUATOR, "."):
                self.advance()
                name = self.expect(tk.IDENTIFIER)
                e = nodes.Attribute(e, name.text, name.line, name.column)
            elif self.at(tk.PUNCTUATOR, "("):
                lp = self.advance()
                args: list[nodes.Expr] = []
                self._descend(lp)
                try:
                    if not self.at(tk.PUNCTUATOR, ")"):
                        args.append(self.parse_expr())
                        while self.at(tk.PUNCTUATOR, ","):
                            self.advance()
                            args.append(self.parse_expr())
                    self.expect(tk.PUNCTUATOR, ")")
                finally:
                    self.depth -= 1
                e = nodes.Call(e, args, lp.line, lp.column)
            else:
                return e

    def _atom(self) -> nodes.Expr:
        t = self.peek()
        if t is None:
            raise self._eof("unexpected end of file in expression")
        if t.kind == tk.IDENTIFIER:
            self.advance()
            return nodes.Name(t.text, t.line, t.column)
        if t.kind == tk.NUMBER:
            self.advance()
            return nodes.Num(t.text, t.line, t.column)
        if t.kind == tk.STRING:
            self.advance()
            return nodes.Str(t.line, t.column)
        if t.kind == tk.PUNCTUATOR and t.text == "(":
            self.advance()
            self._descend(t)
            try:
                e = self.parse_expr()
                self.expect(tk.PUNCTUATOR, ")")
            finally:
                self.depth -= 1
            return e
        raise _Recover(Diagnostic(f"unexpected {t.text or t.kind!r} in expression", t.line, t.column))

    # --- statements -----------------------------------------------------
    def parse_simple_stmt(self) -> nodes.Stmt:
        t = self.peek()
        if t.kind == tk.KEYWORD and t.text == "return":
            self.advance()
            value = None
            if not self.at(tk.NEWLINE):
                value = self.parse_expr()
            self.expect(tk.NEWLINE)
            return nodes.Return(value, t.line, t.column)
        expr = self.parse_expr()
        if self.at(tk.OPERATOR, "="):
            eq = self.advance()
            if not isinstance(expr, (nodes.Name, nodes.Attribute)):
                raise _Recover(Diagnostic("invalid assignment target", eq.line, eq.column))
            value = self.parse_expr()
            self.expect(tk.NEWLINE)
            return nodes.Assign(expr, value, t.line, t.column)
        self.expect(tk.NEWLINE)
        return nodes.ExprStmt(expr)

    def parse_stmt(self) -> nodes.Stmt:
        t = self.peek()
        if t.kind == tk.KEYWORD and t.text == "if":
            self.advance()
            test = self.parse_expr()
            self.expect(tk.PUNCTUATOR, ":")
            body = self.parse_block(t)
            orelse: list[nodes.Stmt] = []
            if self.at(tk.KEYWORD, "else"):
                orelse_kw = self.advance()
                self.expect(tk.PUNCTUATOR, ":")
                orelse = self.parse_block(orelse_kw)
            return nodes.If(test, body, orelse)
        if t.kind == tk.KEYWORD and t.text == "while":
            self.advance()
            test = self.parse_expr()
            self.expect(tk.PUNCTUATOR, ":")
            body = self.parse_block(t)
            return nodes.While(test, body)
        return self.parse_simple_stmt()

    def _statements(self, parse_item: Callable[[], Any], starts: Optional[list] = None) -> list:
        """Items up to the block's DEDENT, which is left unconsumed.

        A malformed item is dropped by `_recover` and parsing resumes on the
        next line; items are statements, or methods in a class body. A bare
        newline, left by a line that held only error tokens, is skipped.
        starts, when given, gets the cursor, the item count and the
        diagnostic count at the start of each item: there the loop has read
        no token past the cursor.
        """
        items = []
        while self.peek() is not None and not self.at(tk.DEDENT):
            if self.at(tk.NEWLINE):
                self.advance()
                continue
            if starts is not None:
                starts.append((self.i, len(items), len(self.diags)))
            try:
                items.append(parse_item())
            except _Recover as r:
                self._recover(r)
        return items

    def parse_block(self, opener: LexToken) -> list[nodes.Stmt]:
        """The block that the line of the keyword opener opens."""
        self._descend(opener)
        try:
            self.expect(tk.NEWLINE)
            self.expect(tk.INDENT)
            stmts = self._statements(self.parse_stmt)
        finally:
            self.depth -= 1
        if self.at(tk.DEDENT):
            self.advance()
        return stmts

    # --- definitions ----------------------------------------------------
    def parse_def(self, owner: Optional[str]) -> FunctionDef:
        func = self._def_header(owner)
        start = self.i
        return self._with_body(func, start, self._statements(self.parse_stmt))

    def _def_header(self, owner: Optional[str]) -> FunctionDef:
        """A def up to its body, as a function whose body is empty: that body
        ends on the docstring's line (or the def line), and its first
        statement would go below it."""
        d = self.expect(tk.KEYWORD, "def")
        name = self.expect(tk.IDENTIFIER)
        self.expect(tk.PUNCTUATOR, "(")
        params: list[str] = []
        if self.at(tk.IDENTIFIER):
            params.append(self.advance().text)
            while self.at(tk.PUNCTUATOR, ","):
                self.advance()
                params.append(self.expect(tk.IDENTIFIER).text)
        self.expect(tk.PUNCTUATOR, ")")
        self.expect(tk.PUNCTUATOR, ":")
        signature = f"def {name.text}({', '.join(params)}):"

        self.expect(tk.NEWLINE)
        self.expect(tk.INDENT)
        docstring: Optional[str] = None
        doc_line = name.line
        if self.at(tk.STRING) and self.peek(1) is not None and self.peek(1).kind == tk.NEWLINE:
            doc = self.advance()
            docstring, doc_line = doc.text[1:-1], doc.line
            self.advance()  # the newline
        return FunctionDef(
            name=name.text,
            params=params,
            docstring=docstring,
            body=[],
            body_tokens=[],
            signature_text=signature,
            line=d.line,
            body_start_line=doc_line + 1,
            end_line=doc_line,
            owner_class=owner,
        )

    def _with_body(self, func: FunctionDef, start: int, body: list[nodes.Stmt]) -> FunctionDef:
        """func, a def's header, given the body whose first token is token
        start and whose statement loop has just ended; the DEDENT closing the
        body is consumed."""
        end = self.i
        if self.at(tk.DEDENT):
            self.advance()
        func.body, func.body_tokens = body, self.toks[start:end]
        if end > start:
            func.body_start_line = func.body_tokens[0].line
            func.end_line = func.body_tokens[-1].line  # tokens strictly increase
        return func

    def parse_class(self) -> ClassDef:
        c = self.expect(tk.KEYWORD, "class")
        name = self.expect(tk.IDENTIFIER)
        self.expect(tk.PUNCTUATOR, ":")
        self.expect(tk.NEWLINE)
        self.expect(tk.INDENT)
        methods: list[FunctionDef] = self._statements(lambda: self._method(name.text))
        end_line = methods[-1].end_line if methods else name.line
        if self.at(tk.DEDENT):
            self.advance()
        attributes: set[str] = set()
        for m in methods:
            attributes |= assigned_attributes(m, m.body)
        return ClassDef(name.text, methods, attributes, c.line, end_line)

    def _method(self, owner: str) -> FunctionDef:
        t = self.peek()
        if not (t.kind == tk.KEYWORD and t.text == "def"):
            raise _Recover(
                Diagnostic(f"only method definitions allowed in class body, found {t.text or t.kind!r}", t.line, t.column)
            )
        return self.parse_def(owner)

    def parse_import(self) -> ImportDecl:
        t = self.peek()
        if t.text == "import":
            self.advance()
            mod = self.expect(tk.IDENTIFIER)
            self.expect(tk.NEWLINE)
            return ImportDecl(mod.text, [])
        self.expect(tk.KEYWORD, "from")
        mod = self.expect(tk.IDENTIFIER)
        self.expect(tk.KEYWORD, "import")
        names = [self.expect(tk.IDENTIFIER).text]
        while self.at(tk.PUNCTUATOR, ","):
            self.advance()
            names.append(self.expect(tk.IDENTIFIER).text)
        self.expect(tk.NEWLINE)
        return ImportDecl(mod.text, names)

    # --- module ---------------------------------------------------------
    def parse_module(self) -> Module:
        mod = Module(path=self.path)
        while self.peek() is not None:
            t = self.peek()
            try:
                if t.kind == tk.NEWLINE:
                    self.advance()
                elif t.kind == tk.KEYWORD and t.text in ("import", "from"):
                    mod.imports.append(self.parse_import())
                elif t.kind == tk.KEYWORD and t.text == "class":
                    mod.classes.append(self.parse_class())
                elif t.kind == tk.KEYWORD and t.text == "def":
                    mod.functions.append(self.parse_def(owner=None))
                elif t.kind in (tk.INDENT, tk.DEDENT):
                    self.diags.append(Diagnostic("unexpected indentation", t.line, t.column))
                    self.advance()
                    self._sync_top_level()
                else:
                    mod.body.append(self.parse_simple_stmt())
            except _Recover as r:
                self.diags.append(r.diag)
                self._sync_top_level()
        mod.diagnostics = list(self.diags)
        return mod


def parser_tokens(toks: list[LexToken], lex_diags: list[Diagnostic]) -> list[LexToken]:
    """The tokens of a lex the parser reads: all but the error tokens. Each
    error token has a diagnostic, so a lex without any is read as it is."""
    return [t for t in toks if t.kind != tk.ERROR] if lex_diags else toks


def _parser_for(source: str, path: str, lexed) -> _Parser:
    """A parser over the tokens of `source` (or `lexed`, its given lex), error
    tokens dropped and lexer diagnostics already recorded."""
    toks, lex_diags = lexed if lexed is not None else lex(source)
    parser = _Parser(parser_tokens(toks, lex_diags), path)
    parser.diags.extend(lex_diags)
    return parser


def parse(source: str, path: str = "<source>", *, lexed=None) -> Module:
    """Parse MiniPy source into a Module; errors are collected, not raised.

    lexed, when given, must be `lex(source)`; passing it saves lexing the
    same text a second time.
    """
    return _parser_for(source, path, lexed).parse_module()


def parse_body(source: str, *, lexed=None):
    """Parse statement-sequence text (a rendered function body) as a def's
    body is parsed: an unexpectedly indented block is dropped.

    Returns (stmts, diagnostics); recovery keeps whatever prefix parsed.
    lexed, when given, must be `lex(source)`, as for `parse`.
    """
    parser = _parser_for(source, "<body>", lexed)
    return parser._statements(parser.parse_stmt), parser.diags


@dataclass(frozen=True)
class BodyCheckpoint:
    """A def's parse paused in its body's statement loop, at the start of a
    statement.

    func is the def's header (a function with an empty body), start the
    index of the body's first token in the parser's tokens, index the
    cursor, body the statements before it and diagnostics the parser's
    diagnostics so far. Up to there the parse has read only the tokens up to
    the cursor, so resuming it over any tokens that begin with those same
    ones parses the body as a parse of the whole text does.
    """

    func: FunctionDef
    start: int
    index: int
    body: tuple[nodes.Stmt, ...]
    diagnostics: tuple[Diagnostic, ...]


def resume_body(checkpoint: BodyCheckpoint, lexed, settled_line: int):
    """The function whose body the tokens of lexed hold, parsed from
    checkpoint, a checkpoint of a parse over tokens that lexed's begin with.

    Returns (function, the parser's diagnostics, the checkpoint at the last
    statement starting on a line up to settled_line, or checkpoint itself
    when none after it does). The body's closing DEDENT ends the parse.
    """
    parser = _Parser(parser_tokens(*lexed), "<body>")
    parser.i = checkpoint.index
    parser.diags = list(checkpoint.diagnostics)
    starts: list[tuple[int, int, int]] = []
    body = [*checkpoint.body, *parser._statements(parser.parse_stmt, starts)]
    func = parser._with_body(replace(checkpoint.func), checkpoint.start, body)
    for i, n_items, n_diags in reversed(starts):
        if parser.toks[i].line <= settled_line:
            if i > checkpoint.index:
                checkpoint = replace(
                    checkpoint, index=i, body=tuple(body[:len(checkpoint.body) + n_items]),
                    diagnostics=tuple(parser.diags[:n_diags]),
                )
            break
    return func, parser.diags, checkpoint


def assigned_attributes(func: FunctionDef, stmts: list[nodes.Stmt]) -> set[str]:
    """The attributes that stmts, statements of the method func, assign on
    its receiver (its first parameter), at any depth."""
    if not func.params:
        return set()
    recv = func.params[0]
    return {
        stmt.target.attr
        for stmt in nodes.walk_statements(stmts)
        if isinstance(stmt, nodes.Assign)
        and isinstance(stmt.target, nodes.Attribute)
        and isinstance(stmt.target.value, nodes.Name)
        and stmt.target.value.id == recv
    }


def extract_functions(module: Module) -> list[FunctionDef]:
    """All functions and methods in source order."""
    out: list[tuple[int, FunctionDef]] = [(f.line, f) for f in module.functions]
    for cls in module.classes:
        out.extend((m.line, m) for m in cls.methods)
    out.sort(key=lambda p: p[0])
    return [f for _, f in out]
