"""Dependency-error lint: syntax errors, undefined variables, missing members.

Unresolvable receivers stay silent: flagging what the analyzer cannot prove
would flood dynamically typed code with false positives. The three error
kinds reported here are exactly the categories the validity-rate metric
inspects. Every lex or parse diagnostic of a file is one syntax-error record;
redefining a name is not an error. `name_errors` holds the rule for the
names and members in one function scope (`scope.FunctionScope`), which
`lint_check` applies to the module level and every function of a file, and
the task analysis to the function being written. A receiver's members are
the scope index's (`ScopeIndex.members`): the index of a task analysis knows
the own class of the function being written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from ..minilang import nodes
from ..minilang.lexer import Diagnostic
from ..minilang.parser import extract_functions
from ..repo import Repository
from .builtins import BUILTIN_NAMES, is_builtin
from .scope import FunctionScope, build_scope_index

SYNTAX_ERROR = "syntax-error"
UNDEFINED_VARIABLE = "undefined-variable"
NO_MEMBER = "no-member"


@dataclass(frozen=True)
class LintError:
    kind: str
    file: str
    line: int
    column: int
    message: str


def syntax_errors(path: str, diagnostics: Iterable[Diagnostic]) -> list[LintError]:
    """One syntax-error record per lex or parse diagnostic."""
    return [LintError(SYNTAX_ERROR, path, d.line, d.column, d.message) for d in diagnostics]


def name_errors(scope: FunctionScope, stmts: list[nodes.Stmt]) -> list[LintError]:
    """Undefined-variable and no-member records of stmts, the body of
    scope's function or the file's module level. A name is defined when the
    scope sees it, it is a builtin, or the function assigns it anywhere."""
    path = scope.path
    defined = scope.names | BUILTIN_NAMES | {stmt.target.id for stmt in scope.assignments()}
    errors: list[LintError] = []
    for expr, is_store in nodes.walk_expressions(stmts):
        if isinstance(expr, nodes.Name):
            if not is_store and expr.id not in defined:
                errors.append(LintError(
                    UNDEFINED_VARIABLE, path, expr.line, expr.column,
                    f"undefined variable {expr.id!r}",
                ))
        elif isinstance(expr, nodes.Attribute):
            if not isinstance(expr.value, nodes.Name) or is_builtin(expr.attr):
                continue
            target = scope.receiver(expr.value.id, (expr.line, expr.column))
            if target is not None and expr.attr not in scope.index.members(target):
                errors.append(LintError(
                    NO_MEMBER, path, expr.line, expr.column,
                    f"{target.name!r} has no member {expr.attr!r}",
                ))
    return errors


def lint_check(repo: Repository, file: str) -> list[LintError]:
    module = repo.module(file)
    index = build_scope_index(repo)
    errors = syntax_errors(file, module.diagnostics)
    errors += name_errors(FunctionScope(index, file, None), module.body)
    for fn in extract_functions(module):
        errors += name_errors(FunctionScope(index, file, fn), fn.body)
    errors.sort(key=lambda e: (e.line, e.column, e.kind, e.message))
    return errors


def serialize_lint_errors(errors: Iterable[LintError]) -> str:
    """Line-delimited records: {file, line, column, kind, message} per error."""
    lines = [
        json.dumps(
            {
                "file": e.file,
                "line": e.line,
                "column": e.column,
                "kind": e.kind,
                "message": e.message,
            },
            sort_keys=True,
        )
        for e in errors
    ]
    return "\n".join(lines) + ("\n" if lines else "")
