"""Dependency-error lint: syntax errors, undefined variables, missing members.

Unresolvable receivers stay silent: flagging what the analyzer cannot prove
would flood dynamically typed code with false positives. The three error
kinds reported here are exactly the categories the validity-rate metric
inspects. Every lex or parse diagnostic of a file is one syntax-error record;
redefining a name is not an error. `function_errors` holds the rule for the
names and members in one function, which `lint_check` applies to every
function of a file and the task analysis to the function being written. A
receiver's members are the scope index's (`ScopeIndex.members`): the index
of a task analysis knows the own class of the function being written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..minilang import nodes
from ..minilang.lexer import Diagnostic
from ..minilang.parser import FunctionDef, extract_functions
from ..repo import Repository
from .builtins import BUILTIN_NAMES, is_builtin
from .scope import ScopeIndex, build_scope_index, name_assignments

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


def _check_expressions(
    stmts: list[nodes.Stmt],
    defined: set[str],
    index: ScopeIndex,
    path: str,
    func: Optional[FunctionDef],
    assignments: Callable[[], Sequence[nodes.Assign]],
    errors: list[LintError],
) -> None:
    for expr, is_store in nodes.walk_expressions(stmts):
        if isinstance(expr, nodes.Name):
            if is_store:
                continue
            if expr.id not in defined:
                errors.append(
                    LintError(
                        UNDEFINED_VARIABLE,
                        path,
                        expr.line,
                        expr.column,
                        f"undefined variable {expr.id!r}",
                    )
                )
        elif isinstance(expr, nodes.Attribute):
            if not isinstance(expr.value, nodes.Name):
                continue
            if is_builtin(expr.attr):
                continue
            target = index.resolve_receiver(
                path, func, assignments, expr.value.id, (expr.line, expr.column)
            )
            if target is None:
                continue
            if expr.attr not in index.members(target):
                errors.append(
                    LintError(
                        NO_MEMBER,
                        path,
                        expr.line,
                        expr.column,
                        f"{target.name!r} has no member {expr.attr!r}",
                    )
                )


def syntax_errors(path: str, diagnostics: Iterable[Diagnostic]) -> list[LintError]:
    """One syntax-error record per lex or parse diagnostic."""
    return [LintError(SYNTAX_ERROR, path, d.line, d.column, d.message) for d in diagnostics]


def _module_names(index: ScopeIndex, path: str) -> set[str]:
    """Every name a file's code may read without defining it."""
    scope = index.module_scope(path)
    return (scope.visible_names if scope is not None else set()) | BUILTIN_NAMES


def function_errors(index: ScopeIndex, path: str, fn: FunctionDef) -> list[LintError]:
    """Undefined-variable and no-member records of one function; a
    receiver's members are the index's (`ScopeIndex.members`)."""
    assignments = list(name_assignments(fn.body))
    local_targets = {stmt.target.id for stmt in assignments}
    defined = _module_names(index, path) | set(fn.params) | local_targets
    errors: list[LintError] = []
    _check_expressions(fn.body, defined, index, path, fn, lambda: assignments, errors)
    return errors


def lint_check(repo: Repository, file: str) -> list[LintError]:
    module = repo.module(file)
    index = build_scope_index(repo)
    errors = syntax_errors(file, module.diagnostics)
    _check_expressions(
        module.body, _module_names(index, file), index, file, None, lambda: (), errors
    )
    for fn in extract_functions(module):
        errors += function_errors(index, file, fn)
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
