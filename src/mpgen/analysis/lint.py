"""Dependency-error lint: syntax errors, undefined variables, missing members.

Unresolvable receivers stay silent: flagging what the analyzer cannot prove
would flood dynamically typed code with false positives. The three error
kinds reported here are exactly the categories the validity-rate metric
inspects. Every lex or parse diagnostic of a file is one syntax-error record;
redefining a name is not an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

from ..minilang import nodes
from ..minilang.parser import FunctionDef, extract_functions
from ..repo import Repository
from .builtins import BUILTIN_NAMES, is_builtin
from .scope import ScopeIndex, name_assignments, scope_index_for

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
                path, func, expr.value.id, (expr.line, expr.column)
            )
            if target is not None and expr.attr not in target.members:
                errors.append(
                    LintError(
                        NO_MEMBER,
                        path,
                        expr.line,
                        expr.column,
                        f"{target.name!r} has no member {expr.attr!r}",
                    )
                )


def lint_check(repo: Repository, file: str) -> list[LintError]:
    module = repo.module(file)
    index = scope_index_for(repo)
    scope = index.module_scope(file)
    errors: list[LintError] = []

    for diag in module.diagnostics:
        errors.append(LintError(SYNTAX_ERROR, file, diag.line, diag.column, diag.message))

    module_names = scope.visible_names if scope is not None else set()
    base_defined = module_names | BUILTIN_NAMES

    _check_expressions(module.body, base_defined, index, file, None, errors)

    for fn in extract_functions(module):
        local_targets = {stmt.target.id for stmt in name_assignments(fn.body)}
        defined = base_defined | set(fn.params) | local_targets
        _check_expressions(fn.body, defined, index, file, fn, errors)

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
