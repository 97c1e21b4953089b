"""The autocompletion tool: identifier suggestions at a caret position."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from ..minilang import tokens as tk
from ..minilang.tokens import LexToken
from ..repo import CaretPosition, Repository
from .builtins import is_builtin
from .scope import locals_before, scope_index_for


def is_identifier(tok: LexToken) -> bool:
    return tok.kind == tk.IDENTIFIER


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


def classify_caret(repo: Repository, caret: CaretPosition) -> CaretContext:
    repo.validate_caret(caret)
    toks, _ = repo.lex(caret.file)
    # Tokens strictly increase in (line, column), so the ones left of the
    # caret are toks[:i]; only the last three that are not indentation matter.
    i = bisect_left(toks, (caret.line, caret.column), key=lambda t: (t.line, t.column))
    left: list[LexToken] = []
    while i > 0 and len(left) < 3:
        i -= 1
        if toks[i].kind not in (tk.INDENT, tk.DEDENT):
            left.insert(0, toks[i])
    if left and left[-1].kind == tk.PUNCTUATOR and left[-1].text == ".":
        if len(left) >= 2 and left[-2].kind == tk.IDENTIFIER:
            if len(left) >= 3 and left[-3].kind == tk.PUNCTUATOR and left[-3].text == ".":
                return CaretContext("attribute", receiver=None)  # chained: a.b.
            return CaretContext("attribute", receiver=left[-2].text)
        return CaretContext("attribute", receiver=None)
    return CaretContext("scope")


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

    if ctx.kind == "attribute":
        if ctx.receiver is None:
            return []
        resolved = index.resolve_receiver(
            caret.file, func, ctx.receiver, (caret.line, caret.column)
        )
        if resolved is None:
            return []
        kind, target = resolved
        if kind == "class":
            names = target.members
        else:
            names = target.defined_names
        return sorted(n for n in names if not is_builtin(n))

    names: set[str] = set()
    scope = index.module_scope(caret.file)
    if scope is not None:
        names |= scope.visible_names
    if func is not None:
        names |= set(func.params)
        names |= locals_before(func, (caret.line, caret.column))
    return sorted(n for n in names if not is_builtin(n))
