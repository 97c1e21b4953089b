"""AST node types for MiniPy expressions and statements."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass
class Name:
    id: str
    line: int
    column: int


@dataclass
class Num:
    value: str
    line: int
    column: int


@dataclass
class Str:
    line: int
    column: int


@dataclass
class Attribute:
    value: "Expr"
    attr: str
    line: int       # position of the attribute name
    column: int


@dataclass
class Call:
    func: "Expr"
    args: list["Expr"]
    line: int
    column: int


@dataclass
class BinOp:
    left: "Expr"
    op: str
    right: "Expr"


Expr = Union[Name, Num, Str, Attribute, Call, BinOp]


@dataclass
class Assign:
    target: Expr  # Name or Attribute
    value: Expr
    line: int
    column: int


@dataclass
class ExprStmt:
    value: Expr


@dataclass
class Return:
    value: Optional[Expr]
    line: int
    column: int


@dataclass
class If:
    test: Expr
    body: list["Stmt"]
    orelse: list["Stmt"] = field(default_factory=list)


@dataclass
class While:
    test: Expr
    body: list["Stmt"]


Stmt = Union[Assign, ExprStmt, Return, If, While]


def walk_statements(stmts: list[Stmt]):
    """Yield every statement, including those nested in if/while blocks, in
    pre-order. The walk keeps its own stack, so no nesting depth can exhaust
    the interpreter's recursion limit; the same holds for the walks below."""
    stack = stmts[::-1]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, If):
            stack += s.orelse[::-1]
            stack += s.body[::-1]
        elif isinstance(s, While):
            stack += s.body[::-1]


def walk_expressions(stmts: list[Stmt]):
    """Yield (expr, is_store_target) for every expression in the statements,
    each statement's expressions in pre-order."""
    for s in walk_statements(stmts):
        if isinstance(s, Assign):
            stack = [(s.value, False), (s.target, True)]
        elif isinstance(s, (ExprStmt, Return)):
            stack = [] if s.value is None else [(s.value, False)]
        else:  # If, While
            stack = [(s.test, False)]
        while stack:
            e, store = stack.pop()
            yield e, store
            if isinstance(e, Attribute):
                stack.append((e.value, False))
            elif isinstance(e, Call):
                stack += [(a, False) for a in reversed(e.args)]
                stack.append((e.func, False))
            elif isinstance(e, BinOp):
                stack.append((e.right, False))
                stack.append((e.left, False))


def expr_text(e: Expr) -> Optional[str]:
    """Canonical dotted text for Name/Attribute chains; None for anything else."""
    attrs: list[str] = []
    while isinstance(e, Attribute):
        attrs.append(e.attr)
        e = e.value
    if not isinstance(e, Name):
        return None
    attrs.append(e.id)
    return ".".join(reversed(attrs))


def chain_positions(e: Expr) -> list[tuple[int, int]]:
    """Positions of every identifier in a Name/Attribute chain."""
    out: list[tuple[int, int]] = []
    while isinstance(e, Attribute):
        out.append((e.line, e.column))
        e = e.value
    if isinstance(e, Name):
        out.append((e.line, e.column))
    return out[::-1]
