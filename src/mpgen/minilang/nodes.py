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
    raw: str  # the literal including its quotes
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
    """Yield every statement, including those nested in if/while blocks."""
    for s in stmts:
        yield s
        if isinstance(s, If):
            yield from walk_statements(s.body)
            yield from walk_statements(s.orelse)
        elif isinstance(s, While):
            yield from walk_statements(s.body)


def walk_expressions(stmts: list[Stmt]):
    """Yield (expr, is_store_target) for every expression in the statements."""

    def visit(e: Expr, store: bool):
        yield e, store
        if isinstance(e, Attribute):
            yield from visit(e.value, False)
        elif isinstance(e, Call):
            yield from visit(e.func, False)
            for a in e.args:
                yield from visit(a, False)
        elif isinstance(e, BinOp):
            yield from visit(e.left, False)
            yield from visit(e.right, False)

    for s in walk_statements(stmts):
        if isinstance(s, Assign):
            yield from visit(s.target, True)
            yield from visit(s.value, False)
        elif isinstance(s, ExprStmt):
            yield from visit(s.value, False)
        elif isinstance(s, Return):
            if s.value is not None:
                yield from visit(s.value, False)
        elif isinstance(s, If):
            yield from visit(s.test, False)
        elif isinstance(s, While):
            yield from visit(s.test, False)


def expr_text(e: Expr) -> Optional[str]:
    """Canonical dotted text for Name/Attribute chains; None for anything else."""
    if isinstance(e, Name):
        return e.id
    if isinstance(e, Attribute):
        base = expr_text(e.value)
        if base is None:
            return None
        return base + "." + e.attr
    return None


def chain_positions(e: Expr) -> list[tuple[int, int]]:
    """Positions of every identifier in a Name/Attribute chain."""
    if isinstance(e, Name):
        return [(e.line, e.column)]
    if isinstance(e, Attribute):
        return chain_positions(e.value) + [(e.line, e.column)]
    return []
