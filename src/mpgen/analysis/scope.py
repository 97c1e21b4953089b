"""Scope index: per-file symbol tables and the lookups that read them.

Each rule is decided in one place:

- `ScopeIndex.enclosing` says which class and function hold a line: the
  latest-starting function or method whose span holds it. It walks each
  file's definitions, not its names, so an earlier definition of a redefined
  name still encloses its own lines. `span_end` is where a function's span
  ends. Spans overlap only where a docstring-only function's reserved
  body-start line is the next definition's header, and that line belongs to
  the next definition.
- A receiver's members are `ClassDef.members` for a class and
  `ModuleScope.members` for a module (`ScopeIndex.members`). An index made
  for a task's caret knows the class that holds the function being written
  (its own class), which has instead its method names and what its other
  methods assign (`own_class_members`), plus what the body being written
  assigns.
- A name resolves to its last definition in the file, as at run time.
- `FunctionScope` says what one function, or a file's module level, sees:
  the visible names, the parameters, the plain-name assignments
  (`name_assignments`, listed once per scope) and what a receiver resolves
  to (`FunctionScope.receiver`). The completion tool (`complete.complete_in`)
  and the lint (`lint.name_errors`) both ask it.

Type resolution is deliberately flow-insensitive and single-hop, the level
of inference a static tool can honestly sustain for a dynamically typed
mini-language: the receiver `self` (a method's first parameter) resolves to
the class that encloses the method, a local resolves to the class it was
most recently constructed from, a class or module name resolves to itself,
and everything else is unresolvable.

The index is lazy: `ScopeIndex.module_scope` builds a file's `ModuleScope`
the first time a lookup reaches its path, and keeps it on the repository.
A query therefore analyses only the files it reaches; a task context, for
one, scopes the file of its function and the modules that a receiver
resolves through. A loaded task's context reads the loaded repository's
index, so a blanked file is parsed and scoped only by a context
`TaskContext.at` makes, for pairs scored without their loaded tasks.
Laziness is exact
because a file's scope depends only on its own parse and on the
repository's set of paths, which decides whether an import resolves, and a
repository fixes both. The scopes are kept per repository, as its lexes
and parses are: a snapshot that adds a path can resolve an import that its
parent could not. The index holds its
repository and the repository holds only scopes, so no reference cycle
keeps either alive past its last use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from ..minilang import nodes
from ..minilang.parser import ClassDef, FunctionDef, Module, assigned_attributes, extract_functions
from ..repo import SOURCE_SUFFIX, Repository


def span_end(fn: FunctionDef) -> int:
    """Last line of a function's span. The span reaches the reserved
    body-start line even when the body is empty, so a freshly blanked
    insertion point still lies inside the function."""
    return max(fn.end_line, fn.body_start_line)


def name_assignments(stmts: list[nodes.Stmt]) -> Iterator[nodes.Assign]:
    """Every assignment to a plain name among the statements, nested ones
    too, in source order."""
    for stmt in nodes.walk_statements(stmts):
        if isinstance(stmt, nodes.Assign) and isinstance(stmt.target, nodes.Name):
            yield stmt


@dataclass
class ModuleScope:
    module: Module
    members: set[str]             # the functions, classes and variables it defines
    classes: dict[str, ClassDef]  # each class name's last definition
    # alias -> ("module", path) or ("name", path, name); unresolved imports
    # map to ("unresolved",).
    imports: dict[str, tuple]

    @cached_property
    def functions(self) -> list[FunctionDef]:
        """Every function and method, in source order."""
        return extract_functions(self.module)

    @property
    def name(self) -> str:
        """The module as a receiver is named by its path."""
        return self.module.path

    @cached_property
    def visible_names(self) -> frozenset[str]:
        """The names the file defines or imports; computed once per scope."""
        return frozenset(self.members.union(self.imports))


class ScopeIndex:
    """The scopes of one repository's files, each built on first use, and
    the members of own_class, which holds the function being written, if
    any (see `members`)."""

    def __init__(
        self, repo: Repository, own_class: Optional[ClassDef] = None,
        own_members: frozenset = frozenset(),
    ):
        self.repo = repo
        self.own_class = own_class
        self.own_members = own_members

    def members(self, target: ClassDef | ModuleScope) -> set[str] | frozenset:
        """The members of a resolved receiver: own_members for own_class,
        what the index holds of it for any other class or module."""
        return self.own_members if target is self.own_class else target.members

    def module_scope(self, path: str) -> Optional[ModuleScope]:
        """The scope of the file at path, or None when the repository has no
        such file."""
        cache = self.repo._scope_cache
        scope = cache.get(path)
        if scope is None and path in self.repo.files:
            scope = cache[path] = _module_scope(self.repo, path)
        return scope

    def enclosing(self, path: str, line: int) -> tuple[Optional[ClassDef], Optional[FunctionDef]]:
        """Class and function whose span contains the given line.

        The function is the latest-starting one whose span holds the line;
        the class is the one holding that function, or, outside every
        function, the line itself.
        """
        scope = self.module_scope(path)
        if scope is None:
            return None, None
        func = next(
            (fn for fn in reversed(scope.functions) if fn.line <= line <= span_end(fn)), None
        )
        return class_at(scope.module, func.line if func is not None else line), func

    def resolve_class_name(self, path: str, name: str) -> Optional[ClassDef]:
        scope = self.module_scope(path)
        if scope is None:
            return None
        if name in scope.classes:
            return scope.classes[name]
        target = scope.imports.get(name)
        if target and target[0] == "name":
            _, tpath, tname = target
            other = self.module_scope(tpath)
            if other and tname in other.classes:
                return other.classes[tname]
        return None

    def resolve_module_alias(self, path: str, name: str) -> Optional[ModuleScope]:
        scope = self.module_scope(path)
        if scope is None:
            return None
        target = scope.imports.get(name)
        if target and target[0] == "module":
            return self.module_scope(target[1])
        return None


class FunctionScope:
    """What func, a function of the file at path (None: the file's module
    level), sees, for the completion tool and the lint alike.

    names are the names the file makes visible with func's parameters.
    assignments are func's plain-name assignments in source order
    (`name_assignments`), none at the module level, listed on first use; a
    caller asking about many positions of one function therefore walks its
    body once. A receiver's members are index's (`ScopeIndex.members`).
    """

    def __init__(self, index: ScopeIndex, path: str, func: Optional[FunctionDef]):
        self.index = index
        self.path = path
        self.func = func
        scope = index.module_scope(path)
        names = scope.visible_names if scope is not None else frozenset()
        self.names = names.union(func.params) if func is not None else names
        self._assignments: Optional[list[nodes.Assign]] = None

    def assignments(self) -> list[nodes.Assign]:
        # not a cached_property, whose first read takes a lock on Python 3.11:
        # a scope is made per function of trigger insertion and per task analysis
        if self._assignments is None:
            self._assignments = [] if self.func is None else list(name_assignments(self.func.body))
        return self._assignments

    def receiver(self, name: str, before: tuple[int, int]) -> Optional[ClassDef | ModuleScope]:
        """The class or module that the receiver of `name.` resolves to, or None.

        A method's first parameter is its class. Otherwise only the
        assignments lexically preceding the access (`before`) count, and the
        latest of them decides; with none, the name is looked up as a class
        or a module alias of the file.
        """
        func, index, path = self.func, self.index, self.path
        if func is not None and func.is_method and func.params and name == func.params[0]:
            return class_at(index.module_scope(path).module, func.line)
        latest = next(
            (
                stmt for stmt in reversed(self.assignments())
                if stmt.target.id == name and (stmt.target.line, stmt.target.column) < before
            ),
            None,
        )
        if latest is not None:
            value = latest.value
            if isinstance(value, nodes.Call) and isinstance(value.func, nodes.Name):
                return index.resolve_class_name(path, value.func.id)
            return None
        return index.resolve_class_name(path, name) or index.resolve_module_alias(path, name)


def own_class_members(cls: ClassDef, func: FunctionDef) -> frozenset:
    """The members of cls that do not depend on the body of its method func:
    its method names and what its other methods assign to their receiver."""
    members = {m.name for m in cls.methods}
    for m in cls.methods:
        if m is not func:
            members |= assigned_attributes(m, m.body)
    return frozenset(members)


def build_scope_index(repo: Repository) -> ScopeIndex:
    """The repository's scope index; it builds each file's scope on first use."""
    return ScopeIndex(repo)


def class_at(module: Module, line: int) -> Optional[ClassDef]:
    """The class of module whose header or methods' lines hold the line."""
    return next((c for c in module.classes if c.line <= line <= c.end_line), None)


def _module_scope(repo: Repository, path: str) -> ModuleScope:
    """The scope of one file of the repository, from its cached parse."""
    mod = repo.module(path)
    imports: dict[str, tuple] = {}
    for imp in mod.imports:
        target = imp.module + SOURCE_SUFFIX
        if target not in repo.files:
            imports.update(dict.fromkeys(imp.bound_names, ("unresolved",)))
        elif imp.names:
            imports.update((n, ("name", target, n)) for n in imp.names)
        else:
            imports[imp.module] = ("module", target)
    classes = {cls.name: cls for cls in mod.classes}
    members = (
        {fn.name for fn in mod.functions}
        | set(classes)
        | {stmt.target.id for stmt in name_assignments(mod.body)}
    )
    return ModuleScope(mod, members, classes, imports)
