import pytest
from hypothesis import example, given, settings, strategies as st

from mpgen import DataError
from mpgen.analysis.builtins import is_builtin
from mpgen.analysis.complete import classify_caret, tool_complete
from mpgen.analysis.insert import insert
from mpgen.analysis.lint import (
    NO_MEMBER,
    SYNTAX_ERROR,
    UNDEFINED_VARIABLE,
    lint_check,
    serialize_lint_errors,
)
from mpgen.analysis.scope import build_scope_index
from mpgen.minilang import tokens as tk
from mpgen.repo import CaretPosition, Repository

from conftest import assert_completions_match_reference, text_vocab
from oracles import latest_enclosing_function, per_call_lint, scan_classify_caret

COUNTER = (
    "class Counter:\n"
    "    def boot(self):\n"
    '        "Prepare the counter"\n'
    "        self._value = 0\n"
    "    def bump(self, amount):\n"
    '        "Increase the counter"\n'
    "        self._value = self._value + amount\n"
    "        return self._value\n"
)


def make_repo(**files):
    return Repository(files)


def test_module_table_contains_function():
    repo = make_repo(**{"a.mp": "def f():\n    return 1\n"})
    idx = build_scope_index(repo)
    assert "f" in idx.module_scope("a.mp").members


def test_counter_value_attribute_table():
    # the member _value in the class Counter
    repo = make_repo(**{"core.mp": COUNTER})
    idx = build_scope_index(repo)
    assert idx.module_scope("core.mp").classes["Counter"].attributes == {"_value"}


def test_import_edge_resolution():
    repo = make_repo(**{
        "utils.mp": "def g():\n    return 1\n",
        "app.mp": "from utils import g\ndef h():\n    return g()\n",
    })
    idx = build_scope_index(repo)
    assert idx.module_scope("app.mp").imports == {"g": ("name", "utils.mp", "g")}
    assert not [e for e in lint_check(repo, "app.mp")]


def test_import_cycle_resolves_both_ways():
    repo = make_repo(**{
        "a.mp": "import b\ndef f():\n    return b.\n",
        "b.mp": "import a\ndef g():\n    return a.f\n",
    })
    idx = build_scope_index(repo)
    assert idx.module_scope("a.mp").imports == {"b": ("module", "b.mp")}
    assert idx.module_scope("b.mp").imports == {"a": ("module", "a.mp")}
    assert tool_complete(repo, CaretPosition("a.mp", 3, len("    return b."))) == ["g"]
    assert lint_check(repo, "b.mp") == []


# --- redefined names -------------------------------------------------------

TWO_CLASSES_A = (
    "class A:\n"
    "    def m(self):\n"
    "        self.x = 1\n"
    "        return self.x\n"
    "class A:\n"
    "    def n(self):\n"
    "        return self.n\n"
)


def test_redefined_function_keeps_its_own_params():
    repo = make_repo(**{"f.mp": "def f(a):\n    return a\n\ndef f(b):\n    return b\n"})
    assert tool_complete(repo, CaretPosition("f.mp", 2, 11)) == ["a", "f"]
    assert tool_complete(repo, CaretPosition("f.mp", 5, 11)) == ["b", "f"]


def test_self_in_first_of_two_same_named_classes():
    repo = make_repo(**{"a.mp": TWO_CLASSES_A})
    caret = CaretPosition("a.mp", 4, len("        return self."))
    assert tool_complete(repo, caret) == ["m", "x"]
    caret = CaretPosition("a.mp", 7, len("        return self."))
    assert tool_complete(repo, caret) == ["n"]


def test_lint_checks_self_against_its_own_class():
    repo = make_repo(**{"a.mp": TWO_CLASSES_A})
    assert lint_check(repo, "a.mp") == []
    src = TWO_CLASSES_A + "    def k(self):\n        return self.x\n"
    errors = lint_check(make_repo(**{"b.mp": src}), "b.mp")
    assert [(e.kind, e.line, e.message) for e in errors] == [
        (NO_MEMBER, 9, "'A' has no member 'x'")
    ]


def _assert_enclosing_matches_oracle(repo, path):
    index = build_scope_index(repo)
    for line in range(1, repo.text(path).count("\n") + 2):
        cls, func = index.enclosing(path, line)
        assert func is latest_enclosing_function(repo, path, line), (path, line)
        if func is not None and func.is_method:
            assert any(m is func for m in cls.methods), (path, line)


def test_enclosing_matches_oracle_on_corpus_and_tasks(corpus_repos, demo_config):
    from mpgen.pipeline import derive_tasks

    checked = 0
    for _name, repo in corpus_repos:
        for path in repo.paths():
            _assert_enclosing_matches_oracle(repo, path)
            checked += 1
    for task in derive_tasks(demo_config):
        _assert_enclosing_matches_oracle(task.snapshot, task.pos.file)
        checked += 1
    assert checked == 60 + 126


def _def_lines(indent, name, params, doc, body):
    lines = [f"{indent}def {name}({', '.join(params)}):"]
    if doc:
        lines.append(f'{indent}    "{name} doc"')
    lines += [f"{indent}    {stmt}" for stmt in body]
    return lines if doc or body else lines + [f"{indent}    return 1"]


_BODIES = st.lists(st.sampled_from(["x = 1", "return x", "self.y = x", "z = self.y"]), max_size=3)
_FUNCTIONS = st.builds(
    lambda name, doc, body, gap: _def_lines("", name, ["a"], doc, body) + [""] * gap,
    st.sampled_from(["f", "g"]), st.booleans(), _BODIES, st.integers(0, 1),
)
_METHODS = st.builds(
    lambda name, doc, body: _def_lines("    ", name, ["self"], doc, body),
    st.sampled_from(["m", "n"]), st.booleans(), _BODIES,
)
_CLASSES = st.builds(
    lambda name, methods: [f"class {name}:"] + sum(methods, []),
    st.sampled_from(["A", "B"]), st.lists(_METHODS, min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_FUNCTIONS, _CLASSES), min_size=1, max_size=6))
def test_enclosing_matches_oracle_with_redefined_names(defs):
    src = "\n".join(sum(defs, [])) + "\n"
    _assert_enclosing_matches_oracle(make_repo(**{"r.mp": src}), "r.mp")


def test_docstring_only_function_leaves_the_next_header_to_its_function():
    # f's reserved body-start line is g's header: the line is g's
    src = 'def f(a):\n    "doc"\ndef g(b):\n    return b\n'
    repo = make_repo(**{"r.mp": src})
    assert tool_complete(repo, CaretPosition("r.mp", 3, 4)) == ["b", "f", "g"]
    assert tool_complete(repo, CaretPosition("r.mp", 2, 9)) == ["a", "f", "g"]


# --- tool_complete ---------------------------------------------------------

def test_attribute_context_members_sorted():
    src = (
        "class C:\n"
        "    def m(self):\n"
        "        self.x = 1\n"
        "        self.y = 2\n"
        "        return self.x\n"
    )
    repo = make_repo(**{"c.mp": src})
    # caret right after "self." on the return line
    line = src.split("\n").index("        return self.x") + 1
    col = len("        return self.")
    out = tool_complete(repo, CaretPosition("c.mp", line, col))
    assert out == ["m", "x", "y"]


def _make_68_member_class():
    # 60 attributes (including _registered_updates) + 8 methods = 68 members
    attrs = ["_registered_updates"] + [f"_field_{c}{d}" for c in "abcdef" for d in "abcdefghij"][:59]
    lines = ["class Updater:", "    def boot(self):"]
    lines += [f"        self.{a} = 0" for a in attrs]
    for i, name in enumerate(["adjust", "clear_all", "fill_in", "grow", "shrink", "use"]):
        lines += [f"    def {name}(self, v):", f"        self.{attrs[i]} = v"]
    lines += ["    def touch(self):", "        return self."]
    return "\n".join(lines) + "\n", attrs


def test_sixty_eight_member_completion():
    # 68 accessible members defined within self, suggestions sorted
    src, attrs = _make_68_member_class()
    repo = make_repo(**{"u.mp": src})
    lines = src.split("\n")
    line = lines.index("        return self.") + 1
    col = len("        return self.")
    out = tool_complete(repo, CaretPosition("u.mp", line, col))
    assert len(out) == 68
    assert "_registered_updates" in out
    assert out == sorted(out)
    assert len(set(out)) == len(out)


def test_scope_context_lists_params_locals_and_module_names():
    src = (
        "def f(a):\n"
        "    b = 1\n"
        "    return \n"
    )
    repo = make_repo(**{"s.mp": src})
    out = tool_complete(repo, CaretPosition("s.mp", 3, len("    return ")))
    assert out == ["a", "b", "f"]


def test_locals_not_visible_before_assignment():
    src = "def f(a):\n    b = 1\n    c = 2\n"
    repo = make_repo(**{"s.mp": src})
    # caret at start of line 2: b not yet defined
    out = tool_complete(repo, CaretPosition("s.mp", 2, 4))
    assert "b" not in out and "a" in out


def test_unresolvable_receiver_returns_empty():
    src = "def f(a):\n    return a.\n"
    repo = make_repo(**{"s.mp": src})
    out = tool_complete(repo, CaretPosition("s.mp", 2, len("    return a.")))
    assert out == []


def test_chained_receiver_unresolvable():
    src = COUNTER + "def g():\n    c = Counter()\n    return c.bump.\n"
    repo = make_repo(**{"core.mp": src})
    line = src.rstrip("\n").count("\n") + 1
    out = tool_complete(repo, CaretPosition("core.mp", line, len("    return c.bump.")))
    assert out == []


def test_local_constructor_assignment_resolves():
    src = COUNTER + "def g():\n    c = Counter()\n    return c.\n"
    repo = make_repo(**{"core.mp": src})
    line = src.rstrip("\n").count("\n") + 1
    out = tool_complete(repo, CaretPosition("core.mp", line, len("    return c.")))
    assert out == ["_value", "boot", "bump"]


def test_module_alias_members():
    repo = make_repo(**{
        "utils.mp": "def g():\n    return 1\nTOP = 3\n",
        "app.mp": "import utils\ndef h():\n    return utils.\n",
    })
    out = tool_complete(repo, CaretPosition("app.mp", 3, len("    return utils.")))
    assert out == ["TOP", "g"]


def test_builtins_excluded_from_completions():
    src = "def f(a):\n    return \n"
    repo = make_repo(**{"s.mp": src})
    out = tool_complete(repo, CaretPosition("s.mp", 2, len("    return ")))
    assert "print" not in out and "len" not in out


# --- function scopes against the per-call reference --------------------------

def test_completions_equal_the_per_call_reference_on_the_corpus(corpus_repos):
    compared = sum(
        assert_completions_match_reference(repo, path)
        for _name, repo in corpus_repos for path in repo.paths()
    )
    assert compared > 3_000


_OTHER = (
    "class K:\n"
    "    def kick(self):\n"
    "        self.kept = 1\n"
    "def helper():\n"
    "    return K()\n"
    "TOP = 2\n"
)
_HEADS = st.sampled_from(
    ["import other", "from other import K", "from other import helper, TOP", "import ghost", ""]
)
# receivers of every kind: self, constructed locals (redefined, or assigned
# after the caret), module aliases, imported classes, unresolvable names
_STATEMENTS = st.sampled_from([
    "x = A()", "x = K()", "x = B()", "x = 1", "x = helper()", "y = x.", "return x.", "z = x.m",
    "self.y = x", "z = self.y", "return self.", "self.", "w = other.", "v = other.helper",
    "return v", "q = z + y", "k = f(x)", "return k.", "a = print", "return a.b.", "x = x.n",
    "if x:", "while y:", "else:", "return K.", "t = TOP", "return ghost.", "max = x", "return ",
])


def _definitions(statements):
    """Drawn functions and classes of drawn methods, each body drawn from
    statements, mostly at the body's level; deeper lines open blocks or
    misindent."""
    body = st.lists(st.tuples(st.sampled_from([0, 0, 0, 1, 2]), statements), min_size=1, max_size=7)
    defs = st.builds(
        lambda name, params, body: [f"def {name}({params}):"] + [
            "    " * (1 + depth) + stmt for depth, stmt in body
        ],
        st.sampled_from(["f", "g", "len"]),
        st.sampled_from(["", "a", "self", "self, x", "x, self", "str"]),
        body,
    )
    classes = st.builds(
        lambda name, methods: [f"class {name}:"] + ["    " + line for m in methods for line in m],
        st.sampled_from(["A", "B"]), st.lists(defs, min_size=1, max_size=2),
    )
    return defs | classes


@settings(max_examples=150, deadline=None)
@given(st.lists(_HEADS, max_size=2), st.lists(_definitions(_STATEMENTS), min_size=1, max_size=4))
@example(
    ["from other import K"],
    [["def f(self, x):", "    y = x.", "    x = K()", "    x = 1", "    return x."]],
)
@example([], [["def len(str):", "    max = 1", "    return "]])
@example(["from other import K"], [["def f(x):", "    y = x.", "    x = K()"]])
def test_completions_equal_the_per_call_reference_on_drawn_functions(heads, defs):
    """Drawn functions and methods, names redefined (builtins too), blocks
    nested or misindented; a receiver's local may be assigned after the
    caret, or again."""
    src = "\n".join(heads + sum(defs, [])) + "\n"
    repo = make_repo(**{"r.mp": src, "other.mp": _OTHER})
    assert_completions_match_reference(repo, "r.mp")


def test_caret_out_of_bounds_raises():
    repo = make_repo(**{"s.mp": "x = 1\n"})
    with pytest.raises(DataError):
        tool_complete(repo, CaretPosition("s.mp", 99, 0))
    with pytest.raises(DataError):
        tool_complete(repo, CaretPosition("missing.mp", 1, 0))


# --- is_builtin -------------------------------------------------------------

def test_is_builtin_table():
    assert is_builtin("__dict__")
    assert is_builtin("print")
    assert not is_builtin("_registered_updates")


# --- lint -------------------------------------------------------------------

def test_undefined_variable_reported_at_position():
    src = "def f():\n    return z\n"
    repo = make_repo(**{"s.mp": src})
    errors = lint_check(repo, "s.mp")
    assert len(errors) == 1
    e = errors[0]
    assert e.kind == UNDEFINED_VARIABLE
    assert (e.line, e.column) == (2, len("    return "))


def test_no_member_for_missing_attribute():
    # class defines only _registered_updates; accessing another member fails
    src = (
        "class Updater:\n"
        "    def boot(self):\n"
        "        self._registered_updates = 0\n"
        "    def use(self):\n"
        "        return self.updates\n"
    )
    repo = make_repo(**{"u.mp": src})
    errors = lint_check(repo, "u.mp")
    assert [e.kind for e in errors] == [NO_MEMBER]
    assert "updates" in errors[0].message


def test_clean_file_has_no_errors():
    repo = make_repo(**{"core.mp": COUNTER})
    assert lint_check(repo, "core.mp") == []


def test_syntax_error_from_unparseable_region():
    repo = make_repo(**{"s.mp": "def f(:\n    return 1\n"})
    errors = lint_check(repo, "s.mp")
    assert any(e.kind == SYNTAX_ERROR for e in errors)


def test_unresolvable_receiver_is_silent():
    src = "def f(a):\n    return a.whatever\n"
    repo = make_repo(**{"s.mp": src})
    assert lint_check(repo, "s.mp") == []


def test_builtin_member_access_is_silent():
    src = COUNTER + "def g():\n    c = Counter()\n    return c.__dict__\n"
    repo = make_repo(**{"core.mp": src})
    assert lint_check(repo, "core.mp") == []


def test_labeled_fixture_error_multiset():
    src = (
        "class K:\n"
        "    def boot(self):\n"
        "        self.a = 0\n"
        "def f():\n"
        "    k = K()\n"
        "    bad = k.missing + ghost\n"
        "    return bad\n"
    )
    repo = make_repo(**{"k.mp": src})
    errors = lint_check(repo, "k.mp")
    assert sorted(e.kind for e in errors) == [NO_MEMBER, UNDEFINED_VARIABLE]


def test_lint_serialization_is_line_delimited_json():
    import json

    repo = make_repo(**{"s.mp": "def f():\n    return z\n"})
    out = serialize_lint_errors(lint_check(repo, "s.mp"))
    lines = [l for l in out.split("\n") if l]
    rec = json.loads(lines[0])
    assert set(rec) == {"file", "line", "column", "kind", "message"}


# --- lint against the per-call reference -----------------------------------

def test_lint_equals_the_per_call_reference_on_the_corpus(corpus_repos):
    for _name, repo in corpus_repos:
        for path in repo.paths():
            assert lint_check(repo, path) == per_call_lint(repo, path), path


# module-level reads of every receiver kind, and names defined or not
_TOP_LINES = st.sampled_from([
    "print(other.TOP)", "g = other.gone", "h = K.kick", "u = K.gone", "v = K()", "n = v.kept",
    "print(ghost)", "w = A.f", "A.nope", "s = len(TOP)",
])
# receivers of every kind, read and assigned: self, constructed locals
# (assigned again, or only after the access), a module alias, an imported
# class, unresolvable names; builtins read and redefined
_LINT_STATEMENTS = st.sampled_from([
    "x = K()", "x = A()", "x = 1", "x = other", "x = helper()", "y = x.kept", "return x.kick",
    "z = x.gone", "x.kept = 2", "return self.kick", "return self.y", "self.y = 1",
    "return other.TOP", "return other.gone", "return K.kick", "return K.gone", "t = TOP + ghost",
    "print(len(x))", "return x.__class__", "q = z + w", "w = q", "if x:", "while y:", "else:",
    "return A.f", "max = x", "return max.y", "return str.y", "k = f(x)", "return k.kick",
    "return self.gone", "return self.f", "a = A()", "return a.f", "return a.gone",
])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_HEADS, min_size=1, max_size=3, unique=True), st.lists(_TOP_LINES, max_size=3),
    st.lists(_definitions(_LINT_STATEMENTS), min_size=1, max_size=3),
)
# an access before the local's one assignment, and one before a reassignment
@example(["from other import K"], [], [["def f():", "    y = x.kept", "    x = K()"]])
@example(
    ["from other import K"], [],
    [["def f():", "    x = K()", "    y = x.gone", "    x = 1", "    y = x.gone"]],
)
# a method with no parameters reads no receiver as its class
@example([], [], [["class A:", "    def f():", "        return self.y"]])
# module-level reads through a module alias and a from-import
@example(["import other", "from other import K"], ["g = other.gone", "u = K.gone"], [["def f():"]])
def test_lint_equals_the_per_call_reference_on_drawn_functions(heads, top, defs):
    """Drawn module-level lines, functions and methods: `lint_check` gives
    what the per-call reference does."""
    src = "\n".join(heads + top + sum(defs, [])) + "\n"
    repo = make_repo(**{"r.mp": src, "other.mp": _OTHER})
    assert lint_check(repo, "r.mp") == per_call_lint(repo, "r.mp")


def test_oracle_self_consistency_on_corpus(corpus_repos):
    # suggested identifiers never lint as undefined/no-member at that spot
    from mpgen.minilang.parser import extract_functions

    checked = 0
    for _name, repo in corpus_repos[:4]:
        for path in repo.paths():
            flagged = {
                (e.line, e.column)
                for e in lint_check(repo, path)
                if e.kind in (UNDEFINED_VARIABLE, NO_MEMBER)
            }
            for fn in extract_functions(repo.module(path)):
                for t in fn.body_tokens:
                    if t.kind != tk.IDENTIFIER:
                        continue
                    caret = CaretPosition(path, t.line, t.column)
                    if t.text in tool_complete(repo, caret):
                        assert (t.line, t.column) not in flagged
                        checked += 1
    assert checked > 100


# --- insert ------------------------------------------------------------------

def _blank_fixture():
    src = (
        "class C:\n"
        "    def m(self):\n"
        '        "doc"\n'
        "        \n"
        "    def other(self):\n"
        "        self.z = 1\n"
    )
    return Repository({"c.mp": src}), CaretPosition("c.mp", 4, 8)


def test_insert_empty_tokens_is_identity():
    repo, pos = _blank_fixture()
    snap, caret = insert(repo, pos, "")
    assert snap.files == repo.files
    assert caret == pos


def test_insert_strips_markers():
    """The fallback splices the prefix's rendering, which leaves out the
    control tokens."""
    from mpgen.decode import Prefix
    from mpgen.lm.tokenizer import tokenize

    repo, pos = _blank_fixture()
    vocab = text_vocab(["self.z = 1"])
    prefix = Prefix(vocab)
    for tok in tokenize("<COMP>self.<COMP>z = 1", vocab):
        prefix.append(tok)
    snap, _ = insert(repo, pos, prefix.body.text())
    assert "<COMP>" not in snap.text("c.mp")
    assert "self.z = 1" in snap.text("c.mp")


def test_insert_caret_supports_attribute_context():
    repo, pos = _blank_fixture()
    snap, caret = insert(repo, pos, "self.")
    out = tool_complete(snap, caret)
    assert out == ["m", "other", "z"]


def test_insert_purity():
    repo, pos = _blank_fixture()
    before = dict(repo.files)
    for text in ("x = 1", "self.z = 2\nreturn self.z"):
        insert(repo, pos, text)
    assert repo.files == before


def test_insert_reindents_lines():
    repo, pos = _blank_fixture()
    snap, caret = insert(repo, pos, "x = 1\nreturn x")
    lines = snap.text("c.mp").split("\n")
    assert lines[3] == "        x = 1"
    assert lines[4] == "        return x"
    assert (caret.line, caret.column) == (5, len("        return x"))


def test_insert_invalid_position():
    repo, pos = _blank_fixture()
    with pytest.raises(DataError):
        insert(repo, CaretPosition("c.mp", 99, 0), "x = 1")


# --- caret classification ----------------------------------------------------

def test_classify_caret_matches_scan_at_every_corpus_identifier(corpus_repos):
    kinds = set()
    checked = 0
    for _name, repo in corpus_repos:
        for path in repo.paths():
            for t in repo.lex(path)[0]:
                if t.kind != tk.IDENTIFIER:
                    continue
                for column in (t.column, t.column + len(t.text)):
                    caret = CaretPosition(path, t.line, column)
                    want = scan_classify_caret(repo, caret)
                    assert classify_caret(repo, caret) == want, caret
                    kinds.add((want.kind, want.receiver is None))
                    checked += 1
    assert checked > 6_000
    assert kinds >= {("scope", True), ("attribute", False)}


_CARET_LINES = st.builds(
    lambda indent, frag: indent + frag,
    st.sampled_from(["", "  ", "    ", "        "]),
    st.sampled_from([
        "", "x = a.", "y = self.b.", "return obj.", "def f(a):", "class C:",
        "z = f(a.", "a.b.c", "self.x = 1", "return self.", "if x.", "w = (1 + q.",
        's = "ab.', "$.", "<COMP>self.", ".", ". x", "else:", "k = 1 .", "u.v.",
    ]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CARET_LINES, min_size=1, max_size=8))
@example(["def f(a):", "    y = self.b.", "        .", "$."])
def test_classify_caret_matches_scan_at_chosen_carets(lines):
    # line starts, line ends, and just after every "." (a dangling one
    # included), on half-written code
    repo = Repository({"h.mp": "\n".join(lines)})
    for lineno, line in enumerate(lines, start=1):
        columns = {0, len(line)} | {i + 1 for i, ch in enumerate(line) if ch == "."}
        for column in sorted(columns):
            caret = CaretPosition("h.mp", lineno, column)
            assert classify_caret(repo, caret) == scan_classify_caret(repo, caret), caret
