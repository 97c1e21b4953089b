from mpgen.analysis.lint import lint_check
from mpgen.minilang import nodes, tokens as tk
from mpgen.minilang.parser import MAX_NESTING, extract_functions, parse, parse_body
from mpgen.minilang.render import render_tokens
from mpgen.minilang.tokens import LexToken
from mpgen.repo import Repository


def test_single_function_no_docstring():
    m = parse("def f():\n    return 1\n", "t.mp")
    assert len(m.functions) == 1
    fn = m.functions[0]
    assert fn.name == "f" and fn.docstring is None
    assert not m.diagnostics


def test_first_statement_string_literal_is_docstring():
    m = parse('def f():\n    "adds"\n    return 1\n', "t.mp")
    fn = m.functions[0]
    assert fn.docstring == "adds"
    # body excludes the docstring statement
    assert render_tokens(fn.body_tokens) == "return 1"
    texts = [t.text for t in fn.body_tokens]
    assert '"adds"' not in texts


def test_class_attributes_closed_over_all_methods():
    src = (
        "class C:\n"
        "    def m1(self):\n"
        "        self.a = 1\n"
        "    def m2(self):\n"
        "        self.b = 2\n"
    )
    m = parse(src, "t.mp")
    cls = m.classes[0]
    assert cls.attributes == {"a", "b"}
    assert [f.name for f in cls.methods] == ["m1", "m2"]


def test_signature_text():
    m = parse("def add(self, update):\n    return update\n", "t.mp")
    assert m.functions[0].signature_text == "def add(self, update):"


def test_extract_functions_source_order_and_docstring_flags():
    src = (
        "def f():\n"
        "    return 1\n"
        "class C:\n"
        '    def m1(self):\n'
        '        "one"\n'
        "        self.x = 1\n"
        '    def m2(self):\n'
        '        "two"\n'
        "        return self.x\n"
    )
    m = parse(src, "t.mp")
    fns = extract_functions(m)
    assert [f.name for f in fns] == ["f", "m1", "m2"]
    assert [f.docstring is not None for f in fns] == [False, True, True]


def test_empty_module():
    m = parse("", "t.mp")
    assert extract_functions(m) == []


def test_recovery_skips_to_next_definition():
    src = (
        "def broken(:\n"
        "    return 1\n"
        "def ok():\n"
        "    return 2\n"
    )
    m = parse(src, "t.mp")
    assert m.diagnostics
    assert any(f.name == "ok" for f in m.functions)


def test_partial_statement_keeps_earlier_body():
    # a file holding a half-generated expression still exposes the function
    src = "class C:\n    def m(self):\n        x = 1\n        self.\n"
    m = parse(src, "t.mp")
    cls = m.classes[0]
    assert cls.methods and cls.methods[0].name == "m"
    body = cls.methods[0].body
    assert any(isinstance(s, nodes.Assign) for s in body)
    assert m.diagnostics


def test_imports():
    m = parse("import utils\nfrom core import A, b_thing\n", "t.mp")
    assert m.imports[0].module == "utils" and m.imports[0].bound_names == ["utils"]
    assert m.imports[1].names == ["A", "b_thing"]


def test_if_else_and_while():
    src = (
        "def f(a):\n"
        "    while a > 0:\n"
        "        a = a - 1\n"
        "    if a == 0:\n"
        "        return 1\n"
        "    else:\n"
        "        return 2\n"
    )
    m = parse(src, "t.mp")
    body = m.functions[0].body
    assert isinstance(body[0], nodes.While)
    assert isinstance(body[1], nodes.If)
    assert body[1].orelse


def test_parse_body_recovers_prefix():
    stmts, diags = parse_body("x = 1\ny = $$$\n")
    assert len(stmts) >= 1 and isinstance(stmts[0], nodes.Assign)
    assert diags


def test_round_trip_structural_equality(corpus_repos):
    # parse(render(parse(s))) preserves the structure for every corpus file
    def summary(m):
        return (
            [(i.module, tuple(i.names)) for i in m.imports],
            [
                (
                    c.name,
                    tuple(sorted(c.attributes)),
                    tuple(
                        (f.name, tuple(f.params), f.docstring,
                         tuple((t.kind, t.text) for t in f.body_tokens))
                        for f in c.methods
                    ),
                )
                for c in m.classes
            ],
            [
                (f.name, tuple(f.params), f.docstring,
                 tuple((t.kind, t.text) for t in f.body_tokens))
                for f in m.functions
            ],
        )

    checked = 0
    for _name, repo in corpus_repos:
        for path in repo.paths():
            m1 = repo.module(path)
            m2 = parse(render_tokens(repo.lex(path)[0]), path)
            assert summary(m1) == summary(m2), path
            checked += 1
    assert checked >= 30


# One malformed snippet per recovery site, with the exact lint records
# (kind, line, column, message) that `mpgen lint` prints for it.
_RECOVERY_SITES = {
    "if_block.mp": (
        "def f(a):\n    if a:\n        b = = 1\n        a = 2\n    return a\n",
        [("syntax-error", 3, 12, "unexpected '=' in expression")],
    ),
    "def_body.mp": (
        "def g(a):\n    b = )\n    return a\n",
        [("syntax-error", 2, 8, "unexpected ')' in expression")],
    ),
    "class_body.mp": (
        "class C:\n    x = 1\n        y = 2\n    def m(self):\n        return self\n",
        [("syntax-error", 2, 4, "only method definitions allowed in class body, found 'x'")],
    ),
    "stray_indent.mp": (
        "x = 1\n    y = 2\nz = x\n",
        [("syntax-error", 2, 0, "unexpected indentation")],
    ),
    "eof_expr.mp": (
        "x = 1\ny = f(x,",
        [("syntax-error", 2, 8, "unexpected 'newline' in expression")],
    ),
    "eof_expect.mp": (
        "def h(a):",
        [("syntax-error", 1, 0, "unexpected end of file, expected indent")],
    ),
    "unterminated.mp": (
        'def k():\n    s = "abc\n    return s\n',
        [
            ("syntax-error", 2, 8, "unterminated string literal"),
            ("syntax-error", 2, 12, "unexpected 'newline' in expression"),
            ("undefined-variable", 3, 11, "undefined variable 's'"),
        ],
    ),
    "illegal.mp": (
        "w = 1 $ 2\n",
        [
            ("syntax-error", 1, 6, "illegal character '$'"),
            ("syntax-error", 1, 8, "expected 'newline', found '2'"),
        ],
    ),
    # A line of error tokens alone leaves a bare newline, which is skipped.
    "error_line_block.mp": (
        'def f(a):\n    if a:\n        "abc\n        a = 1\n    return a\n',
        [("syntax-error", 3, 8, "unterminated string literal")],
    ),
    "error_line_def.mp": (
        "def g(a):\n    b = a\n    $\n    return b\n",
        [("syntax-error", 3, 4, "illegal character '$'")],
    ),
    "error_line_class.mp": (
        "class C:\n    $\n    def m(self):\n        return self\n",
        [("syntax-error", 2, 4, "illegal character '$'")],
    ),
}


def test_recovery_sites_pin_lint_records_and_precedence():
    repo = Repository({path: src for path, (src, _) in _RECOVERY_SITES.items()})
    for path, (_, want) in _RECOVERY_SITES.items():
        got = [(e.kind, e.line, e.column, e.message) for e in lint_check(repo, path)]
        assert got == want, path

    # Recovery resumes where it should: after the bad line of a block, and
    # at the next method after a non-def line (and its indented block).
    (if_stmt, ret) = repo.module("if_block.mp").functions[0].body
    assert [type(s) for s in if_stmt.body] == [nodes.Assign] and isinstance(ret, nodes.Return)
    assert [type(s) for s in repo.module("def_body.mp").functions[0].body] == [nodes.Return]
    assert [m.name for m in repo.module("class_body.mp").classes[0].methods] == ["m"]

    # A token stream that stops inside an expression (no closing newline).
    x, eq = (LexToken(tk.IDENTIFIER, "x", 3, 0), LexToken(tk.OPERATOR, "=", 3, 2))
    m = parse("", "t.mp", lexed=([x, eq], []))
    assert [(d.line, d.column, d.message) for d in m.diagnostics] == [
        (3, 0, "unexpected end of file in expression")
    ]

    # Precedence and left associativity: ((a - b) - (c * d)) == e.
    (stmt,), diags = parse_body("a - b - c * d == e\n")
    assert not diags
    e = stmt.value
    assert e.op == "==" and isinstance(e.right, nodes.Name) and e.right.id == "e"
    outer = e.left
    assert outer.op == "-"
    assert (outer.left.op, outer.left.left.id, outer.left.right.id) == ("-", "a", "b")
    assert (outer.right.op, outer.right.left.id, outer.right.right.id) == ("*", "c", "d")


def test_walks_keep_the_recursive_pre_order(corpus_repos):
    from oracles import recursive_walk_expressions

    nested = (
        "if a.b(c, d.e) + f:\n"
        "    while g:\n"
        "        h.i = j(k)\n"
        "    l = m\n"
        "else:\n"
        "    return n.o.p\n"
        "q = r\n"
    )
    bodies = [parse_body(nested)[0]]
    for _name, repo in corpus_repos:
        for path in repo.paths():
            module = repo.module(path)
            bodies += [module.body] + [fn.body for fn in extract_functions(module)]
    for stmts in bodies:
        assert list(nodes.walk_expressions(stmts)) == list(recursive_walk_expressions(stmts))
    assert [type(s).__name__ for s in nodes.walk_statements(bodies[0])] == [
        "If", "While", "Assign", "Assign", "Return", "Assign"
    ]


def test_walks_take_a_chain_longer_than_the_recursion_limit():
    (stmt,), diags = parse_body("return a" + ".b" * 5000)
    assert not diags
    exprs = list(nodes.walk_expressions([stmt]))
    assert len(exprs) == 5001
    assert nodes.expr_text(stmt.value) == "a" + ".b" * 5000
    assert nodes.chain_positions(stmt.value) == [(1, 7 + 2 * i) for i in range(5001)]


def test_a_docstring_only_function_ends_on_its_docstrings_line():
    (fn,) = parse('def f(a):\n\n    "doc"\n', "t.mp").functions
    assert (fn.line, fn.end_line, fn.body_start_line) == (1, 3, 4)
    (fn,) = parse('def f(a):\n    "doc"\n', "t.mp").functions
    assert (fn.line, fn.end_line, fn.body_start_line) == (1, 2, 3)


def _nested_parens(n):
    return "return " + "a * (" * n + "a" + ")" * n


def _nested_ifs(n):
    return "".join("    " * i + "if a:\n" for i in range(n)) + "    " * n + "x = 1"


def test_nesting_past_the_limit_drops_the_statement_with_a_diagnostic():
    for nested in (_nested_parens, _nested_ifs):
        stmts, diags = parse_body(nested(MAX_NESTING) + "\ny = 2")
        assert not diags and len(stmts) == 2
        stmts, diags = parse_body(nested(MAX_NESTING + 1) + "\ny = 2")
        assert [d.message for d in diags] == [f"more than {MAX_NESTING} nested blocks and brackets"]
        assert diags[0].line == (1 if nested is _nested_parens else MAX_NESTING + 1)
        # the statement opening level 101 is dropped, and parsing resumes
        assert isinstance(stmts[-1], nodes.Assign) and stmts[-1].target.id == "y"
