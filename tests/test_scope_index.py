"""The scope index builds each file's scope the first time a lookup reaches
it: every scope equals the whole-repository build (`tests/oracles.py`), a
task context scopes the loaded file of its function and never touches a
module nothing imports, and the per-repository scope cache keeps no
repository alive."""

import dataclasses
import gc
import json
import shutil
import weakref

from hypothesis import given, settings, strategies as st

from mpgen.analysis import scope
from mpgen.analysis.complete import tool_complete
from mpgen.analysis.lint import lint_check
from mpgen.analysis.scope import build_scope_index
from mpgen.decode import GenerationConfig
from mpgen.pipeline import derive_tasks, load_tasks, run_model_over_tasks
from mpgen.repo import CaretPosition, Repository

from conftest import CORPUS
from oracles import eager_module_scopes


def _assert_equal_to_the_eager_build(repo):
    index = build_scope_index(repo)
    want = eager_module_scopes(repo)
    for path, scope in want.items():
        got = index.module_scope(path)
        assert got.module is scope.module, path
        assert got.members == scope.members, path
        assert got.imports == scope.imports, path
        assert got.classes.keys() == scope.classes.keys(), path
        assert all(got.classes[name] is cls for name, cls in scope.classes.items()), path
    assert index.module_scope("absent.mp") is None
    assert repo._scope_cache.keys() == want.keys()


def _imported_paths(repo):
    return {
        target[1]
        for scope in eager_module_scopes(repo).values()
        for target in scope.imports.values()
        if target[0] != "unresolved"
    }


def test_lazy_scopes_equal_the_eager_build_on_the_corpus(corpus_repos):
    """Each corpus repository, and each snapshot that gives a root without an
    imported file that file back, so the import resolves only in the
    snapshot. The root's scopes are built first: a snapshot that read them
    would keep the import unresolved."""
    added = 0
    for _name, repo in corpus_repos:
        _assert_equal_to_the_eager_build(Repository(repo.files))
        for path in sorted(_imported_paths(repo)):
            root = Repository({p: t for p, t in repo.files.items() if p != path})
            _assert_equal_to_the_eager_build(root)
            snap = root.with_text(path, repo.text(path))
            _assert_equal_to_the_eager_build(snap)
            added += 1
    assert added > 0


def test_a_snapshot_that_adds_an_imported_file_resolves_the_import():
    root = Repository({
        "app.mp": "import helpers\nfrom shapes import Box\ndef f():\n    return helpers.\n",
    })
    caret = CaretPosition("app.mp", 4, len("    return helpers."))
    assert tool_complete(root, caret) == []
    snap = root.with_text("helpers.mp", "def g():\n    return 1\n").with_text(
        "shapes.mp", "class Box:\n    def size(self):\n        return 1\n"
    )
    assert tool_complete(snap, caret) == ["g"]
    assert build_scope_index(snap).module_scope("app.mp").imports == {
        "helpers": ("module", "helpers.mp"),
        "Box": ("name", "shapes.mp", "Box"),
    }
    assert build_scope_index(snap).resolve_class_name("app.mp", "Box").name == "Box"
    assert build_scope_index(root).module_scope("app.mp").imports == {
        "helpers": ("unresolved",), "Box": ("unresolved",),
    }
    _assert_equal_to_the_eager_build(snap)


_PIECES = (
    "\nimport utils", "\nimport core", "\nimport missing", "\nfrom core import Counter",
    "\nfrom utils import helper", "\nclass K:\n    def m(self):\n        return 1",
    "\nx = 1", "\ndef g(a):\n    return a", "$", "\n  ", ":", "(", '"', "\n",
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lazy_scopes_equal_the_eager_build_on_mutants(corpus_repos, data):
    """A mutated file in a snapshot of a corpus repository, its scopes first
    reached in a drawn order through a drawn lookup."""
    _name, repo = data.draw(st.sampled_from(corpus_repos))
    path = data.draw(st.sampled_from(repo.paths()))
    text = repo.text(path)
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(text)))
        text = text[:i] + data.draw(st.sampled_from(_PIECES)) + text[i:]
    snap = repo.with_text(path, text)
    index = build_scope_index(snap)
    for p in data.draw(st.permutations(snap.paths())):
        lookup = data.draw(st.sampled_from(["scope", "enclosing", "imports"]))
        if lookup == "scope":
            index.module_scope(p)
        elif lookup == "enclosing":
            index.enclosing(p, data.draw(st.integers(1, snap.text(p).count("\n") + 1)))
        else:
            for alias in snap.module(p).imports:
                for name in alias.bound_names:
                    index.resolve_class_name(p, name)
                    index.resolve_module_alias(p, name)
    _assert_equal_to_the_eager_build(snap)


def _train_texts():
    root = CORPUS / "train" / "repo00"
    return [(root / name).read_text(encoding="utf-8") for name in ("core.mp", "service.mp", "utils.mp")]


def test_task_contexts_scope_only_what_their_function_reaches(
    trained_models, tmp_path, monkeypatch
):
    """Tool generation over the 126 benchmark tasks, loaded from a tasks file
    over a copy of the eval corpus with three modules that no file imports
    added to every repository: none of them is lexed, parsed or scoped, no
    blanked file is lexed or parsed, and each loaded file is scoped at most
    once (no benchmark generation resolves a receiver through an import).
    The output is the output without the extra modules."""
    config, tool, _vanilla = trained_models
    tasks = derive_tasks(config)
    extras = {f"extra_{i}.mp": text for i, text in enumerate(_train_texts())}
    for repo_dir in sorted((CORPUS / "eval").iterdir()):
        shutil.copytree(repo_dir, tmp_path / "eval" / repo_dir.name)
        for path, text in extras.items():
            (tmp_path / "eval" / repo_dir.name / path).write_text(text, encoding="utf-8")
    records = [
        {"label": t.label, "repo": t.repo_name, "file": t.file, "line": t.pos.line,
         "description": t.description, "gt": t.gt}
        for t in tasks
    ]
    (tmp_path / "tasks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    padded_config = dataclasses.replace(config, eval_roots=[str(tmp_path / "eval")])
    padded = load_tasks(str(tmp_path / "tasks.jsonl"), padded_config)

    touched, scoped = [], []
    real_lex, real_module, real_scope = Repository.lex, Repository.module, scope._module_scope

    def counted_lex(repo, path):
        touched.append((repo, path))
        return real_lex(repo, path)

    def counted_module(repo, path):
        touched.append((repo, path))
        return real_module(repo, path)

    def counted_scope(repo, path):
        scoped.append((repo, path))
        return real_scope(repo, path)

    gen_cfg = GenerationConfig(max_tokens=config.max_tokens)
    want, _traces = run_model_over_tasks(tool, tasks, gen_cfg)
    monkeypatch.setattr(Repository, "lex", counted_lex)
    monkeypatch.setattr(Repository, "module", counted_module)
    monkeypatch.setattr(scope, "_module_scope", counted_scope)
    got, traces = run_model_over_tasks(tool, padded, gen_cfg)

    assert [p.pred for p in got] == [p.pred for p in want]
    assert sum(t.tool_invocations for t in traces) > 0
    loaded = {id(t.repo) for t in padded}
    scoped = [(id(repo), path) for repo, path in scoped]
    assert sorted(scoped) == sorted({(id(t.repo), t.file) for t in padded})
    assert all(id(repo) in loaded and path not in extras for repo, path in touched)
    assert all(not t.snapshot._lex_cache and not t.snapshot._module_cache for t in padded)


def test_a_linted_repository_is_freed_by_reference_counting():
    """The repository keeps its scopes and the index keeps the repository,
    with no cycle between them, so the repository goes with its last
    reference and not at the next collection."""
    files = {p: t for p, t in zip(("core.mp", "service.mp", "utils.mp"), _train_texts())}
    gc.disable()
    try:
        repo = Repository(files)
        for path in repo.paths():
            lint_check(repo, path)
        assert repo._scope_cache.keys() == files.keys()
        ref = weakref.ref(repo)
        del repo
        assert ref() is None
    finally:
        gc.enable()
