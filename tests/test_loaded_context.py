"""A loaded task's context (`Task.context`, built by `TaskContext.of_function`
from the loaded file's analysis) answers, lints and scores exactly as the
context `TaskContext.at` builds from the blanked file, the reference here:
at every benchmark tool invocation, on every benchmark verdict, and on the
tasks of mutated files."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mpgen.analysis.complete import TaskContext
from mpgen.analysis.scope import receiver_members
from mpgen.decode import GenerationConfig, generate
from mpgen.metrics import ground_truth
from mpgen.minilang.lexer import LineLexer
from mpgen.minilang.render import render_tokens
from mpgen.pipeline import _blank_function, _tasks_of, derive_tasks, run_model_over_tasks
from mpgen.repo import Repository


def _key(e):
    return (e.line, e.column, e.kind, e.message)


@pytest.fixture(scope="module")
def tasks(demo_config):
    return derive_tasks(demo_config)


@pytest.mark.parametrize(
    "cache,invocations", [(True, 732), (False, 1620)], ids=["cache", "no-cache"]
)
def test_every_benchmark_invocation_is_answered_as_from_the_blanked_file(
    trained_models, tasks, monkeypatch, cache, invocations
):
    config, tool, _vanilla = trained_models
    real_complete = TaskContext.complete
    calls = []

    def recorded(context, body):
        got = real_complete(context, body)
        calls.append((id(context.index.repo), context.pos, body, got))
        return got

    monkeypatch.setattr(TaskContext, "complete", recorded)
    gen_cfg = GenerationConfig(max_tokens=config.max_tokens, cache_enabled=cache)
    _pairs, traces = run_model_over_tasks(tool, tasks, gen_cfg)
    monkeypatch.undo()

    references = {(id(t.repo), t.pos): TaskContext.at(t.snapshot, t.pos) for t in tasks}
    for repo, pos, body, got in calls:
        assert references[repo, pos].complete(body) == got, (pos, body)
    assert len(calls) == sum(t.tool_invocations for t in traces) == invocations


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
def test_a_vanilla_run_makes_no_task_context(trained_models, tasks, monkeypatch, cache):
    """The vanilla model never asks the tool, so `run_model_over_tasks`
    makes its generations no context, and each decodes as it would through
    one: same prediction, token ids, tags and counters."""
    config, _tool, vanilla = trained_models
    gen_cfg = GenerationConfig(
        max_tokens=config.max_tokens, cache_enabled=cache, tool_enabled=False
    )
    real_of = TaskContext.of_function.__func__
    made = []

    def counted_of(cls, repo, func, pos):
        made.append(pos)
        return real_of(cls, repo, func, pos)

    monkeypatch.setattr(TaskContext, "of_function", classmethod(counted_of))
    pairs, traces = run_model_over_tasks(vanilla, tasks, gen_cfg)
    monkeypatch.undo()
    assert made == []
    for task, pair, trace in zip(tasks, pairs, traces, strict=True):
        want = generate(
            vanilla, task.snapshot, task.description, task.pos, gen_cfg, task=task.context()
        )
        assert (pair.pred, trace) == want, task.label
    assert len(pairs) == 126


def test_every_benchmark_verdict_is_the_blanked_files(trained_models, tasks):
    config, tool, vanilla = trained_models
    runs = [
        run_model_over_tasks(
            model, tasks, GenerationConfig(max_tokens=config.max_tokens, tool_enabled=enabled)
        )[0]
        for model, enabled in ((tool, True), (vanilla, False))
    ]
    verdicts = 0
    for task, pairs in zip(tasks, zip(*runs), strict=True):
        loaded, reference = task.context(), TaskContext.at(task.snapshot, task.pos)
        rows = ground_truth([(loaded, pairs)], tool.vocab)
        assert rows == ground_truth([(reference, pairs)], tool.vocab)
        for text in [task.gt] + [pair.pred for pair in pairs]:
            got = sorted(loaded.analyse(text).lint(), key=_key)
            assert got == sorted(reference.analyse(text).lint(), key=_key), (task.label, text)
        verdicts += len(pairs)
    assert (len(tasks), verdicts) == (126, 252)


def _pieces(text, stem):
    """Lines to insert into a file: methods that alone assign an attribute,
    a redefined class, the file importing itself, stray indentation and
    other diagnostics."""
    names = [l.split()[1].rstrip(":") for l in text.split("\n") if l.startswith("class ")]
    classes = st.sampled_from(names or ["K"])
    indents = st.sampled_from((0, 1, 2, 3, 4, 6, 8, 12))
    return st.tuples(classes, indents).flatmap(
        lambda drawn: st.sampled_from(_lines(stem, drawn[0], " " * drawn[1]))
    )


def _lines(stem, cls, ind):
    return (
        f"{ind}self.solo_attr = 1",
        f"{ind}def solo(self):\n{ind}    self.solo_attr = 1",
        f'{ind}def solo(self):\n{ind}    "Set solo"\n{ind}    self.solo_attr = 1',
        f"{ind}class {cls}:\n{ind}    def again(self):\n{ind}        self.again_attr = 2",
        f"import {stem}", f"from {stem} import {cls}", f"{ind}import {stem}",
        f"{ind}x = {cls}()", f"{ind}return self.", f"{ind}def {cls}(self):",
        f"{ind}else:", f"{ind}if x:", f"{ind}y = 1", ind, f"{ind}$", f"{ind}(", f'{ind}"',
    )


def _start(context):
    """What a context's start checkpoint holds: the lexer's whole state after
    the head, and the function's header."""
    start = context.start
    lexer = tuple(getattr(start.lexer, slot) for slot in LineLexer.__slots__)
    return start.closed, start.lines, lexer, start.body


def _assert_same_index(loaded, reference, repo):
    """The module names, imports and every class's members, the own class's
    as its receiver sees them, agree."""
    for path in repo.paths():
        got, want = loaded.index.module_scope(path), reference.index.module_scope(path)
        assert (got.members, got.imports) == (want.members, want.imports), path
        assert got.classes.keys() == want.classes.keys(), path
        for name in want.classes:
            assert receiver_members(
                got.classes[name], loaded.own_class, loaded.own_members
            ) == receiver_members(
                want.classes[name], reference.own_class, reference.own_members
            ), (path, name)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_tasks_of_mutated_files_get_the_blanked_files_context(corpus_repos, data):
    """Every task of a file with drawn lines inserted, and drawn characters
    in its lines: the two contexts hold the same start checkpoint, own class
    and index, and answer and lint the ground truth, and some bodies
    extending it, alike."""
    _name, base = data.draw(st.sampled_from(corpus_repos))
    path = data.draw(st.sampled_from(base.paths()))
    lines = base.text(path).split("\n")
    pieces = _pieces(base.text(path), path[: -len(".mp")])
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(lines) - 1))
        if data.draw(st.booleans()):
            lines.insert(i, data.draw(pieces))
        else:
            j = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + data.draw(st.sampled_from("$ (:\".\t")) + lines[i][j:]
    repo = Repository({**base.files, path: "\n".join(lines)})
    for func in _tasks_of(repo, path).values():
        blanked = _blank_function(
            repo, path, func, repo_name="", label=func.name, description=func.description, gt=""
        )
        snap, pos = blanked.snapshot, blanked.pos
        loaded = TaskContext.of_function(repo, func, pos)
        reference = TaskContext.at(snap, pos)
        assert reference is not None, (path, func.name)
        assert (loaded.pos, loaded.own_members) == (reference.pos, reference.own_members)
        assert _start(loaded) == _start(reference)
        assert (loaded.own_class is None) == (reference.own_class is None)
        if reference.own_class is not None:
            assert loaded.own_class.line == reference.own_class.line
        _assert_same_index(loaded, reference, repo)

        gt = render_tokens(func.body_tokens)
        got, want = loaded.analyse(gt), reference.analyse(gt)
        assert sorted(got.lint(), key=_key) == sorted(want.lint(), key=_key)
        for t in want.function.body_tokens:
            assert got.complete_at(t.line, t.column) == want.complete_at(t.line, t.column)
        for tail in ("self.", "x.", "y = ", "self.solo_attr = 1\nreturn self."):
            body = gt + "\n" + tail
            assert loaded.complete(body) == reference.complete(body), (func.name, tail)
