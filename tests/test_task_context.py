"""The task context answers every trigger exactly as the whole-file tool
does, is used only at the caret of a blanked task, and leaves the task
snapshot's caches as they were."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from mpgen import DataError, decode
from mpgen.analysis.complete import TaskContext, tool_complete
from mpgen.analysis.insert import insert
from mpgen.decode import GenerationConfig, generate
from mpgen.lm.tokenizer import detokenize
from mpgen.lm.vocab import BOS_ID, CONTROL_IDS, RESERVED_TOKENS, Vocab
from mpgen.minilang import tokens as tk
from mpgen.minilang.parser import extract_functions
from mpgen.pipeline import _blank_function, derive_tasks, load_tasks
from mpgen.repo import CaretPosition, Repository

from conftest import CORPUS, make_config
from oracles import whole_file_lint_in_span, whole_file_pair_is_valid

UTILS = (
    "class Box:\n"
    "    def boot(self):\n"
    '        "Prepare the box"\n'
    "        self.size = 1\n"
    "def helper(a):\n"
    '    "Help"\n'
    "    return a\n"
)
CORE = (
    "import utils\n"
    "from utils import Box, helper\n"
    "LIMIT = 3\n"
    "class Counter:\n"
    "    def boot(self):\n"
    '        "Prepare the counter"\n'
    "        self._value = 0\n"
    "    def bump(self, amount):\n"
    '        "Increase the counter"\n'
    "        self.last = amount\n"
    "        return self._value\n"
    "    def reset(self):\n"
    '        "Reset the counter"\n'
    "        self._value = 0\n"
    "def total(items, scale):\n"
    '    "Sum the items"\n'
    "    x = Counter()\n"
    "    return x\n"
    "def tail(b):\n"
    '    "Last"\n'
    "    return b\n"
)
FULL = Repository({"utils.mp": UTILS, "core.mp": CORE})


def _blanked(name):
    func = next(f for f in extract_functions(FULL.module("core.mp")) if f.name == name)
    task = _blank_function(
        FULL, "core.mp", func, repo_name="", label=name, description=func.description, gt=""
    )
    return task.snapshot, task.pos


METHOD_TASK = _blanked("bump")
FUNCTION_TASK = _blanked("total")

WORDS = (
    "self", "_", "value", "last", "size", "x", "b", "a", "amount", "items", "Box",
    "Counter", "utils", "helper", "LIMIT", "return", "if", "else", "while", "def",
    "=", "+", "==", ".", "(", ")", ",", ":", "1", '"s"', '"ab',
    "<NL>", "<INDENT>", "<DEDENT>",
)
VOCAB = Vocab(tokens=RESERVED_TOKENS + tuple(sorted(set(WORDS))))
TAILS = ([], ["."], ["self", "."], ["x", "."], ["b", "."], ["Box", "."], ["utils", "."],
         ["self", ".", "size", "."])


def _ids(words):
    return [BOS_ID] + [VOCAB.id(w) for w in words] + [VOCAB.id("<COMP>")]


@pytest.mark.parametrize("task", [METHOD_TASK, FUNCTION_TASK], ids=["method", "function"])
@settings(max_examples=300, deadline=None)
@given(
    body=st.lists(st.sampled_from(WORDS + ("<UNK>", "<COMP>")), max_size=30),
    tail=st.sampled_from(TAILS),
)
@example(body=["<INDENT>", "x", "=", "Box", "(", ")", "<NL>"], tail=["x", "."])
@example(body=["x", "=", "1", "<NL>", "y", "=", '"ab'], tail=[])
@example(body=["self", ".", "x", "=", "<NL>"], tail=["self", "."])
@example(body=["self", ".", "x", "=", "1", "<NL>"], tail=["self", "."])
def test_task_context_matches_whole_file_tool(task, body, tail):
    repo, pos = task
    ids = _ids(body + tail)
    context = TaskContext.at(repo, pos)
    assert context is not None
    text = detokenize([t for t in ids if t not in CONTROL_IDS], VOCAB)
    assert context.complete(text) == tool_complete(*insert(repo, pos, text))


def test_context_adds_the_partial_bodys_attributes():
    repo, pos = METHOD_TASK
    context = TaskContext.at(repo, pos)
    assert context.complete("self.fresh = 1\nreturn self.") == [
        "_value", "boot", "bump", "fresh", "reset"
    ]


def test_analysis_completes_every_ground_truth_identifier_as_the_whole_file_tool(demo_tasks):
    """At each identifier of each benchmark ground truth, the analysis of the
    whole body answers as `tool_complete` does on a fresh repository with
    no caches and that body spliced in."""
    checked = 0
    for task in demo_tasks:
        analysis = TaskContext.at(task.snapshot, task.pos).analyse(task.gt)
        fresh = Repository(dict(task.snapshot.files))
        spliced, _caret = insert(fresh, task.pos, task.gt)
        for t in analysis.scope.func.body_tokens:
            if t.kind == tk.IDENTIFIER:
                caret = CaretPosition(task.pos.file, t.line, t.column)
                assert analysis.complete_at(t.line, t.column) == tool_complete(spliced, caret)
                checked += 1
    assert len(demo_tasks) == 126 and checked == 492


def _tool_calls(monkeypatch):
    calls = []
    real = decode.tool_complete

    def counting(snapshot, caret):
        calls.append(caret)
        return real(snapshot, caret)

    monkeypatch.setattr(decode, "tool_complete", counting)
    return calls


@pytest.fixture(scope="module")
def demo_tasks(demo_config):
    return derive_tasks(demo_config)


def _unblanked_caret(tasks, case):
    """(repo, pos, description) with no blanked-task shape, as `mpgen
    generate` may get: at the live body of a getter, one line below a blank
    line under its docstring, or at column 0 of its blanked caret line, with
    or without that line's spaces."""
    task = next(
        t for t in tasks
        if t.repo_name == "repo14" and "core.mp" in t.label and t.gt.startswith("return self._")
    )
    pos = task.pos
    if case == "live-body":
        repo = Repository.from_dir(str(CORPUS / "eval" / "repo14"))
    elif case == "blank-line-above":
        lines = task.snapshot.text(task.file).split("\n")
        lines.insert(pos.line - 1, "")
        repo = task.snapshot.with_text(task.file, "\n".join(lines))
        pos = CaretPosition(pos.file, pos.line + 1, pos.column)
    elif case == "column-0":
        repo, pos = task.snapshot, CaretPosition(pos.file, pos.line, 0)
    else:  # an empty caret line: its column is not the docstring's
        lines = task.snapshot.text(task.file).split("\n")
        lines[pos.line - 1] = ""
        repo = task.snapshot.with_text(task.file, "\n".join(lines))
        pos = CaretPosition(pos.file, pos.line, 0)
    return repo, pos, task.description


@pytest.mark.parametrize(
    "case", ["live-body", "blank-line-above", "column-0", "empty-caret-line"]
)
def test_unblanked_caret_takes_the_whole_file_path(trained_models, demo_tasks, monkeypatch, case):
    _config, tool, _vanilla = trained_models
    repo, pos, desc = _unblanked_caret(demo_tasks, case)
    with pytest.raises(ValueError, match="is not a blanked task's caret"):
        TaskContext.at(repo, pos)
    calls = _tool_calls(monkeypatch)
    _text, trace = generate(tool, repo, desc, pos, GenerationConfig())
    assert len(calls) == trace.tool_invocations > 0


def test_blanked_caret_never_calls_the_whole_file_tool(trained_models, demo_tasks, monkeypatch):
    _config, tool, _vanilla = trained_models
    calls = _tool_calls(monkeypatch)
    invocations = 0
    for task in demo_tasks[:20]:
        _text, trace = generate(
            tool, task.snapshot, task.description, task.pos, task=task.context()
        )
        invocations += trace.tool_invocations
    assert invocations > 0
    assert calls == []


def test_a_handed_in_context_generates_what_the_whole_file_tool_does(trained_models, demo_tasks):
    """`generate(..., task=context)` completes through the caller's context
    as `generate` with no context does through the whole-file tool, with the
    cache on and off, and a context another generation has used answers the
    same."""
    _config, tool, _vanilla = trained_models
    for cfg in (GenerationConfig(), GenerationConfig(cache_enabled=False)):
        for task in demo_tasks[:20]:
            context = task.context()
            whole = generate(tool, task.snapshot, task.description, task.pos, cfg)
            for _ in range(2):
                handed = generate(
                    tool, task.snapshot, task.description, task.pos, cfg, task=context
                )
                assert (handed[0], handed[1].to_dict()) == (whole[0], whole[1].to_dict())


def test_generate_refuses_a_context_at_another_caret(trained_models, demo_tasks):
    _config, tool, _vanilla = trained_models
    first, second = demo_tasks[:2]
    context = TaskContext.at(first.snapshot, first.pos)
    with pytest.raises(ValueError, match="cannot complete at"):
        generate(tool, second.snapshot, second.description, second.pos, task=context)


def test_generate_leaves_the_task_snapshot_caches_alone(trained_models, demo_tasks):
    _config, tool, _vanilla = trained_models
    for task in demo_tasks[:20]:
        snap = task.snapshot
        caches = (snap._lex_cache, snap._module_cache, snap._scope_cache)
        before = [dict(cache) for cache in caches]
        generate(tool, snap, task.description, task.pos)
        for cache, old in zip(caches, before):
            assert cache.keys() == old.keys()
            assert all(cache[k] is old[k] for k in old)


# A module-level def line, and a class line, themselves indented: the parser
# recovers with "unexpected indentation" records that a task's analysis,
# lexing the head line by line, would not see.
INDENTED_HEADS = {
    "f.mp": '  def f(a):\n    "doc"\n    return a\n',
    "k.mp": ' class K:\n    def g(self):\n        "doc"\n        return 1\n'
    '    def h(self):\n        "doc"\n        return self\n',
    "ok.mp": 'def f(a):\n    "doc"\n    return a\n',
}


def test_a_function_whose_outermost_head_line_is_indented_is_no_task(tmp_path):
    """derive_tasks skips it, load_tasks refuses a record naming it and
    TaskContext.at refuses its caret. The whole file finds `return a`
    invalid in `f.mp`, where the task analysis would find it valid."""
    (tmp_path / "eval" / "r").mkdir(parents=True)
    for name, text in INDENTED_HEADS.items():
        (tmp_path / "eval" / "r" / name).write_text(text)
    config = make_config(tmp_path, eval_roots=[str(tmp_path / "eval")])
    assert [t.label for t in derive_tasks(config)] == ["r/ok.mp:f"]

    repo = Repository(INDENTED_HEADS)
    tasks_file = tmp_path / "tasks.jsonl"
    for path in ("f.mp", "k.mp"):
        for func in extract_functions(repo.module(path)):
            task = _blank_function(repo, path, func, repo_name="r", label="", description="", gt="")
            with pytest.raises(ValueError, match="is not a blanked task's caret"):
                TaskContext.at(task.snapshot, task.pos)
            record = {"label": "", "repo": "r", "file": path, "line": task.pos.line,
                      "description": "", "gt": ""}
            tasks_file.write_text(json.dumps(record) + "\n")
            with pytest.raises(DataError, match="names no task's caret line"):
                load_tasks(str(tasks_file), config)
            if path == "f.mp":
                assert not whole_file_pair_is_valid(task.pair("return a"))
                assert not task.context().analyse("return a").lint()


# A module-level def line that draws a parse record although it is not
# indented: a token before its `def`, or a class line above it left with no
# block. The parser reports it and then parses the def, a record that a
# task's analysis, lexing the def line but parsing none of the head, would
# not see.
RECORD_ON_DEF_LINE = {
    "d.mp": ')def f(a):\n    "Doc"\n    return a\n',
    "c.mp": 'class K:\ndef f(a):\n    "Doc"\n    return a\n',
    "ok.mp": 'def f(a):\n    "doc"\n    return a\n',
}


def test_a_function_whose_def_line_draws_a_parse_record_is_no_task(tmp_path):
    """derive_tasks skips it, load_tasks refuses a record naming it and
    TaskContext.at refuses its caret. The whole file finds `return a`
    invalid, since its lint reports the def line, inside the function's
    span, where the task analysis would find it valid."""
    (tmp_path / "eval" / "r").mkdir(parents=True)
    for name, text in RECORD_ON_DEF_LINE.items():
        (tmp_path / "eval" / "r" / name).write_text(text)
    config = make_config(tmp_path, eval_roots=[str(tmp_path / "eval")])
    assert [t.label for t in derive_tasks(config)] == ["r/ok.mp:f"]

    repo = Repository(RECORD_ON_DEF_LINE)
    tasks_file = tmp_path / "tasks.jsonl"
    for path in ("d.mp", "c.mp"):
        (func,) = extract_functions(repo.module(path))
        task = _blank_function(repo, path, func, repo_name="r", label="", description="", gt="")
        with pytest.raises(ValueError, match="is not a blanked task's caret"):
            TaskContext.at(task.snapshot, task.pos)
        record = {"label": "", "repo": "r", "file": path, "line": task.pos.line,
                  "description": "", "gt": ""}
        tasks_file.write_text(json.dumps(record) + "\n")
        with pytest.raises(DataError, match="names no task's caret line"):
            load_tasks(str(tasks_file), config)
        (error,) = whole_file_lint_in_span(task.pair("return a"))
        assert (error.kind, error.line) == ("syntax-error", func.line)
        assert not task.context().analyse("return a").lint()
