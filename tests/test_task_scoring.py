"""Scoring reads each task through one task context, and gives exactly what
splicing the text into the blanked file and analysing the whole file gives
(`tests/oracles.py`), on the benchmark and on mutated predictions."""

import dataclasses
import gc
import json
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mpgen import metrics
from mpgen.analysis import complete, lint, scope
from mpgen.analysis.complete import TaskContext, tool_complete
from mpgen.analysis.insert import insert
from mpgen.decode import GenerationConfig
from mpgen.lm import ngram
from mpgen.lm.tokenizer import tokenize
from mpgen.lm.vocab import RESERVED_TOKENS, Vocab
from mpgen.metrics import (
    EvalPair,
    bleu_counts,
    corpus_bleu,
    evaluate_pairs,
    extract_expressions,
    ground_truth,
    identify_dependencies,
    pair_is_valid,
    reference_ngrams,
)
from mpgen.minilang.lexer import LineLexer
from mpgen.minilang import parser, tokens as tk
from mpgen.minilang.parser import extract_functions, parse_body
from mpgen.minilang.render import render_tokens
from mpgen import repo as repo_module
from mpgen.pipeline import (
    _blank_function, _tasks_of, collect_repos, derive_tasks, load_tasks, run_evaluate,
    run_model_over_tasks,
)
from mpgen.repo import CaretPosition, Repository

from conftest import CORPUS, assert_completions_match_reference, make_config
from oracles import (
    counter_corpus_bleu, generate_then_score_report, per_call_lint, whole_file_dependencies,
    whole_file_expressions, whole_file_lint_in_span, whole_file_pair_is_valid,
)


def _key(e):
    return (e.line, e.column, e.kind, e.message)


def _records(task, text):
    return sorted(task.analyse(text).lint(), key=_key)


@pytest.fixture(scope="module")
def task_pairs(trained_models):
    """(tool pair, vanilla pair) of every benchmark task."""
    config, tool, vanilla = trained_models
    tasks = derive_tasks(config)
    runs = [
        run_model_over_tasks(
            model, tasks, GenerationConfig(max_tokens=config.max_tokens, tool_enabled=enabled)
        )[0]
        for model, enabled in ((tool, True), (vanilla, False))
    ]
    return list(zip(*runs, strict=True))


def test_task_scoring_equals_the_whole_file_on_the_benchmark(task_pairs, trained_models):
    vocab = trained_models[1].vocab
    verdicts, dep_counts = [], []
    for pairs in task_pairs:
        gt, repo, pos = pairs[0].gt, pairs[0].repo, pairs[0].pos
        task = TaskContext.at(repo, pos)
        (rows,) = ground_truth([(task, pairs)], vocab)
        deps = whole_file_dependencies(gt, repo, pos)
        assert identify_dependencies(task.analyse(gt)) == deps
        dep_counts.append(len(deps))
        for pair, (row, _bleu) in zip(pairs, rows, strict=True):
            expressions = whole_file_expressions(pair)
            assert _records(task, pair.pred) == whole_file_lint_in_span(pair), pair.label
            assert extract_expressions(task.analyse(pair.pred).scope.func.body) == expressions
            assert row["valid"] == whole_file_pair_is_valid(pair), pair.label
            assert (row["dep_total"], row["dep_covered"]) == (
                len(deps), len(expressions & deps)
            ), pair.label
            verdicts.append(row["valid"])
    assert len(dep_counts) == 126 and len(verdicts) == 252
    # both sides of each comparison occur
    assert 0 < sum(verdicts) < 252
    assert 0 < dep_counts.count(0) < 126


# Pieces that move text across lines and blocks, where whole-file recovery
# could move a record into or out of the function's span.
_PIECES = (
    "\n  x = 1", "\n", "\n    ", "\n        y = self._a", "\n   return 0", "  ",
    '"open', '"', "$", "<COMP>", "\t", ".", "self.", " = ", "(", ")", ":",
    "\ndef g(a):\n    return a", "\nclass K:\n    def m(self):\n        return 1",
    "\nif x:", "\nif x:\n    return self.", "\nelse:", "\nwhile self._a:\n  z = 1\n q = 2",
    "\nreturn ghost.b", "\nself.fresh = 1\nreturn self.fresh",
)


@pytest.fixture(scope="module")
def sampled_tasks(task_pairs):
    """Every seventh task: methods and module-level functions both, and a
    context for each."""
    sample = task_pairs[::7]
    return [(pairs, TaskContext.at(pairs[0].repo, pairs[0].pos)) for pairs in sample]


@st.composite
def _mutants(draw, texts, edits):
    """One of texts with a drawn number of pieces inserted or spans cut."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(edits)):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from(_PIECES)) + text[i:]
        else:
            text = text[:i] + text[i + draw(st.integers(1, 6)):]
    return text


@settings(
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_task_scoring_equals_the_whole_file_on_mutants(sampled_tasks, data):
    pairs, task = data.draw(st.sampled_from(sampled_tasks))
    text = data.draw(_mutants([pairs[0].gt] + [p.pred for p in pairs], st.integers(1, 4)))
    pair = EvalPair(pairs[0].gt, text, pairs[0].repo, pairs[0].pos)
    assert _records(task, text) == whole_file_lint_in_span(pair)
    analysis = task.analyse(text)
    assert pair_is_valid(analysis) == whole_file_pair_is_valid(pair)
    assert extract_expressions(analysis.scope.func.body) == whole_file_expressions(pair)
    assert identify_dependencies(analysis) == (
        whole_file_dependencies(text, pair.repo, pair.pos)
    )


@pytest.fixture(scope="module")
def eval_files():
    """(repository, path) of every file of the bundled eval corpus."""
    return [
        (repo, path) for _name, repo in collect_repos([str(CORPUS / "eval")])
        for path in repo.paths()
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_task_analysis_equals_the_whole_file_on_mutated_files(eval_files, data):
    """An eval file with drawn pieces inserted and spans cut, some of them
    at the start of a line, and every task derived from it: the loaded task's context analyses the ground truth and
    a mutation of it as splicing each into the blanked file and analysing
    the whole file does. Its lint records, verdict, access expressions and
    dependencies agree, and so do its suggestions at every identifier of
    the body with the whole-file tool's (McKeeman 1998, differential
    testing)."""
    base, path = data.draw(st.sampled_from(eval_files))
    lines = data.draw(_mutants([base.text(path)], st.integers(1, 6))).split("\n")
    for _ in range(data.draw(st.integers(0, 2))):  # where a head line's records start
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = data.draw(st.sampled_from(_PIECES)) + lines[i]
    repo = Repository({**base.files, path: "\n".join(lines)})
    for func in _tasks_of(repo, path).values():
        gt = render_tokens(func.body_tokens)
        task = _blank_function(
            repo, path, func, repo_name="", label=func.name, description=func.description, gt=gt
        )
        context = task.context()
        for body in (gt, data.draw(_mutants([gt], st.integers(1, 3)))):
            pair, analysis = task.pair(body), context.analyse(body)
            assert sorted(analysis.lint(), key=_key) == whole_file_lint_in_span(pair), (func.name, body)
            assert pair_is_valid(analysis) == whole_file_pair_is_valid(pair)
            assert extract_expressions(analysis.scope.func.body) == whole_file_expressions(pair)
            assert identify_dependencies(analysis) == (
                whole_file_dependencies(body, task.snapshot, task.pos)
            )
            spliced, _end = insert(task.snapshot, task.pos, body)
            for t in analysis.scope.func.body_tokens:
                if t.kind == tk.IDENTIFIER:
                    caret = CaretPosition(path, t.line, t.column)
                    assert analysis.complete_at(t.line, t.column) == tool_complete(spliced, caret)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_completions_equal_the_per_call_reference_on_mutated_files(eval_files, data):
    """An eval file with drawn pieces inserted and spans cut: the completion
    tool, a function scope per function and trigger insertion suggest
    and mark what one whole-file query per caret does."""
    base, path = data.draw(st.sampled_from(eval_files))
    text = data.draw(_mutants([base.text(path)], st.integers(1, 6)))
    assert_completions_match_reference(Repository({**base.files, path: text}), path)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_lint_equals_the_per_call_reference_on_mutated_files(eval_files, data):
    """An eval file with drawn pieces inserted and spans cut: `lint_check`
    gives what a recursive walk with a fresh receiver search at each access
    does."""
    base, path = data.draw(st.sampled_from(eval_files))
    text = data.draw(_mutants([base.text(path)], st.integers(1, 6)))
    repo = Repository({**base.files, path: text})
    assert lint.lint_check(repo, path) == per_call_lint(repo, path)


@pytest.mark.parametrize(
    "pred", ["return self._n", "return self._m", "self._m = 1\nreturn self._m"]
)
def test_records_outside_the_function_do_not_count(pred):
    """A syntax error on the class header, above the def line, is outside
    the span in both computations."""
    src = (
        "class C: $\n"
        "    def boot(self):\n"
        '        "Prepare"\n'
        "        self._n = 0\n"
        "    def get(self):\n"
        '        "Read"\n'
        "        \n"
    )
    repo = Repository({"c.mp": src})
    pair = EvalPair("return self._n", pred, repo, CaretPosition("c.mp", 7, 8))
    task = TaskContext.at(pair.repo, pair.pos)
    assert _records(task, pred) == whole_file_lint_in_span(pair)
    assert pair_is_valid(task.analyse(pair.pred)) == whole_file_pair_is_valid(pair) == (pred != "return self._m")


def test_dep_covered_reads_the_def_body_parse_of_stray_indentation():
    """A prediction's access expressions come from its function as the task
    analysis parses it, which drops an unexpectedly indented block as the
    whole file's parse does; so does the bare text's `parse_body`."""
    src = 'import y\nimport w\n\ndef f():\n    "Touch both"\n    \n'
    repo = Repository({"f.mp": src, "y.mp": "z = 1\n", "w.mp": "v = 1\n"})
    pos = CaretPosition("f.mp", 6, 4)
    pred = "x = 1\n    y.z = 2\nw.v = 3\n"
    pair = EvalPair("y.z = 2\nw.v = 3\n", pred, repo, pos)
    deps = whole_file_dependencies(pair.gt, repo, pos)
    assert deps == {"y.z", "w.v"}
    (row,) = evaluate_pairs([pair], Vocab(RESERVED_TOKENS)).per_pair
    assert row["dep_covered"] == len(whole_file_expressions(pair) & deps) == 1
    assert len(extract_expressions(parse_body(pred)[0]) & deps) == 1


def test_scoring_refuses_a_caret_that_is_not_a_blanked_tasks():
    src = 'def f(a):\n    "doc"\n    return a\n'
    repo = Repository({"f.mp": src})
    live = CaretPosition("f.mp", 3, 4)
    with pytest.raises(ValueError, match="not a blanked task's caret"):
        TaskContext.at(repo, live)
    with pytest.raises(ValueError, match="not a blanked task's caret"):
        evaluate_pairs([EvalPair("return a", "return a", repo, live)], Vocab(RESERVED_TOKENS))


def test_scoring_refuses_a_context_at_another_caret(task_pairs, trained_models):
    vocab = trained_models[1].vocab
    (a, _), (b, _) = task_pairs[:2]
    with pytest.raises(ValueError, match="cannot score the task"):
        ground_truth([(TaskContext.at(b.repo, b.pos), [a])], vocab)


def test_ground_truth_takes_the_pairs_of_one_task(task_pairs, trained_models):
    _config, tool, _vanilla = trained_models
    (a, _), (b, _) = task_pairs[:2]
    with pytest.raises(ValueError, match="more than one task"):
        ground_truth([(TaskContext.at(a.repo, a.pos), [a, b])], tool.vocab)


def test_scoring_memo_is_exact_on_the_benchmark(task_pairs, trained_models):
    """Every benchmark task's rows and BLEU counts are the same from one
    `ground_truth` call over all 126 tasks, where each distinct text is
    lexed once for the run, from one call per task, and from one call per
    pair in a new context, where no text's analysis is shared."""
    vocab = trained_models[1].vocab
    judged = ground_truth(
        ((TaskContext.at(pairs[0].repo, pairs[0].pos), pairs) for pairs in task_pairs), vocab
    )
    assert len(judged) == 126
    for pairs, rows in zip(task_pairs, judged, strict=True):
        task = TaskContext.at(pairs[0].repo, pairs[0].pos)
        assert ground_truth([(task, pairs)], vocab) == [rows]
        assert [
            row for pair in pairs
            for (row,) in ground_truth([(TaskContext.at(pair.repo, pair.pos), [pair])], vocab)
        ] == rows


@st.composite
def _drawn_pairs(draw, task_pairs):
    """Drawn predictions for one task's ground truth: repeats, the ground
    truth, padded texts, empty texts and mutants among them."""
    texts = [task_pairs[0].gt] + [p.pred for p in task_pairs]
    # a text padded with spaces or newlines renders as the text does, but a
    # leading space indents it past the body
    padded = st.tuples(
        st.sampled_from(["", " ", "\n"]), st.sampled_from(texts), st.sampled_from(["", " ", "\n"])
    ).map("".join)
    preds = draw(st.lists(
        st.sampled_from(texts) | st.just("") | padded | _mutants(texts, st.integers(1, 3)),
        min_size=1, max_size=4,
    ))
    preds += draw(st.lists(st.sampled_from(preds), max_size=2))
    first = task_pairs[0]
    return [
        EvalPair(first.gt, pred, first.repo, first.pos, label=f"drawn {i}")
        for i, pred in enumerate(preds)
    ]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_shared_scoring_memo_equals_a_fresh_one(sampled_tasks, trained_models, data):
    """One `ground_truth` call over two or three drawn tasks, whose texts
    share the call's memo, scores each task's drawn pairs as a call of its
    own does, and as scoring each pair on its own does; each row keeps its
    own pair's label."""
    vocab = trained_models[1].vocab
    chosen = data.draw(st.lists(st.sampled_from(sampled_tasks), min_size=2, max_size=3))
    items = [(task, data.draw(_drawn_pairs(pairs))) for pairs, task in chosen]
    judged = ground_truth(items, vocab)
    assert judged == [ground_truth([item], vocab)[0] for item in items]
    for (task, drawn), rows in zip(items, judged, strict=True):
        assert [ground_truth([(task, [pair])], vocab)[0][0] for pair in drawn] == rows
        assert [row["label"] for row, _bleu in rows] == [pair.label for pair in drawn]
        # and as each text's own analysis and counts give it
        deps = identify_dependencies(task.analyse(drawn[0].gt))
        ref = tokenize(drawn[0].gt, vocab)
        for pair, (row, bleu) in zip(drawn, rows, strict=True):
            analysis = task.analyse(pair.pred)
            assert row["valid"] == pair_is_valid(analysis)
            assert row["dep_covered"] == len(extract_expressions(analysis.scope.func.body) & deps)
            assert bleu == bleu_counts(tokenize(pair.pred, vocab), ref, reference_ngrams(ref))


def _count_calls(monkeypatch, *functions):
    """Call counts of the functions, at every name an mpgen module binds them to."""
    counts = {fn.__name__: 0 for fn in functions}
    for fn in functions:

        def counting(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "mpgen" or name.startswith("mpgen."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counting)
    return counts


def test_evaluate_builds_one_context_per_task(trained_models, tmp_path, monkeypatch):
    """One new task context per task for the tool model's generation and one
    for scoring it, none for the vanilla model's, all built from the
    loaded file's analysis: no blanked file is lexed or parsed, each loaded
    eval file is scoped at most once, each head is lexed once, when its
    context is made, and no context parses anything; no whole-file
    completion or lint."""
    config, _tool, _vanilla = trained_models
    counts = _count_calls(
        monkeypatch, scope.build_scope_index, complete.tool_complete, lint.lint_check
    )
    loaded = sorted(
        text for _name, repo in collect_repos(config.eval_roots) for text in repo.files.values()
    )
    real_of, real_analyse = TaskContext.of_function.__func__, TaskContext.analyse
    real_line, real_module = LineLexer.line, parser._Parser.parse_module
    real_lex, real_file_parse = repo_module._lexer.lex, repo_module._parser.parse
    real_scope = scope._module_scope
    # id(context) -> (context, its counts, what it serves); the open ones'
    # (caret, counts, phase)
    contexts, open_contexts = {}, []
    file_lexes, file_parses, scoped = [], [], []
    serving = ["scoring"]  # what a context made now serves

    def counted_run(model, tasks, gen_cfg):
        serving[0] = "tool generation" if gen_cfg.tool_enabled else "vanilla generation"
        try:
            return run_model_over_tasks(model, tasks, gen_cfg)
        finally:
            serving[0] = "scoring"

    def counted_of(cls, repo, func, pos):
        counted = Counter()
        open_contexts.append((pos, counted, "make"))
        try:
            context = real_of(cls, repo, func, pos)
        finally:
            open_contexts.pop()
        contexts[id(context)] = (context, counted, serving[0])
        return context

    def refused_at(cls, repo, pos):
        raise AssertionError("a loaded task's context analyses its blanked file")

    def counted_analyse(context, body):
        open_contexts.append((context.pos, contexts[id(context)][1], "analyse"))
        try:
            return real_analyse(context, body)
        finally:
            open_contexts.pop()

    def counted_line(lexer, lineno, raw):
        if open_contexts and lineno < open_contexts[-1][0].line:
            _pos, counted, phase = open_contexts[-1]
            counted[phase, "head lines"] += 1
        return real_line(lexer, lineno, raw)

    def counted_module(p):
        if open_contexts:
            _pos, counted, phase = open_contexts[-1]
            counted[phase, "parses"] += 1
        return real_module(p)

    def counted_lex(text):
        file_lexes.append(text)
        return real_lex(text)

    def counted_file_parse(text, *args, **kwargs):
        file_parses.append(text)
        return real_file_parse(text, *args, **kwargs)

    def counted_scope(repo, path):
        scoped.append((id(repo), path, repo.text(path)))
        return real_scope(repo, path)

    monkeypatch.setattr(TaskContext, "of_function", classmethod(counted_of))
    monkeypatch.setattr(TaskContext, "at", classmethod(refused_at))
    monkeypatch.setattr(TaskContext, "analyse", counted_analyse)
    monkeypatch.setattr(LineLexer, "line", counted_line)
    monkeypatch.setattr(parser._Parser, "parse_module", counted_module)
    monkeypatch.setattr(repo_module._lexer, "lex", counted_lex)
    monkeypatch.setattr(repo_module._parser, "parse", counted_file_parse)
    monkeypatch.setattr(scope, "_module_scope", counted_scope)
    monkeypatch.setattr("mpgen.pipeline.run_model_over_tasks", counted_run)
    monkeypatch.setattr(config, "report", str(tmp_path / "report.json"))
    run_evaluate(config)
    assert counts == {"build_scope_index": 252, "tool_complete": 0, "lint_check": 0}
    assert Counter(served for *_made, served in contexts.values()) == {
        "tool generation": 126, "scoring": 126,
    }
    # making a context lexes the class header (of a method), the def line
    # and the docstring; nothing else lexes a head line, and nothing parses
    assert {counted["make", "head lines"] for _c, counted, _s in contexts.values()} == {2, 3}
    assert all(set(counted) == {("make", "head lines")} for _c, counted, _s in contexts.values())
    # deriving the tasks lexes and parses every eval file once, and nothing
    # lexes or parses a blanked file
    assert sorted(file_lexes) == sorted(file_parses) == loaded
    assert len({(repo, path) for repo, path, _text in scoped}) == len(scoped)
    assert scoped and {text for _repo, _path, text in scoped} <= set(loaded)


def test_evaluate_parses_a_fixed_number_of_statements(trained_models, tmp_path, monkeypatch):
    """One `run_evaluate` parses 2,914 statements: the tool model's
    generations, each trigger resuming from the last one's checkpoint, and
    each task's scoring in a new context, where no prediction resumes from
    its generation, and each distinct text of the task is analysed once
    (analysing every text of every pair parsed 3,072)."""
    config = dataclasses.replace(trained_models[0], report=str(tmp_path / "report.json"))
    real_stmt = parser._Parser.parse_stmt
    statements = 0

    def counted_statement(p):
        nonlocal statements
        statements += 1
        return real_stmt(p)

    monkeypatch.setattr(parser._Parser, "parse_stmt", counted_statement)
    run_evaluate(config)
    assert statements == 2914


def test_evaluate_reads_each_scored_text_once(trained_models, tmp_path, monkeypatch):
    """One `run_evaluate` scores in one `ground_truth` call, which lexes each
    distinct scored text once for the whole run (143 of the 378 ground
    truths and predictions), and each task analyses each of its distinct
    texts once (264 of 378); the tool model's generation analyses are not
    scoring's."""
    config = dataclasses.replace(trained_models[0], report=str(tmp_path / "report.json"))
    real_lex, real_analyse, real_ground_truth = metrics.lex, TaskContext.analyse, ground_truth
    lexed, analysed, scored, calls = [], [], [], []
    scoring = [False]

    def counted_lex(text):
        lexed.append(text)
        return real_lex(text)

    def counted_analyse(context, body):
        if scoring[0]:
            analysed.append((id(context), body))
        return real_analyse(context, body)

    def counted_ground_truth(tasks, vocab):
        def recorded():
            for task, pairs in tasks:
                scored.append((task, pairs))  # keeps task alive, so no later context reuses its id
                yield task, pairs

        calls.append(tasks)
        scoring[0] = True
        try:
            return real_ground_truth(recorded(), vocab)
        finally:
            scoring[0] = False

    monkeypatch.setattr(metrics, "lex", counted_lex)
    monkeypatch.setattr(TaskContext, "analyse", counted_analyse)
    monkeypatch.setattr("mpgen.pipeline.ground_truth", counted_ground_truth)
    run_evaluate(config)
    task_texts = [
        (id(task), text) for task, pairs in scored for pair in pairs for text in (pair.gt, pair.pred)
    ]
    assert len(calls) == 1
    assert len(scored) == 126 and all(len(pairs) == 2 for _task, pairs in scored)
    assert Counter(lexed) == Counter({text for _task, text in task_texts}) and len(lexed) == 143
    assert Counter(analysed) == Counter(set(task_texts)) and len(analysed) == 264


def test_evaluate_releases_the_tool_model_before_loading_the_vanilla_model(
    trained_models, tmp_path, monkeypatch
):
    """The two models are never held at once: when the vanilla model loads,
    nothing reaches the tool model any more."""
    config = dataclasses.replace(trained_models[0], report=str(tmp_path / "report.json"))
    real_load = ngram.load_model
    loaded, reachable = [], []

    def load(path):
        if loaded:
            gc.collect()
            reachable.append(loaded[-1]() is not None)
        model = real_load(path)
        loaded.append(weakref.ref(model))
        return model

    monkeypatch.setattr(ngram, "load_model", load)
    run_evaluate(config)
    assert len(loaded) == 2 and reachable == [False]


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
def test_evaluate_reports_what_generating_everything_then_scoring_reports(
    trained_models, tmp_path, cache
):
    """Scoring each task from a context built from its loaded task gives
    the report of scoring from a context `TaskContext.at` builds on the
    blanked file."""
    config = dataclasses.replace(
        trained_models[0], cache=cache, report=str(tmp_path / "report.json")
    )
    report = run_evaluate(config)
    assert report == generate_then_score_report(config)
    assert report["n_tasks"] == 126


def test_bleu_equals_the_per_call_count_on_the_benchmark(task_pairs, trained_models):
    """Every row's BLEU and each model's corpus BLEU, read off the summed
    per-pair counts, equal counting each pair's n-grams afresh."""
    vocab = trained_models[1].vocab
    for k in range(2):
        pairs = [task[k] for task in task_pairs]
        report = evaluate_pairs(pairs, vocab)
        token_pairs = [(tokenize(p.pred, vocab), tokenize(p.gt, vocab)) for p in pairs]
        for row, token_pair in zip(report.per_pair, token_pairs, strict=True):
            assert row["bleu4"] == counter_corpus_bleu([token_pair]), row["label"]
        assert report.bleu4 == corpus_bleu(token_pairs) == counter_corpus_bleu(token_pairs)
        assert 0 < report.bleu4 < 1


# Ordinary source that the bundled corpus does not hold: trailing spaces, a
# dropped illegal character or a tab after a docstring, and blank lines
# between the def line, the docstring and the first statement.
SHAPES = (
    "class KaleDesk:\n"
    "    def setup_fiber_ash(self):\n"
    '        "Prepare the kale tern"   \n'
    "        self._kale_tern = 0\n"
    "\n"
    "    def read_kale_tern(self):\n"
    '        "Return the stored kale tern"\n'
    "\n"
    "        return self._kale_tern\n"
    "\n"
    "    def put_kale_tern(self, value):\n"
    "\n"
    '        "Replace the stored kale tern with value"\n'
    "  \n"
    "        self._kale_tern = value\n"
    "        return value\n"
    "def bump_kale_tern(desk, amount):\n"
    '    "Increase the kale tern of desk by amount" $\n'
    "    return desk.read_kale_tern() + amount\n"
    "def scale_kale_tern(desk, factor):\n"
    '    "Scale the kale tern of desk by factor"\t\n'
    "\n"
    "    return desk.read_kale_tern() * factor\n"
)


def test_tasks_of_every_shape_are_scored_as_the_whole_file(trained_models, tmp_path):
    """Each derived or loaded task has a task context, and `run_evaluate`
    scores it as splicing into the whole file does."""
    config, tool, vanilla = trained_models
    (tmp_path / "eval" / "shapes").mkdir(parents=True)
    (tmp_path / "eval" / "shapes" / "core.mp").write_text(SHAPES)
    shaped = make_config(tmp_path, eval_roots=[str(tmp_path / "eval")], model_dir=config.model_dir)
    tasks = derive_tasks(shaped)
    assert len(tasks) == 5
    for t in tasks:
        TaskContext.at(t.snapshot, t.pos)  # raises at a caret of another shape

    records = [
        {"label": t.label, "repo": t.repo_name, "file": t.file, "line": t.pos.line,
         "column": t.pos.column, "description": t.description, "gt": t.gt}
        for t in tasks
    ]
    (tmp_path / "tasks.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    loaded = load_tasks(str(tmp_path / "tasks.jsonl"), shaped)
    assert [(t.pos, t.snapshot.files) for t in loaded] == [(t.pos, t.snapshot.files) for t in tasks]

    report = run_evaluate(shaped)
    for variant, model, enabled in (("tool", tool, True), ("vanilla", vanilla, False)):
        pairs, _traces = run_model_over_tasks(
            model, tasks, GenerationConfig(max_tokens=shaped.max_tokens, tool_enabled=enabled)
        )
        rows = report["models"][variant]["pairs"]
        for pair, row in zip(pairs, rows, strict=True):
            assert row["valid"] == whole_file_pair_is_valid(pair), pair.label
            assert row["dep_total"] == len(whole_file_dependencies(pair.gt, pair.repo, pair.pos))


_DOC_TAILS = ("", " ", "   ", " $", "$", "\t", " \t ")
_GAPS = ("", "\n", "\n  ", "\n\n        ")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_blanked_function_has_a_task_context(corpus_repos, data):
    """Blanking a function yields a caret `TaskContext.at` accepts, whatever
    follows the docstring on its line and whatever blank lines surround it,
    and the ground truth is scored there as in the whole file."""
    _name, repo = data.draw(st.sampled_from(corpus_repos))
    path = data.draw(st.sampled_from(repo.paths()))
    out = []
    for line in repo.text(path).split("\n"):
        stripped = line.strip(" ")
        if stripped.startswith('"'):
            line += data.draw(st.sampled_from(_DOC_TAILS))
        if stripped.startswith(('"', "def ")):
            line += data.draw(st.sampled_from(_GAPS))
        out.append(line)
    mutated = repo.with_text(path, "\n".join(out))
    funcs = [
        f for f in extract_functions(mutated.module(path)) if f.docstring and f.body_tokens
    ]
    assert funcs
    for func in funcs:
        gt = render_tokens(func.body_tokens)
        blanked = _blank_function(
            mutated, path, func, repo_name="", label=func.name, description=func.description, gt=gt
        )
        snap, pos = blanked.snapshot, blanked.pos
        task = TaskContext.at(snap, pos)
        pair = EvalPair(gt, gt, snap, pos)
        assert pair_is_valid(task.analyse(pair.pred)) == whole_file_pair_is_valid(pair)
        assert identify_dependencies(task.analyse(gt)) == whole_file_dependencies(gt, snap, pos)
