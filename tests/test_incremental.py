"""The trigger path keeps its work as generation grows, and equals the
whole-prefix computations it replaces: the prefix's rendering and cache key
against `oracles`, the task context's resumed lexing against `lex` of the
whole text, and a renderer read mid-way against `render_items`."""

import pytest
from hypothesis import example, given, settings, strategies as st

from mpgen import decode
from mpgen.analysis.complete import TaskContext
from mpgen.analysis.insert import indent_body
from mpgen.decode import GenerationConfig, generate
from mpgen.lm import tokenizer
from mpgen.minilang import tokens as tk
from mpgen.minilang.lexer import LineLexer, lex
from mpgen.minilang.parser import parse
from mpgen.minilang.render import Renderer, render_items
from mpgen.pipeline import derive_tasks, run_model_over_tasks

from oracles import detokenized_body, trigger_cache_key
from test_task_context import FUNCTION_TASK, METHOD_TASK, VOCAB


@pytest.fixture(scope="module")
def demo_tasks(demo_config):
    return derive_tasks(demo_config)


# --- the prefix state against the whole-prefix oracles --------------------------

@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
def test_prefix_state_equals_the_oracles_at_every_benchmark_trigger(
    trained_models, demo_tasks, monkeypatch, cache
):
    """At every trigger the kept key and body text equal the whole-prefix
    ones; after every token the kept rendering equals the detokenized
    prefix; and every generation returns the detokenized sequence."""
    config, tool, vanilla = trained_models
    real_key, real_append = decode.Prefix.cache_key, decode.Prefix.append
    triggers, steps = [], []

    def checked_key(prefix):
        key = real_key(prefix)
        assert key == trigger_cache_key(prefix.ids, prefix.vocab)
        assert prefix.body.text() == detokenized_body(prefix.ids, prefix.vocab)
        triggers.append(key)
        return key

    def checked_append(prefix, tok):
        real_append(prefix, tok)
        assert prefix.body.text() == detokenized_body(prefix.ids, prefix.vocab)
        steps.append(tok)

    monkeypatch.setattr(decode.Prefix, "cache_key", checked_key)
    monkeypatch.setattr(decode.Prefix, "append", checked_append)
    gen_cfg = GenerationConfig(max_tokens=config.max_tokens, cache_enabled=cache)
    tool_triggers = 0
    for model in (tool, vanilla):
        for task in demo_tasks:
            text, trace = generate(model, task.snapshot, task.description, task.pos, gen_cfg)
            assert text == detokenized_body(trace.tokens, model.vocab)
            if model is tool:
                tool_triggers += trace.tool_invocations + trace.cache_hits
    assert len(triggers) == tool_triggers == 1620
    assert len(steps) > len(triggers)


def test_the_key_counts_assignments_on_closed_lines_only():
    """A dropped trigger pops its `<COMP>` alone: the key and the rendering
    read on as if it had never been emitted."""
    vocab = VOCAB
    prefix = decode.Prefix(vocab)
    for word in ("x", "=", "1", "<NL>", "b", "=", "x", "."):
        prefix.append(vocab.id(word))
    prefix.append(vocab.id("<COMP>"))
    assert prefix.cache_key() == ("attr", "x", 1) == trigger_cache_key(prefix.ids, vocab)
    prefix.ids.pop()
    prefix.append(vocab.id("<NL>"))
    prefix.append(vocab.id("<COMP>"))
    assert prefix.cache_key() == ("scope", 2) == trigger_cache_key(prefix.ids, vocab)
    assert prefix.body.text() == "x = 1\nb = x." == detokenized_body(prefix.ids, vocab)


# --- the mechanism, counted over the benchmark ----------------------------------

def test_the_trigger_path_does_each_piece_of_work_once(trained_models, demo_tasks, monkeypatch):
    """Over the 126 benchmark tasks with the tool model: one trie per tool
    invocation, no detokenization, each context's head lexed once and each
    closed body line once."""
    config, tool, _vanilla = trained_models
    tries, detokenized = [], []
    real_build = decode.build_trie
    monkeypatch.setattr(decode, "build_trie", lambda *a: tries.append(a) or real_build(*a))
    monkeypatch.setattr(tokenizer, "detokenize", lambda *a: detokenized.append(a))

    real_analyse, real_line = TaskContext.analyse, LineLexer.line
    open_contexts, contexts = [], {}  # id -> [context, head lines, body lines, calls, body]

    def counted_analyse(context, body):
        stats = contexts.setdefault(id(context), [context, 0, 0, 0, ""])
        stats[3] += 1
        stats[4] = body
        open_contexts.append(stats)
        try:
            return real_analyse(context, body)
        finally:
            open_contexts.pop()

    def counted_line(lexer, lineno, raw):
        if open_contexts:
            stats = open_contexts[-1]
            stats[1 if lineno < stats[0].pos.line else 2] += 1
        return real_line(lexer, lineno, raw)

    monkeypatch.setattr(TaskContext, "analyse", counted_analyse)
    monkeypatch.setattr(LineLexer, "line", counted_line)
    _pairs, traces = run_model_over_tasks(
        tool, demo_tasks, GenerationConfig(max_tokens=config.max_tokens)
    )

    assert len(tries) == sum(t.tool_invocations for t in traces) == 732
    assert detokenized == []
    assert len(contexts) == sum(1 for t in traces if t.tool_invocations) > 0
    for context, head_lines, body_lines, calls, last_body in contexts.values():
        assert head_lines == context.pos.line - 1
        # every body extends the one before: the open line at each call, and
        # each closed line once
        assert body_lines == calls + last_body.count("\n")


# --- resumed lexing against lex of the whole text -------------------------------

_LINES = st.tuples(
    st.sampled_from([0, 0, 0, 2, 4, 4, 6, 8]),  # body level, stray and nested indents
    st.sampled_from([
        "", "x = 1", "if x:", "else:", "while x:", "return self.", "self.size = 2",
        '"ab', '"s"', "y = $", "<COMP>", "x.<COMP>b(1)", "a = (1", ")", "return",
    ]),
).map(lambda p: " " * p[0] + p[1])


def _check(context, body):
    text = context.head + indent_body(body, context.pos.column)
    analysis = context.analyse(body)
    assert analysis.tokens == lex(text)[0]
    assert analysis.diagnostics == parse(text, context.pos.file).diagnostics


@pytest.mark.parametrize("task", [METHOD_TASK, FUNCTION_TASK], ids=["method", "function"])
@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_LINES, min_size=1, max_size=8), data=st.data())
@example(lines=["if x:", "    x = 1", "  y = 2", "x"], data=None)
def test_resumed_lexing_equals_lex_of_the_whole_text(task, lines, data):
    """Bodies grown line by line, and a character at a time within a line,
    into one context; now and then a body that does not extend the last."""
    context = TaskContext.at(*task)
    for k, line in enumerate(lines):
        closed = "".join(l + "\n" for l in lines[:k])
        for cut in sorted({0, len(line) // 2, len(line)}):
            _check(context, closed + line[:cut])
        if data is not None and data.draw(st.booleans()):
            _check(context, "\n".join(data.draw(st.lists(_LINES, max_size=4))))
    _check(context, "".join(l + "\n" for l in lines))


# --- a renderer read mid-way ----------------------------------------------------

_ITEMS = st.sampled_from([
    (tk.IDENTIFIER, "a"), (tk.IDENTIFIER, "_"), (tk.NUMBER, "1"), (tk.KEYWORD, "return"),
    (tk.PUNCTUATOR, "("), (tk.PUNCTUATOR, ")"), (tk.PUNCTUATOR, "."), (tk.PUNCTUATOR, ","),
    (tk.PUNCTUATOR, ":"), (tk.OPERATOR, "="), (tk.STRING, '"s"'), (tk.ERROR, "$"),
    (tk.MARKER, "<COMP>"), (tk.NEWLINE, ""), (tk.INDENT, ""), (tk.DEDENT, ""),
])


@settings(max_examples=300, deadline=None)
@given(items=st.lists(_ITEMS, max_size=40))
def test_a_renderer_fed_item_by_item_reads_as_render_items(items):
    renderer = Renderer()
    assert renderer.text() == render_items([]) == ""
    for k, (kind, text) in enumerate(items, start=1):
        renderer.add(kind, text)
        assert renderer.text() == render_items(items[:k])
