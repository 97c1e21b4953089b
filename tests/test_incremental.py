"""The trigger path keeps its work as generation grows, and equals the
whole-prefix and whole-text computations it replaces: the prefix's rendering
and cache key, and the task context's resumed analysis, against `oracles`,
and a renderer read mid-way against `render_items`."""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from mpgen import decode
from mpgen.analysis.complete import TaskContext
from mpgen.analysis.insert import indent_body
from mpgen.decode import GenerationConfig, generate
from mpgen.lm import tokenizer
from mpgen.lm.ngram import train
from mpgen.lm.tokenizer import tokenize
from mpgen.lm.vocab import BOS_ID, EOS_ID
from mpgen.minilang import parser, tokens as tk
from mpgen.minilang.lexer import LineLexer
from mpgen.minilang.render import Renderer, render_items
from mpgen.pipeline import derive_tasks, run_model_over_tasks
from mpgen.repo import CaretPosition, Repository

from conftest import text_vocab
from oracles import detokenized_body, trigger_cache_key, whole_text_analysis
from test_task_context import FUNCTION_TASK, METHOD_TASK, VOCAB, WORDS


@pytest.fixture(scope="module")
def demo_tasks(demo_config):
    return derive_tasks(demo_config)


# --- the prefix state against the whole-prefix oracles --------------------------

@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
def test_prefix_state_equals_the_oracles_at_every_benchmark_trigger(
    trained_models, demo_tasks, monkeypatch, cache
):
    """At every trigger the kept key and body text equal the whole-prefix
    ones; at every tool invocation the task context's analysis equals the
    whole text's; after every token the kept rendering equals the
    detokenized prefix; and every generation returns the detokenized
    sequence."""
    config, tool, vanilla = trained_models
    real_key, real_append = decode.Prefix.cache_key, decode.Prefix.append
    real_analyse = TaskContext.analyse
    triggers, steps, analyses = [], [], []

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

    def checked_analyse(context, body):
        analysis = real_analyse(context, body)
        _assert_equal_analyses(analysis, whole_text_analysis(task.snapshot, context, body))
        analyses.append(body)
        return analysis

    monkeypatch.setattr(decode.Prefix, "cache_key", checked_key)
    monkeypatch.setattr(decode.Prefix, "append", checked_append)
    monkeypatch.setattr(TaskContext, "analyse", checked_analyse)
    gen_cfg = GenerationConfig(max_tokens=config.max_tokens, cache_enabled=cache)
    tool_triggers = 0
    for model in (tool, vanilla):
        for task in demo_tasks:
            text, trace = generate(
                model, task.snapshot, task.description, task.pos, gen_cfg, task=task.context()
            )
            assert text == detokenized_body(trace.tokens, model.vocab)
            if model is tool:
                tool_triggers += trace.tool_invocations + trace.cache_hits
    assert len(triggers) == tool_triggers == 1620
    assert len(analyses) == (732 if cache else 1620)
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
    # the text drops the trailing newline: the tool reads `x.` on a closed line
    assert prefix.cache_key() == ("attr", "x", 2) == trigger_cache_key(prefix.ids, vocab)
    assert prefix.body.text() == "x = 1\nb = x." == detokenized_body(prefix.ids, vocab)


TWO_CLASSES = (
    "class K:\n"
    "    def g(self):\n"
    '        "Give"\n'
    "        return 1\n"
    "class C:\n"
    "    def boot(self):\n"
    '        "Prepare"\n'
    "        self.foo = K()\n"
    "    def m(self):\n"
    '        "Use foo"\n'
    "        \n"
)


def test_a_marker_inside_a_receiver_chain_keys_the_chain():
    """`self.<COMP>foo.<COMP>` is the chain `self.foo.`, which the tool cannot
    resolve, not the local `foo.`; keyed alike, a cached `foo.` list would
    answer for it, and cached and uncached generations would differ."""
    vocab = text_vocab(["foo = K()\nfoo.g()\nreturn self.foo.g()", "<COMP>"])
    prefix = decode.Prefix(vocab)
    for tok in tokenize("foo = K()\nfoo.<COMP>g()\nreturn self.<COMP>foo.<COMP>", vocab):
        prefix.append(tok)
    assert prefix.cache_key() == ("attr-chain", "foo", 1) == trigger_cache_key(prefix.ids, vocab)

    body = tokenize("foo = K()\nfoo.<COMP>g()\nreturn self.<COMP>foo.<COMP>g()", vocab)
    model = train([(0, [BOS_ID] + body + [EOS_ID])] * 5, order=8, alpha=0.1, vocab=vocab)
    repo, pos = Repository({"c.mp": TWO_CLASSES}), CaretPosition("c.mp", 11, 8)
    runs = [
        generate(model, repo, "d", pos, GenerationConfig(cache_enabled=cache))
        for cache in (True, False)
    ]
    (on, trace_on), (off, trace_off) = runs
    assert on == off == "foo = K()\nfoo.g()\nreturn self.foo."
    assert trace_on.to_dict() == trace_off.to_dict()
    assert trace_on.tokens == trace_off.tokens
    assert trace_on.dropped_triggers == 1


FOO = 'def foo():\n    "make foo"\n    return 1\n\ndef g():\n    "use foo"\n    \n'


def _cache_on_and_off(target, order, repo, pos, copies=1, extra=()):
    """Both tool paths' generations, with the cache on and off, of a model
    trained on copies of target plus the extra bodies."""
    vocab = text_vocab([target, *extra])
    bodies = [target] * copies + list(extra)
    model = train(
        [(0, [BOS_ID] + tokenize(b, vocab) + [EOS_ID]) for b in bodies],
        order=order, alpha=0.1, vocab=vocab,
    )
    return [
        generate(model, repo, "d", pos, GenerationConfig(cache_enabled=cache), task=task)
        for task in (None, TaskContext.at(repo, pos))
        for cache in (True, False)
    ]


def _assert_one_generation(runs, want):
    for text, trace in runs:
        assert text == want
        assert trace.to_dict() == runs[0][1].to_dict()
        assert trace.tokens == runs[0][1].tokens


def test_a_trigger_after_an_operand_on_the_open_line_asks_the_tool():
    """`zzq = foo` is a whole assignment, so the tool offers `zzq` after it,
    although no `=` is on a closed line yet; a key would serve the list from
    `zzq = `, without `zzq`, and the cached run would write `foo` forever."""
    repo, pos = Repository({"f.mp": FOO}), CaretPosition("f.mp", 7, 4)
    runs = _cache_on_and_off("zzq = <COMP>foo <COMP>zzq", 3, repo, pos)
    _assert_one_generation(runs, "zzq = foozzq")


def test_an_else_line_keys_nothing_until_its_block_opens():
    """An `else` line drops its whole `if` until a block opens below it, so
    `xq` is not offered at the start of the block and is offered inside it,
    with no `=` in between."""
    repo, pos = Repository({"f.mp": FOO}), CaretPosition("f.mp", 7, 4)
    target = "if 1:\n    xq = 1\nelse:\n    <COMP>foo(<COMP>xq)"
    runs = _cache_on_and_off(target, 8, repo, pos, copies=5)
    _assert_one_generation(runs, "if 1:\n    xq = 1\nelse:\n    foo(xq)")


def test_a_receiver_ending_in_a_number_asks_the_tool():
    """`x_1.` is the items `x`, `_`, `1`: the run of identifier items before
    the `.` is empty, which would key it as `f().`, an unresolvable receiver."""
    repo, pos = Repository({"c.mp": TWO_CLASSES}), CaretPosition("c.mp", 11, 8)
    target = "x_1 = K()\nf().<COMP>g\nreturn x_1.<COMP>g()"
    plain = target.replace("f().<COMP>g", "f().g")
    runs = _cache_on_and_off(target, 8, repo, pos, copies=5, extra=[plain])
    _assert_one_generation(runs, "x_1 = K()\nf().g\nreturn x_1.g()")
    assert runs[0][1].dropped_triggers == 1


def test_subwords_that_spell_a_keyword_key_nothing():
    """With the words `el` and `se`, which render joined, the line `el se :`
    is an `else` that drops the `if`. Read item by item it binds nothing, so
    a key would serve the list from inside the `if` block, with `xq`, below
    it; the cached run would write `xq` where the uncached one cannot."""
    repo, pos = Repository({"f.mp": FOO}), CaretPosition("f.mp", 7, 4)
    target = "if 1:\n    xq = 1\n    <COMP>foo()\nel se:\n    <COMP>xq"
    runs = _cache_on_and_off(target, 8, repo, pos, copies=5)
    _assert_one_generation(runs, "if 1:\n    xq = 1\n    foo()\nelse:\n    <UNK>\n        xq")
    assert runs[0][1].cache_hits == 0


@pytest.mark.parametrize("task", [METHOD_TASK, FUNCTION_TASK], ids=["method", "function"])
@settings(max_examples=150, deadline=None)
@given(words=st.lists(st.sampled_from(WORDS + ("<UNK>", "<COMP>")), max_size=40))
@example(words="if 1 : <NL> <INDENT> x = 1 <NL> <DEDENT> else : <NL> <INDENT> b (".split())
@example(words='x = Box ( ) <NL> x . <NL> "ab x .'.split())
@example(words="b = x . <NL> <INDENT> x = 1 <NL> x _ 1 .".split())
def test_triggers_with_one_key_get_one_list(task, words):
    """Within one sequence, a trigger after any of its tokens that gets a key
    gets the list that the first trigger with that key got. No run of the
    vocabulary's word items spells a keyword, or no trigger would get a key."""
    assert not VOCAB.words_spell_keyword
    context = TaskContext.at(*task)
    prefix = decode.Prefix(VOCAB)
    lists = {}
    for word in words:
        prefix.append(VOCAB.id(word))
        prefix.append(VOCAB.id("<COMP>"))
        key = prefix.cache_key()
        assert key == trigger_cache_key(prefix.ids, VOCAB)
        prefix.ids.pop()
        if key is not None:
            got = context.complete(prefix.body.text())
            assert lists.setdefault(key, got) == got, key


# --- the mechanism, counted over the benchmark ----------------------------------

def test_the_trigger_path_does_each_piece_of_work_once(trained_models, demo_tasks, monkeypatch):
    """Over the 126 benchmark tasks with the tool model: one trie per
    distinct suggestion list, no detokenization, each context's head lexed
    once, when the context is made, and nothing parsed then; each closed
    body line lexed once, and no body statement parsed again once it has
    settled."""
    config, tool, _vanilla = trained_models
    tries, detokenized = [], []
    real_build = decode.build_trie
    monkeypatch.setattr(decode, "build_trie", lambda *a: tries.append(a) or real_build(*a))
    monkeypatch.setattr(tokenizer, "detokenize", lambda *a: detokenized.append(a))

    real_of, real_analyse, real_line = (
        TaskContext.of_function.__func__, TaskContext.analyse, LineLexer.line
    )
    real_module, real_stmt = parser._Parser.parse_module, parser._Parser.parse_stmt
    open_contexts, contexts = [], {}  # id(context) -> its counts

    def counted_of(cls, repo, func, pos):
        stats = SimpleNamespace(
            pos=pos, head_lines=0, body_lines=0, calls=0, body="", parses=0, statements=0,
            settled=(0, 0),
        )
        open_contexts.append(stats)
        try:
            stats.context = real_of(cls, repo, func, pos)
        finally:
            open_contexts.pop()
        contexts[id(stats.context)] = stats
        return stats.context

    def counted_analyse(context, body):
        stats = contexts[id(context)]
        stats.calls += 1
        stats.body = body
        open_contexts.append(stats)
        try:
            analysis = real_analyse(context, body)
        finally:
            open_contexts.pop()
        if context._checkpoint is not None:
            toks = [t for t in analysis.tokens if t.kind != tk.ERROR]
            first = toks[context._checkpoint.body.index]  # the first unsettled statement's
            stats.settled = (first.line, first.column)
        return analysis

    def counted_line(lexer, lineno, raw):
        if open_contexts:
            stats = open_contexts[-1]
            if lineno < stats.pos.line:
                stats.head_lines += 1
            else:
                stats.body_lines += 1
        return real_line(lexer, lineno, raw)

    def counted_module(p):
        if open_contexts:
            open_contexts[-1].parses += 1
        return real_module(p)

    def counted_statement(p):
        if open_contexts and p.depth == 0:  # a body-level statement
            stats = open_contexts[-1]
            # every body extends the one before, so the checkpoint of the
            # last call holds what had settled
            assert (p.peek().line, p.peek().column) >= stats.settled
            stats.statements += 1
        return real_stmt(p)

    monkeypatch.setattr(TaskContext, "of_function", classmethod(counted_of))
    monkeypatch.setattr(TaskContext, "analyse", counted_analyse)
    monkeypatch.setattr(LineLexer, "line", counted_line)
    monkeypatch.setattr(parser._Parser, "parse_module", counted_module)
    monkeypatch.setattr(parser._Parser, "parse_stmt", counted_statement)
    _pairs, traces = run_model_over_tasks(
        tool, demo_tasks, GenerationConfig(max_tokens=config.max_tokens)
    )

    # 732 tries, one per tool invocation, without the run's trie memo
    assert sum(t.tool_invocations for t in traces) == 732
    assert len(tries) == len({suggestions for suggestions, _vocab in tries}) == 137
    assert detokenized == []
    assert len(contexts) == len(demo_tasks) == 126
    assert sum(1 for s in contexts.values() if s.calls) == sum(
        1 for t in traces if t.tool_invocations
    ) > 0
    for stats in contexts.values():
        # the class header, the def line and the docstring, and no parse
        assert stats.head_lines == (3 if stats.context.own_class is not None else 2)
        assert stats.parses == 0
        # the open line at each call, and each closed line once
        assert stats.body_lines == stats.calls + stats.body.count("\n")
    # 11,298 when every call parsed the whole body
    assert sum(stats.statements for stats in contexts.values()) == 1458


# --- the resumed analysis against the whole text's ----------------------------

_DEEP = 101  # one level past the parser's nesting limit
_LINES = st.tuples(
    st.sampled_from([0, 0, 0, 2, 4, 4, 6, 8]),  # body level, stray and nested indents
    st.sampled_from([
        "", "x = 1", "if x:", "else:", "while x:", "return self.", "self.size = 2",
        '"ab', '"s"', "y = $", "<COMP>", "x.<COMP>b(1)", "a = (1", ")", "return",
        "if x", "x = = 1", "self.mark = x", "y = " + "(" * _DEEP + "1" + ")" * _DEEP,
    ]),
).map(lambda p: " " * p[0] + p[1])


def _assert_equal_analyses(got, want):
    assert got.tokens == want.tokens
    assert got.diagnostics == want.diagnostics  # in order
    assert got.function == want.function
    assert got.own_attributes == want.own_attributes
    assert got.end == want.end


def _check(task, context, body):
    _assert_equal_analyses(context.analyse(body), whole_text_analysis(task[0], context, body))


@pytest.mark.parametrize("task", [METHOD_TASK, FUNCTION_TASK], ids=["method", "function"])
@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_LINES, min_size=1, max_size=8), data=st.data())
@example(lines=["if x:", "    x = 1", "  y = 2", "x"], data=None)
# `else:` after an `if` block closed on an earlier line, then on the open one
@example(lines=["if x:", "    self.a = 1", "y = 2", "else:", "    x = 1", "x = 2"], data=None)
@example(lines=["if x:", "    self.a = 1", "else:", "    self.b = 1", "x = 2"], data=None)
# a dedent back to body level after nested blocks
@example(lines=["while x:", "    if x:", "        x = 1", "self.c = 2", "x"], data=None)
# malformed lines that recover, each followed by a body-level line
@example(lines=["if x", "    self.a = 1", "x = 1", "x = = 1", "y = 2"], data=None)
@example(lines=["y = (1", "    z = 2", "self.a = 1"], data=None)
# an unindent that matches no outer level, at a nested level and at body level
@example(lines=["if x:", "        x = 1", "    y = 2", "self.a = 3", "x"], data=None)
@example(lines=["if x:", "    x = 1", "  y = 2", "  z = 3", "w = 4"], data=None)
# nesting past the limit, in blocks and in brackets
@example(lines=[" " * k + "if x:" for k in range(_DEEP + 1)] + ["self.a = 1", "y = 1"], data=None)
@example(lines=["y = " + "(" * _DEEP + "1" + ")" * _DEEP, "self.a = 1"], data=None)
def test_resumed_analysis_equals_the_whole_text_analysis(task, lines, data):
    """Bodies grown line by line, and a character at a time within a line,
    into one context; now and then a body that does not extend the last, as
    scoring's ground truth and predictions do not."""
    context = TaskContext.at(*task)
    for k, line in enumerate(lines):
        closed = "".join(l + "\n" for l in lines[:k])
        for cut in sorted({0, len(line) // 2, len(line)}):
            _check(task, context, closed + line[:cut])
        if data is not None and data.draw(st.booleans()):
            _check(task, context, "\n".join(data.draw(st.lists(_LINES, max_size=4))))
    _check(task, context, "".join(l + "\n" for l in lines))


_TEXTS = st.lists(_LINES, max_size=5).map("\n".join)


def _assert_same_answers(got, want):
    _assert_equal_analyses(got, want)
    key = lambda e: (e.line, e.column, e.kind, e.message)
    assert sorted(got.lint(), key=key) == sorted(want.lint(), key=key)
    assert got.complete_at(got.end.line, got.end.column) == (
        want.complete_at(want.end.line, want.end.column)
    )


@pytest.mark.parametrize("task", [METHOD_TASK, FUNCTION_TASK], ids=["method", "function"])
@settings(max_examples=150, deadline=None)
@given(
    generated=_TEXTS,
    cuts=st.lists(st.integers(0, 200), max_size=6),
    others=st.lists(_TEXTS, max_size=3),
    tail=_TEXTS,
    start=st.sampled_from(["generated", "other", "none"]),
)
def test_a_used_context_analyses_any_body_as_a_fresh_one(
    task, generated, cuts, others, tail, start
):
    """A context that a generation has grown a body in, and then scoring has
    asked about unrelated texts, analyses any body as a new context does:
    one that extends the generated text, the last text asked about, or
    neither."""
    used = TaskContext.at(*task)
    for cut in sorted(cuts) + [len(generated)]:
        used.analyse(generated[:cut])
    for text in others:
        used.analyse(text)
    last = others[-1] if others else generated
    body = {"generated": generated + "\n", "other": last + "\n", "none": ""}[start] + tail
    _assert_same_answers(used.analyse(body), TaskContext.at(*task).analyse(body))


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
