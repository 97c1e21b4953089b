import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mpgen import decode
from mpgen.decode import (
    DecisionMemo,
    GenerationConfig,
    PrefixTrie,
    build_trie,
    generate,
    greedy_choice,
    select_suggestion,
    tokenize_suggestion,
)
from mpgen.lm.ngram import NGramModel, description_bucket, train
from mpgen.lm.tokenizer import tokenize
from mpgen.lm.vocab import BOS_ID, COMP_ID, EOS_ID, RESERVED_TOKENS, Vocab
from mpgen.pipeline import derive_tasks
from mpgen.repo import CaretPosition, Repository

from conftest import text_vocab
from oracles import (
    argmax,
    dense_next_token,
    dense_path_walk,
    greedy_path_oracle,
    mask_distribution,
    random_selection_case as random_case,
)


# --- trie --------------------------------------------------------------------

def test_trie_prefix_of_another_suggestion():
    vocab = text_vocab(["update updates"])
    trie = build_trie(["update", "updates"], vocab)
    # distinct single subwords: two children of the root, both terminal
    assert len(trie.root.children) == 2
    assert trie.shadowed == 0


def test_trie_token_level_shadowing():
    vocab = text_vocab(["get_value get_value_str"])
    trie = build_trie(["get_value", "get_value_str"], vocab)
    # get_value's terminal lies on get_value_str's path: the longer one is
    # unreachable under the first-terminal stop, in either order, once per
    # time it is listed
    assert trie.shadowed == 1
    assert build_trie(["get_value_str", "get_value"], vocab).shadowed == 1
    assert build_trie(["get_value_str", "get_value", "get_value_str"], vocab).shadowed == 2


def test_trie_single_suggestion():
    vocab = text_vocab(["a"])
    trie = build_trie(["a"], vocab)
    assert len(trie.root.children) == 1
    child = next(iter(trie.root.children.values()))
    assert child.is_terminal


def test_trie_shares_prefixes_and_bounds_node_count():
    vocab = text_vocab(["_ax _ay _b"])
    trie = build_trie(["_ax", "_ay", "_b"], vocab)
    lengths = [len(tokenize_suggestion(s, vocab)) for s in ("_ax", "_ay", "_b")]
    nodes, stack = 0, [trie.root]
    while stack:
        nodes += 1
        stack.extend(stack.pop().children.values())
    assert nodes <= 1 + sum(lengths)
    assert len(trie.root.children) == 1  # all three share the leading underscore


def test_trie_fanout_counts_distinct_first_subwords():
    names = [f"m{c}_x" for c in "abcdef"] + ["_hidden"]
    vocab = text_vocab([" ".join(names)])
    trie = build_trie(names, vocab)
    firsts = {tokenize_suggestion(s, vocab)[0] for s in names}
    assert len(trie.root.children) == len(firsts)


def test_build_trie_rejects_empty():
    vocab = text_vocab(["a"])
    with pytest.raises(ValueError):
        build_trie([], vocab)


# --- decision memo -----------------------------------------------------------

class _StoresNothing(dict):
    def __setitem__(self, key, value):
        pass


class ForgetfulMemo(DecisionMemo):
    """A decision memo that remembers nothing: every decision is made
    afresh each time it is asked for."""

    def __init__(self, model):
        super().__init__(model)
        for name, part in list(vars(self).items()):
            if isinstance(part, dict):
                setattr(self, name, _StoresNothing())


_MEMO_WORDS = ["al", "be", "cu", "do", "el"]
_MEMO_VOCAB = text_vocab([" ".join(_MEMO_WORDS)])
_MEMO_MODEL = train(
    [
        ([], [BOS_ID, COMP_ID] + tokenize(text, _MEMO_VOCAB) + [EOS_ID])
        for text in ("al_be", "_cu_do", "el al", "be_be_cu", "do")
    ],
    order=3, alpha=0.1, vocab=_MEMO_VOCAB,
)
_NAMES = st.builds(
    lambda under, parts: ("_" if under else "") + "_".join(parts),
    st.booleans(),
    st.lists(st.sampled_from(_MEMO_WORDS), min_size=1, max_size=3),
)


def _trie_shape(node) -> tuple:
    """A trie node's terminal flag and, per child token, its child's shape."""
    return node.is_terminal, {tok: _trie_shape(child) for tok, child in node.children.items()}


@settings(max_examples=200, deadline=None)
@given(
    # lists met in some order, most of them more than once
    st.lists(st.lists(_NAMES, min_size=1, max_size=6), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)
    ),
    st.lists(st.sampled_from(range(len(RESERVED_TOKENS), _MEMO_VOCAB.size)), max_size=4),
)
def test_memo_entries_equal_fresh_tries(lists, context):
    """Each list's memo trie has the nodes and shadowed count of a trie
    built afresh, and the memo's walk selects what `select_suggestion`
    selects on it; a list met again gets the trie built the first time. The
    shadowed count is that of a scan over every pair of the list's token
    sequences."""
    memo = DecisionMemo(_MEMO_MODEL)
    bucket = description_bucket([], _MEMO_VOCAB, _MEMO_MODEL.buckets)
    prefix = [BOS_ID] + context + [COMP_ID]
    first: dict[tuple, PrefixTrie] = {}
    for suggestions in lists:
        trie = memo.trie(suggestions)
        fresh = build_trie(suggestions, _MEMO_VOCAB)
        assert _trie_shape(trie.root) == _trie_shape(fresh.root)
        seqs = [tokenize_suggestion(s, _MEMO_VOCAB) for s in suggestions]
        assert trie.shadowed == fresh.shadowed == sum(
            any(len(t) < len(s) and s[: len(t)] == t for t in seqs) for s in seqs
        )
        assert memo.walk(bucket, prefix, trie) == select_suggestion(
            _MEMO_MODEL, bucket, prefix, fresh
        )
        assert first.setdefault(tuple(suggestions), trie) is trie


# --- mask / argmax -----------------------------------------------------------

def test_mask_zeroes_outside_allowed():
    dist = np.full(5, 0.2)
    out = mask_distribution(dist, {3})
    assert out[3] == pytest.approx(0.2)
    assert out.sum() == pytest.approx(0.2)


def test_mask_forces_argmax_inside_allowed():
    dist = np.array([0.5, 0.1, 0.4])
    out = mask_distribution(dist, {1, 2})
    assert int(np.argmax(out)) == 2


def test_mask_idempotent():
    dist = np.array([0.3, 0.3, 0.4])
    once = mask_distribution(dist, {0, 2})
    twice = mask_distribution(once, {0, 2})
    np.testing.assert_array_equal(once, twice)


def test_mask_empty_allowed_rejected():
    with pytest.raises(ValueError):
        mask_distribution(np.ones(3), set())


def _vocab_of_size(n):
    return Vocab(tokens=("<BOS>", "<EOS>", "<UNK>", "<COMP>") + tuple(f"t{i}" for i in range(n - 4)))


def test_argmax_basic_and_ties():
    v = _vocab_of_size(6)
    assert argmax(v, np.array([0.1, 0.7, 0.2, 0.0, 0.0, 0.0])) == 1
    assert argmax(v, np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.5])) == 2  # lowest index wins


def test_argmax_scale_invariant():
    v = _vocab_of_size(5)
    dist = np.array([0.1, 0.2, 0.05, 0.4, 0.25])
    assert argmax(v, dist) == argmax(v, dist * 7.5)


def test_argmax_all_zero_rejected():
    v = _vocab_of_size(4)
    with pytest.raises(ValueError):
        argmax(v, np.zeros(4))


# --- count-based choice against the dense argmax -----------------------------

def test_greedy_choice_ranks_by_count_then_lowest_id():
    assert greedy_choice({5: 2, 7: 3}, [5, 7, 9]) == 7
    assert greedy_choice({5: 3, 7: 3}, [7, 5]) == 5
    assert greedy_choice({5: 3}, [6, 4]) == 4  # no candidate seen: lowest id


def _vocab_with_words(n):
    return Vocab(tokens=RESERVED_TOKENS + tuple(f"w{i}" for i in range(n)))


def _forget_unigrams(model):
    for table in [*model.tables.values(), model.pool]:
        table.pop((), None)


def _model_case(bodies, prefix=(), paths=((4,),), forget_unigrams=False, order=2):
    """One-bucket model over the words 4, 5, 6, trained on `bodies`."""
    pairs = [([], [BOS_ID] + list(b) + [EOS_ID]) for b in bodies]
    model = train(pairs, order=order, alpha=0.1, vocab=_vocab_with_words(3), buckets=1)
    if forget_unigrams:
        _forget_unigrams(model)
    return model, [], [BOS_ID] + list(prefix), [tuple(p) for p in paths]


@st.composite
def count_cases(draw):
    """A small random model, description, prefix and trie paths.

    Tiny vocabularies make count ties common; <COMP> is an ordinary body
    token, so contexts seen only before <COMP> occur; forgetting the
    unigram tables leaves some prefixes with no matching context at all.
    """
    n_words = draw(st.integers(1, 4))
    vocab = _vocab_with_words(n_words)
    body_ids = st.integers(2, vocab.size - 1)  # <UNK>, <COMP> and the words
    pairs = draw(
        st.lists(
            st.tuples(st.lists(body_ids, max_size=2), st.lists(body_ids, max_size=6)),
            min_size=1,
            max_size=5,
        )
    )
    model = train(
        [(d, [BOS_ID] + b + [EOS_ID]) for d, b in pairs],
        order=draw(st.integers(1, 4)),
        alpha=draw(st.sampled_from([0.1, 1.0, 1e-6])),
        vocab=vocab,
        buckets=draw(st.sampled_from([1, 3])),
    )
    if draw(st.booleans()):
        _forget_unigrams(model)
    desc = draw(st.lists(body_ids, max_size=2))
    prefix = [BOS_ID] + draw(st.lists(body_ids, max_size=4))
    paths = draw(
        st.lists(st.lists(st.integers(1, vocab.size - 1), min_size=1, max_size=3), min_size=1, max_size=6)
    )
    return model, desc, prefix, [tuple(p) for p in paths]


@settings(max_examples=300, deadline=None)
@given(count_cases())
# unseen context: no table matches, every id ties at pure smoothing
@example(_model_case([[4, 5]], prefix=[COMP_ID], paths=[(6,), (5, 4)], forget_unigrams=True))
# count ties: w0 and w1 each follow <BOS> once; the trie root ties too
@example(_model_case([[5], [4]], paths=[(5,), (4, 5), (6,)]))
# <COMP>-only context: dropping the trigger leaves no legal count
@example(_model_case([[COMP_ID, 4], [COMP_ID, 5]], paths=[(4,), (5,)]))
def test_count_choices_equal_dense_argmax(case):
    model, desc, prefix, paths = case
    bucket = description_bucket(desc, model.vocab, model.buckets)
    counts = model.next_counts(bucket, prefix)
    assert decode._choose_next(counts, (BOS_ID,)) == dense_next_token(model, desc, prefix)
    assert decode._choose_next(counts, (BOS_ID, COMP_ID)) == dense_next_token(
        model, desc, prefix, excluded=(BOS_ID, COMP_ID)
    )
    got = select_suggestion(model, bucket, prefix, PrefixTrie(paths))
    assert got == dense_path_walk(model, desc, prefix, paths)


def test_examples_hit_the_edge_cases():
    unseen, ties, comp_only = (
        _model_case([[4, 5]], prefix=[COMP_ID], forget_unigrams=True),
        _model_case([[5], [4]]),
        _model_case([[COMP_ID, 4], [COMP_ID, 5]]),
    )
    assert unseen[0].next_counts(0, unseen[2]) == {}
    assert ties[0].next_counts(0, ties[2]) == {4: 1, 5: 1}
    assert comp_only[0].next_counts(0, comp_only[2]) == {COMP_ID: 2}
    assert decode._choose_next({COMP_ID: 2}, (BOS_ID, COMP_ID)) == EOS_ID


def test_benchmark_choices_equal_dense_argmax(trained_models, monkeypatch):
    """Every decision of every tool and vanilla generation on the bundled
    benchmark equals the argmax of the dense predicted distribution: outer
    steps with <BOS> zeroed (and <COMP> too where a trigger was dropped),
    trie steps with everything but the node's children zeroed. The memo
    remembers nothing, so every walk is made, and checked, where it is met."""
    config, tool, vanilla = trained_models
    real_select = decode.select_suggestion
    trie_steps = []
    description: list[int] = []  # the ids of the task being generated

    def checked_select(model, bucket, prefix, trie):
        assert bucket == description_bucket(description, model.vocab, model.buckets)
        appended = real_select(model, bucket, prefix, trie)
        node, work = trie.root, list(prefix)
        for tok in appended:
            dist = np.asarray(model.predict(description, work))
            assert tok == argmax(model.vocab, mask_distribution(dist, node.children)), work
            node = node.children[tok]
            work.append(tok)
            trie_steps.append(tok)
        assert node.is_terminal
        return appended

    monkeypatch.setattr(decode, "select_suggestion", checked_select)
    tasks = derive_tasks(config)
    outer_steps = 0
    for model, tool_enabled in ((tool, True), (vanilla, False)):
        cfg = GenerationConfig(max_tokens=config.max_tokens, tool_enabled=tool_enabled)
        for task in tasks:
            description[:] = tokenize(task.description, model.vocab)
            _text, trace = generate(
                model, task.snapshot, task.description, task.pos, cfg,
                task=task.context(), memo=ForgetfulMemo(model),
            )
            _check_outer_choices(model, task.description, trace, tool_enabled)
            outer_steps += trace.steps
    assert (outer_steps, len(trie_steps)) == (9804, 2670)


def _count_calls(monkeypatch, calls, owner, name):
    real = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
def test_a_memo_shared_by_the_run_generates_as_a_memo_per_generation(
    trained_models, monkeypatch, cache
):
    """Over the 126 benchmark tasks, for each model, one decision memo
    shared by every generation gives the predictions, token ids, tags and
    trace counters that a memo of each generation's own gives, and that a
    memo which remembers nothing gives. The forgetful memo reads the counts
    at every outer step and every trie step and walks at every trigger; the
    shared one reads them once per state and walks once per (state, trie),
    and builds the trie of each of the 137 distinct suggestion lists once.
    """
    config, tool, vanilla = trained_models
    tasks = derive_tasks(config)
    calls: dict[str, int] = {}
    built: list[tuple] = []
    _count_calls(monkeypatch, calls, NGramModel, "next_counts")
    _count_calls(monkeypatch, calls, decode, "select_suggestion")
    real_build = decode.build_trie
    monkeypatch.setattr(decode, "build_trie", lambda *a: built.append(a[0]) or real_build(*a))

    def run(model, tool_enabled, memo_of):
        cfg = GenerationConfig(
            max_tokens=config.max_tokens, cache_enabled=cache, tool_enabled=tool_enabled
        )
        calls.update(next_counts=0, select_suggestion=0)
        built.clear()
        generations = [
            generate(
                model, t.snapshot, t.description, t.pos, cfg,
                task=t.context() if tool_enabled else None, memo=memo_of(),
            )
            for t in tasks
        ]
        return generations, (calls["next_counts"], calls["select_suggestion"], len(built))

    for model, tool_enabled, forgetful_calls, shared_calls in (
        (tool, True, (6678, 1620, 732 if cache else 1620), (865, 309, 137)),
        (vanilla, False, (5796, 0, 0), (175, 0, 0)),
    ):
        forgetful, made = run(model, tool_enabled, lambda: ForgetfulMemo(model))
        traces = [trace for _text, trace in forgetful]
        triggers = sum(t.tool_invocations + t.cache_hits for t in traces)
        assert sum(t.dropped_triggers for t in traces) == 0
        assert made == (
            sum(t.steps + t.tags.count("tool-selection") for t in traces),
            triggers,
            sum(t.tool_invocations for t in traces),
        ) == forgetful_calls
        assert run(model, tool_enabled, lambda: None)[0] == forgetful  # each generation's own
        shared = DecisionMemo(model)
        generations, made = run(model, tool_enabled, lambda: shared)
        assert generations == forgetful
        assert made == shared_calls
        assert len(set(built)) == len(built)
        assert len(generations) == 126


class _ScriptedTool:
    """A task context whose tool answers from a script: its n-th completion
    is the n-th suggestion list, cycling through them. One serves a whole
    run, so a state met again may meet another list."""

    def __init__(self, pos, script):
        self.pos, self._script, self._calls = pos, script, 0

    def complete(self, _body):
        suggestions = self._script[self._calls % len(self._script)]
        self._calls += 1
        return suggestions


@st.composite
def memo_cases(draw):
    """A small model, the descriptions of a run (some met more than once),
    the tool's script and a generation config. The script holds empty lists,
    which drop their triggers, and lists met again."""
    model = draw(count_cases())[0]
    word = st.sampled_from(model.vocab.tokens[len(RESERVED_TOKENS):])
    name = st.lists(word, min_size=1, max_size=3).map("_".join)
    lists = draw(st.lists(st.lists(name, max_size=3), min_size=1, max_size=3))
    script = draw(st.lists(st.sampled_from(lists), min_size=1, max_size=6))
    descriptions = draw(
        st.lists(st.sampled_from(["", "w0", "w1 w0", "w0 w0 w0"]), min_size=1, max_size=6)
    )
    cfg = GenerationConfig(max_tokens=draw(st.integers(1, 40)), cache_enabled=draw(st.booleans()))
    return model, descriptions, script, cfg


# lines repeated until max_tokens, with kept and dropped triggers: order 1,
# where every outer step meets one state; order 4, where two triggers
# alternate and one suggestion shadows another
_MEMO_EXAMPLES = (
    (
        _model_case([[COMP_ID, COMP_ID, 4, 4]], order=1)[0],
        ["", ""], [["w0"], [], ["w1"]], GenerationConfig(max_tokens=30),
    ),
    (
        _model_case([[4, COMP_ID, 5, 4, 6] * 3, [4, COMP_ID, 5] * 6], order=4)[0],
        ["w0", ""], [["w1"], ["w1_w0", "w1"], []],
        GenerationConfig(max_tokens=40, cache_enabled=False),
    ),
)


def _run_generations(case, memo_of):
    model, descriptions, script, cfg = case
    repo, pos = _blank_repo()
    tool = _ScriptedTool(pos, script)
    return [generate(model, repo, d, pos, cfg, task=tool, memo=memo_of()) for d in descriptions]


@settings(max_examples=300, deadline=None)
@given(memo_cases())
@example(_MEMO_EXAMPLES[0])
@example(_MEMO_EXAMPLES[1])
def test_a_memo_shared_by_generations_equals_a_forgetful_memo(case):
    """Generations that share one decision memo give the predictions, token
    ids, tags and trace counters of generations whose memo remembers
    nothing, and every outer step is the dense argmax."""
    model, descriptions = case[:2]
    shared = DecisionMemo(model)
    forgetful = _run_generations(case, lambda: ForgetfulMemo(model))
    assert _run_generations(case, lambda: shared) == forgetful
    for description, (_text, trace) in zip(descriptions, forgetful):
        _check_outer_choices(model, description, trace, tool_enabled=True)


def test_memo_examples_hit_the_edge_cases(monkeypatch):
    """Each example repeats a line until max_tokens over kept and dropped
    triggers, and a shared memo reads the counts once per state and per
    trie step of each walk, and at each dropped trigger: at order 1, one
    outer step, two walks of one token and 19 dropped triggers."""
    calls: dict[str, int] = {}
    _count_calls(monkeypatch, calls, NGramModel, "next_counts")

    def counted_run(case, memo_of):
        calls["next_counts"] = 0
        return [t for _text, t in _run_generations(case, memo_of)], calls["next_counts"]

    for case, want in zip(_MEMO_EXAMPLES, ((118, 22), (118, 22))):
        model = case[0]
        traces, forgetful = counted_run(case, lambda: ForgetfulMemo(model))
        shared = DecisionMemo(model)
        _traces, remembered = counted_run(case, lambda: shared)
        for t in traces:
            assert t.truncated and t.dropped_triggers and "tool-selection" in t.tags
        assert (forgetful, remembered) == want


def _check_outer_choices(model, description, trace, tool_enabled):
    """Replay every model-tagged token of a trace against the dense argmax.

    A token that differs from it must be a dropped trigger's replacement:
    the dense argmax was <COMP>, and the token is the argmax with <COMP>
    zeroed too. The number of those must match the trace's count.
    """
    desc = tokenize(description, model.vocab)
    dropped = 0
    for i, tag in enumerate(trace.tags):
        if tag != "model":
            continue
        prefix, tok = trace.tokens[: i + 1], trace.tokens[i + 1]
        want = dense_next_token(model, desc, prefix)
        if want != tok:
            assert tool_enabled and want == COMP_ID, (description, i)
            assert tok == dense_next_token(model, desc, prefix, (BOS_ID, COMP_ID))
            dropped += 1
    assert dropped == trace.dropped_triggers


# --- select_suggestion -------------------------------------------------------

def test_single_suggestion_forced_regardless_of_model():
    rng = random.Random(0)
    model, desc, prefix, _sugs, vocab = random_case(rng)
    trie = build_trie(["_only_one"], text_vocab(["_only_one"]))
    # rebuild with the case vocab so ids align
    vocab2 = text_vocab(["_only_one"])
    model2 = train([([], [BOS_ID, 4, EOS_ID])], order=2, alpha=0.1, vocab=vocab2)
    bucket = description_bucket([], vocab2, model2.buckets)
    out = select_suggestion(model2, bucket, [BOS_ID, COMP_ID], build_trie(["_only_one"], vocab2))
    from mpgen.lm.tokenizer import detokenize

    assert detokenize(out, vocab2) == "_only_one"


def test_model_bias_picks_between_two_suggestions():
    vocab = text_vocab(["left right"])
    left, right = vocab.tokens.index("left"), vocab.tokens.index("right")
    pairs = [([], [BOS_ID, COMP_ID, right, EOS_ID])] * 5
    model = train(pairs, order=3, alpha=0.1, vocab=vocab)
    bucket = description_bucket([], vocab, model.buckets)
    out = select_suggestion(model, bucket, [BOS_ID, COMP_ID], build_trie(["left", "right"], vocab))
    assert out == [right]


def test_sixty_eight_candidate_selection_finds_trained_path():
    # model trained to prefer _registered_updates among 68 candidates
    names = ["_registered_updates"] + [f"_field_{c}{d}" for c in "abcdef" for d in "abcdefghij"][:67]
    vocab = text_vocab([" ".join(names)])
    target = tokenize_suggestion("_registered_updates", vocab)
    pairs = [([], [BOS_ID, COMP_ID] + target + [EOS_ID])] * 10
    model = train(pairs, order=3, alpha=0.1, vocab=vocab)
    trie = build_trie(names, vocab)
    out = select_suggestion(model, description_bucket([], vocab, model.buckets), [BOS_ID, COMP_ID], trie)
    from mpgen.lm.tokenizer import detokenize

    assert detokenize(out, vocab) == "_registered_updates"


def test_selection_soundness_and_oracle_equivalence_randomized():
    rng = random.Random(20240808)
    for _ in range(200):
        model, desc, prefix, suggestions, vocab = random_case(rng)
        trie = build_trie(suggestions, vocab)
        got = select_suggestion(model, description_bucket(desc, vocab, model.buckets), prefix, trie)
        from mpgen.lm.tokenizer import detokenize

        assert detokenize(got, vocab) in suggestions
        assert got == greedy_path_oracle(model, desc, prefix, suggestions, vocab)


# --- generate ----------------------------------------------------------------

def _blank_repo():
    src = (
        "class K:\n"
        "    def boot(self):\n"
        '        "Prepare"\n'
        "        self.x = 1\n"
        "    def m(self):\n"
        '        "Return the stored x"\n'
        "        \n"
    )
    return Repository({"k.mp": src}), CaretPosition("k.mp", 7, 8)


def _member_trigger_model():
    vocab = text_vocab(["return self.x", "<COMP>"])
    body = tokenize("return <COMP>self.<COMP>x", vocab)
    return train([([], [BOS_ID] + body + [EOS_ID])] * 5, order=3, alpha=0.1, vocab=vocab)


def test_immediate_eos_gives_empty_output():
    vocab = text_vocab(["x"])
    model = train([([], [BOS_ID, EOS_ID])] * 3, order=2, alpha=0.1, vocab=vocab)
    repo, pos = _blank_repo()
    text, trace = generate(model, repo, "anything", pos, GenerationConfig())
    assert text == ""
    assert trace.steps == 1


def test_single_candidate_trigger_inserts_member():
    repo, pos = _blank_repo()
    model = _member_trigger_model()
    text, trace = generate(model, repo, "Return the stored x", pos, GenerationConfig())
    assert text == "return self.x"
    assert trace.tool_invocations >= 1
    assert "tool-selection" in trace.tags


def test_tool_vs_vanilla_on_stale_member():
    # the vanilla model reproduces a member name from elsewhere; the tool
    # model is steered onto the only valid member
    from mpgen.analysis.lint import NO_MEMBER, lint_check

    src = (
        "class K:\n"
        "    def boot(self):\n"
        '        "Prepare"\n'
        "        self._x = 1\n"
        "    def m(self):\n"
        '        "Return the stored x"\n'
        "        \n"
    )
    repo = Repository({"k.mp": src})
    pos = CaretPosition("k.mp", 7, 8)
    corpus = ["return self._x", "return self._y_x", "<COMP>", "boot m"]
    vocab = text_vocab(corpus)
    aug = tokenize("return <COMP>self.<COMP>_y_x", vocab)
    plain = tokenize("return self._y_x", vocab)
    tool_model = train([([], [BOS_ID] + aug + [EOS_ID])] * 5, order=3, alpha=0.1, vocab=vocab)
    vanilla_model = train([([], [BOS_ID] + plain + [EOS_ID])] * 5, order=3, alpha=0.1, vocab=vocab)

    tool_text, tool_trace = generate(tool_model, repo, "d", pos, GenerationConfig())
    van_text, _ = generate(vanilla_model, repo, "d", pos, GenerationConfig(tool_enabled=False))
    assert van_text == "return self._y_x"
    assert tool_text == "return self._x"

    from mpgen.analysis.insert import insert

    snap_v, _ = insert(repo, pos, van_text)
    snap_t, _ = insert(repo, pos, tool_text)
    assert any(e.kind == NO_MEMBER for e in lint_check(snap_v, "k.mp"))
    assert not lint_check(snap_t, "k.mp")


def test_empty_completion_drops_trigger_and_continues():
    # receiver is an unresolvable parameter: the tool returns nothing, the
    # marker is dropped, and decoding continues with the next-best token
    src = "def f(a):\n    \"doc\"\n    \n"
    repo = Repository({"f.mp": src})
    pos = CaretPosition("f.mp", 3, 4)
    vocab = text_vocab(["return a.b", "<COMP>"])
    marked = tokenize("return a.<COMP>b", vocab)
    plain = tokenize("return a.b", vocab)
    # mixed corpus: the marker dominates, an unmarked variant supplies the
    # next-best continuation once the failed trigger is dropped
    pairs = [([], [BOS_ID] + marked + [EOS_ID])] * 5 + [([], [BOS_ID] + plain + [EOS_ID])] * 3
    model = train(pairs, order=3, alpha=0.1, vocab=vocab)
    text, trace = generate(model, repo, "d", pos, GenerationConfig())
    assert trace.dropped_triggers == 1
    assert "<COMP>" not in text
    assert text == "return a.b"


class _ToolFailure(RuntimeError):
    pass


def _failing_tool(*_args):
    raise _ToolFailure("completion tool failed")


def test_task_context_error_propagates_out_of_generate(monkeypatch):
    repo, pos = _blank_repo()
    context = decode.TaskContext.at(repo, pos)
    monkeypatch.setattr(decode.TaskContext, "complete", _failing_tool)
    with pytest.raises(_ToolFailure):
        generate(_member_trigger_model(), repo, "d", pos, GenerationConfig(), task=context)


def test_whole_file_tool_error_propagates_out_of_generate(monkeypatch):
    repo, _blank_pos = _blank_repo()
    live = CaretPosition("k.mp", 7, 4)  # not a blanked caret: the line holds 8 spaces
    with pytest.raises(ValueError, match="is not a blanked task's caret"):
        decode.TaskContext.at(repo, live)
    monkeypatch.setattr(decode, "tool_complete", _failing_tool)
    with pytest.raises(_ToolFailure):
        generate(_member_trigger_model(), repo, "d", live, GenerationConfig())


def test_dropped_trigger_replacement_is_dense_argmax_without_comp():
    src = "def f(a):\n    \"doc\"\n    \n"
    repo = Repository({"f.mp": src})
    pos = CaretPosition("f.mp", 3, 4)
    vocab = text_vocab(["return a.b c", "<COMP>"])
    marked = tokenize("return a.<COMP>b", vocab)
    plain = tokenize("return a.c", vocab)
    pairs = [([], [BOS_ID] + marked + [EOS_ID])] * 5 + [([], [BOS_ID] + plain + [EOS_ID])] * 3
    model = train(pairs, order=3, alpha=0.1, vocab=vocab)
    text, trace = generate(model, repo, "d", pos, GenerationConfig())
    assert trace.dropped_triggers == 1
    assert COMP_ID not in trace.tokens
    assert text == "return a.c"
    _check_outer_choices(model, "d", trace, tool_enabled=True)


def test_marker_hygiene_and_termination():
    vocab = text_vocab(["a b"])
    a = vocab.tokens.index("a")
    # degenerate model that loops on `a`
    model = train([([], [BOS_ID] + [a] * 30 + [EOS_ID])], order=2, alpha=0.1, vocab=vocab)
    repo, pos = _blank_repo()
    cfg = GenerationConfig(max_tokens=17)
    text, trace = generate(model, repo, "d", pos, cfg)
    assert trace.steps == 17
    assert trace.truncated
    for banned in ("<COMP>", "<BOS>", "<EOS>"):
        assert banned not in text


def test_vanilla_equals_plain_greedy(trained_models):
    _cfg, _tool, vanilla = trained_models
    repo, pos = _blank_repo()
    desc = "def m(self): Return the stored x"
    text, trace = generate(vanilla, repo, desc, pos, GenerationConfig(tool_enabled=False))

    # plain greedy decoding oracle
    vocab = vanilla.vocab
    seq = [BOS_ID]
    for _ in range(256):
        tok = int(np.argmax(vanilla.predict(tokenize(desc, vocab), seq)))
        seq.append(tok)
        if tok == EOS_ID:
            break
    from mpgen.lm.tokenizer import detokenize
    from mpgen.lm.vocab import CONTROL_IDS

    expected = detokenize([t for t in seq if t not in CONTROL_IDS], vocab)
    assert text == expected
    assert trace.tool_invocations == 0


def test_cache_hit_on_repeated_receiver():
    src = (
        "class K:\n"
        "    def boot(self):\n"
        '        "Prepare"\n'
        "        self.ax = 1\n"
        "        self.bx = 2\n"
        "    def m(self):\n"
        '        "Sum both"\n'
        "        \n"
    )
    repo = Repository({"k.mp": src})
    pos = CaretPosition("k.mp", 8, 8)
    vocab = text_vocab(["return self.ax + self.bx", "<COMP>"])
    body = tokenize("return self.<COMP>ax + self.<COMP>bx", vocab)
    model = train([([], [BOS_ID] + body + [EOS_ID])] * 5, order=3, alpha=0.1, vocab=vocab)

    on, trace_on = generate(model, repo, "d", pos, GenerationConfig(cache_enabled=True))
    off, trace_off = generate(model, repo, "d", pos, GenerationConfig(cache_enabled=False))
    assert on == off
    assert trace_on.cache_hits >= 1
    assert trace_on.tool_invocations < trace_off.tool_invocations
    assert trace_off.cache_hits == 0
    assert trace_off.tool_invocations == trace_on.tool_invocations + trace_on.cache_hits


def test_generate_refuses_a_memo_of_another_model():
    repo, pos = _blank_repo()
    model = _member_trigger_model()
    # another model of the same vocabulary, as the vanilla model is the tool model's
    other = train([([], [BOS_ID, EOS_ID])] * 3, order=3, alpha=0.1, vocab=model.vocab)
    with pytest.raises(ValueError, match="another model"):
        generate(model, repo, "d", pos, GenerationConfig(), memo=DecisionMemo(other))
    text, _trace = generate(model, repo, "d", pos, GenerationConfig(), memo=DecisionMemo(model))
    assert text == "return self.x"


def test_generation_trace_tags_cover_all_tokens():
    repo, pos = _blank_repo()
    _text, trace = generate(_member_trigger_model(), repo, "d", pos, GenerationConfig())
    assert len(trace.tags) == len(trace.tokens) - 1  # BOS carries no tag
    assert set(trace.tags) <= {"model", "tool-selection"}


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(max_tokens=0)
