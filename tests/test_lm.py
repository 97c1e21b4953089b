import dataclasses
from collections import Counter
from math import log

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mpgen import pipeline
from mpgen.lm.ngram import (
    ModelCorruptError,
    ModelVersionError,
    description_bucket,
    load_model,
    save_model,
    train,
)
from mpgen.lm.tokenizer import detokenize, token_strings, tokenize
from mpgen.lm.vocab import (
    BOS_ID,
    COMP_ID,
    EOS_ID,
    RESERVED_TOKENS,
    STRUCTURE_TOKENS,
    UNK_ID,
    Vocab,
    build_vocab,
)
from mpgen.minilang import tokens as tk
from mpgen.minilang.parser import extract_functions, parse
from mpgen.minilang.render import render_tokens
from mpgen.minilang.tokens import LexToken
from mpgen.repo import Repository
from mpgen.trigger import load_dataset_records

from conftest import bucketed, text_vocab, version_1_payload
from oracles import (
    bump_train_tables,
    char_loop_split_identifier,
    fnv1a_bucket,
    text_corpus_vocab,
    words_spell_a_keyword,
)


# --- vocabulary --------------------------------------------------------------

def test_vocab_reserved_tokens_at_fixed_indices():
    v = text_vocab(["x = 1"])
    assert v.tokens[:4] == ("<BOS>", "<EOS>", "<UNK>", "<COMP>")
    assert v.tokens.index("<COMP>") == 3
    assert {"x", "=", "1"} <= set(v.tokens)


def test_vocab_comp_reserved_even_if_absent_from_corpus():
    v = text_vocab(["a"])
    assert v.tokens[COMP_ID] == "<COMP>"


def test_vocab_order_independent_of_file_order():
    texts = ["x = alpha", "y = beta + 1"]
    assert text_vocab(texts).tokens == text_vocab(reversed(texts)).tokens


def test_vocab_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocab([])


# --- tokenizer ---------------------------------------------------------------

def test_subword_split_underscores_and_case():
    # each underscore its own token; split at lower-to-upper transitions
    assert token_strings("_registered_updates") == ["_", "registered", "_", "updates"]
    assert token_strings("getValue") == ["get", "Value"]


def test_marker_text_maps_to_comp_id():
    v = text_vocab(["self"])
    assert tokenize("<COMP>self", v) == [COMP_ID, v.tokens.index("self")]


def test_tokenize_empty():
    v = text_vocab(["x"])
    assert tokenize("", v) == []


def test_unknown_subword_maps_to_unk():
    v = text_vocab(["x = 1"])
    assert tokenize("mystery", v) == [UNK_ID]


def test_detokenize_simple():
    v = text_vocab(["return 1"])
    assert detokenize(tokenize("return 1", v), v) == "return 1"


def test_detokenize_marker_alone():
    v = Vocab(tokens=RESERVED_TOKENS)
    assert detokenize([COMP_ID], v) == "<COMP>"


def test_detokenize_unknown_id_rejected():
    v = text_vocab(["x"])
    for bad in (10_000, v.size, -1):
        with pytest.raises(ValueError):
            detokenize([bad], v)


_KEYWORD_PIECES = sorted({k[i:j] for k in tk.KEYWORDS for i in range(len(k)) for j in range(i + 1, len(k) + 1)})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_KEYWORD_PIECES + ["x", "_", "1", "ss"]), max_size=8))
@example(["el", "se"])
@example(["i", "f", "else"])
def test_vocab_knows_whether_its_words_spell_a_keyword(words):
    """A keyword token is no word, so `else` alone spells nothing, while
    `el` and `se` spell `else`; the vocabulary agrees with the brute force
    over every way to cut every keyword."""
    vocab = Vocab(tokens=RESERVED_TOKENS + tuple(sorted(set(words))))
    assert vocab.words_spell_keyword == words_spell_a_keyword(vocab)


@pytest.mark.parametrize(
    "token,kind",
    [
        ("<COMP>", tk.MARKER), ("<UNK>", tk.MARKER), ("<NL>", tk.NEWLINE),
        ("<INDENT>", tk.INDENT), ("<DEDENT>", tk.DEDENT), ("return", tk.KEYWORD),
        ("==", tk.OPERATOR), ("=", tk.OPERATOR), ("(", tk.PUNCTUATOR), ("7", tk.NUMBER),
        ("1.5", tk.NUMBER), ('"s"', tk.STRING), ('"ab', tk.STRING), ("x", tk.IDENTIFIER),
        ("_", tk.IDENTIFIER), ("2a", tk.IDENTIFIER), ("$", tk.IDENTIFIER),
    ],
)
def test_vocab_gives_each_token_one_kind(token, kind):
    v = Vocab(tokens=tuple(dict.fromkeys(RESERVED_TOKENS + (token,))))
    assert v.item(v.tokens.index(token)) == (kind, token)


I, N, S, K, O, P = tk.IDENTIFIER, tk.NUMBER, tk.STRING, tk.KEYWORD, tk.OPERATOR, tk.PUNCTUATOR
E, M, NL, IN, DE = tk.ERROR, tk.MARKER, tk.NEWLINE, tk.INDENT, tk.DEDENT

# (kind, text) lexemes, their render_tokens text, and the detokenize text of
# the same spellings as model tokens, which the vocabulary classifies itself
# (None: the same text).
_RENDER_TABLE = [
    ("word-word", [(I, "get"), (I, "Value")], "getValue", None),
    ("subwords", [(I, "_"), (I, "registered"), (I, "_"), (I, "x")], "_registered_x", None),
    ("number-after-word", [(I, "x"), (N, "2")], "x2", None),
    ("word-after-number", [(N, "2"), (I, "x")], "2x", None),
    ("error-in-identifiers", [(I, "x"), (E, "$"), (I, "y")], "x$y", None),
    # an unterminated string lexes as an error token, a model token "ab as a string
    ("open-string-after-word", [(I, "x"), (E, '"ab')], 'x"ab', 'x "ab'),
    ("string-after-keyword", [(K, "return"), (S, '"s"')], 'return "s"', None),
    ("operator", [(I, "x"), (O, "=="), (N, "1")], "x == 1", None),
    (
        "call-punctuation",
        [(K, "def"), (I, "f"), (P, "("), (I, "a"), (P, ","), (I, "b"), (P, ")"), (P, ":")],
        "def f(a, b):",
        None,
    ),
    ("attribute", [(I, "self"), (P, "."), (I, "x"), (P, "."), (I, "y")], "self.x.y", None),
    ("call-after-attribute", [(I, "a"), (P, "."), (I, "f"), (P, "("), (P, ")")], "a.f()", None),
    ("marker-before-word", [(M, "<COMP>"), (I, "self")], "<COMP>self", None),
    ("marker-before-punctuator", [(M, "<COMP>"), (P, "(")], "<COMP>(", None),
    ("word-before-marker", [(I, "x"), (M, "<COMP>")], "x <COMP>", None),
    (
        "line-structure",
        [(I, "x"), (NL, ""), (IN, ""), (I, "y"), (NL, ""), (DE, ""), (I, "z"), (NL, "")],
        "x\n    y\nz",
        None,
    ),
]


@pytest.mark.parametrize(
    "items,rendered,detokenized", [row[1:] for row in _RENDER_TABLE], ids=[row[0] for row in _RENDER_TABLE]
)
def test_renderer_separator_table(items, rendered, detokenized):
    lexemes = [LexToken(kind, text, 1, col) for col, (kind, text) in enumerate(items)]
    assert render_tokens(lexemes) == rendered
    strs = [STRUCTURE_TOKENS.get(kind, text) for kind, text in items]
    vocab = Vocab(tokens=RESERVED_TOKENS + tuple(sorted(set(strs) - set(RESERVED_TOKENS))))
    got = detokenize([vocab.tokens.index(s) for s in strs], vocab)
    assert got == (rendered if detokenized is None else detokenized)


def test_round_trip_over_corpus_functions(corpus_repos):
    texts = []
    for _name, repo in corpus_repos:
        for path in repo.paths():
            texts.append(repo.text(path))
    v = text_vocab(texts)
    checked = 0
    for _name, repo in corpus_repos:
        for path in repo.paths():
            for fn in extract_functions(repo.module(path)):
                body = render_tokens(fn.body_tokens)
                assert detokenize(tokenize(body, v), v) == body
                checked += 1
    assert checked >= 200


def test_corpus_vocab_equals_the_text_by_text_vocab(demo_config, corpus_repos):
    """The vocabulary from the lexes the parses read equals the one from
    lexing every file text and description anew."""
    assert pipeline.corpus_vocab(demo_config).tokens == text_corpus_vocab(corpus_repos).tokens


# inserted at random offsets: lex errors, unterminated strings, marker texts,
# line breaks that move indentation, docstrings and identifiers to split
_CORPUS_EDITS = (
    "$", '"', '"open', "<COMP>", "<UNK>", "<BOS>", "<NL>", "<INDENT>", "\n", "\n    ",
    "\t", "  ", ":", "(", "def ", 'def f():\n    "a <COMP> doc $"\n', "x_yZ", "1.5", "\u00e9",
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_corpus_vocab_of_mutated_corpora_equals_the_text_by_text_vocab(demo_config, corpus_repos, data):
    """The same on one corpus repository with drawn edits in one or two files."""
    name, base = data.draw(st.sampled_from(corpus_repos))
    files = dict(base.files)
    for path in data.draw(st.lists(st.sampled_from(base.paths()), min_size=1, max_size=2, unique=True)):
        text = files[path]
        for _ in range(data.draw(st.integers(1, 8))):
            j = data.draw(st.integers(0, len(text)))
            text = text[:j] + data.draw(st.sampled_from(_CORPUS_EDITS)) + text[j:]
        files[path] = text
    repos = [(name, Repository(files))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "collect_repos", lambda roots: repos)
        got = pipeline.corpus_vocab(demo_config)
    assert got.tokens == text_corpus_vocab(repos).tokens


# --- n-gram model ------------------------------------------------------------
# --- n-gram model ------------------------------------------------------------

def _tiny_vocab(*texts):
    return text_vocab(list(texts))


def test_single_pair_puts_maximal_mass_on_observed_token():
    v = _tiny_vocab("a b")
    a = v.tokens.index("a")
    m = train([(0, [BOS_ID, a, EOS_ID])], order=2, alpha=0.1, vocab=v)
    dist = m.predict([], [BOS_ID])
    assert int(np.argmax(dist)) == a


def test_trigger_ranks_first_after_observed_contexts():
    # corpus where <COMP> always follows ["self", "."]
    v = _tiny_vocab("self . x <COMP>")
    ids = [v.tokens.index(t) for t in ("self", ".", "<COMP>", "x")]
    pairs = []
    for _ in range(20):
        pairs.append((0, [BOS_ID, ids[0], ids[1], ids[2], ids[3], EOS_ID]))
    m = train(pairs, order=3, alpha=0.1, vocab=v)
    dist = m.predict([], [BOS_ID, ids[0], ids[1]])
    assert int(np.argmax(dist)) == COMP_ID


def test_counts_dominate_smoothing():
    # context seen 9 times with next=a, once with next=b -> p(a) ~ 0.9
    v = _tiny_vocab("a b c")
    a, b, c = (v.tokens.index(t) for t in "abc")
    pairs = [(0, [BOS_ID, c, a, EOS_ID])] * 9 + [(0, [BOS_ID, c, b, EOS_ID])]
    m = train(pairs, order=2, alpha=1e-9, vocab=v)
    dist = m.predict([], [BOS_ID, c])
    assert abs(dist[a] - 0.9) < 1e-6
    assert abs(dist[b] - 0.1) < 1e-6


def test_untrained_model_uniform():
    v = _tiny_vocab("a b c d")
    m = train([(0, [BOS_ID, v.tokens.index("a"), EOS_ID])], order=2, alpha=0.1, vocab=v)
    m.tables.clear()
    m.pool.clear()
    dist = m.predict([], [BOS_ID])
    assert np.allclose(dist, 1.0 / v.size)


def test_distribution_normalization_and_trigger_support():
    v = _tiny_vocab("a b c d e f g")
    ids = [v.tokens.index(t) for t in "abcdefg"]
    pairs = [(description_bucket([ids[0]], v, 16), [BOS_ID] + ids + [EOS_ID])] * 3
    m = train(pairs, order=3, alpha=0.1, vocab=v)
    rng = np.random.RandomState(7)
    for _ in range(200):
        prefix = [BOS_ID] + [int(rng.choice(ids)) for _ in range(rng.randint(0, 5))]
        desc = [int(rng.choice(ids)) for _ in range(rng.randint(0, 4))]
        dist = np.asarray(m.predict(desc, prefix))
        assert abs(dist.sum() - 1.0) <= 1e-9
        assert dist[COMP_ID] > 0
        assert np.all(dist >= 0) and np.all(np.isfinite(dist))


def test_backoff_monotonicity():
    # removing a full-order context makes predict equal the next-shorter order
    v = _tiny_vocab("a b c d")
    a, b, c, d = (v.tokens.index(t) for t in "abcd")
    pairs = [(0, [BOS_ID, a, b, c, EOS_ID]), (0, [BOS_ID, b, c, d, EOS_ID])]
    m = train(pairs, order=3, alpha=0.1, vocab=v)
    shorter = train(pairs, order=2, alpha=0.1, vocab=v)
    prefix = [BOS_ID, a, b]
    # (a, b) -> c was seen once and (b,) -> c twice, so the order matters
    assert not np.array_equal(m.predict([], prefix), shorter.predict([], prefix))
    bucket = description_bucket([], v, m.buckets)
    ctx = (a, b)
    for table in (m.tables[bucket], m.pool):
        table.pop(ctx, None)
    np.testing.assert_array_equal(m.predict([], prefix), shorter.predict([], prefix))


def test_training_beats_uniform_nll():
    import math

    v = _tiny_vocab("a b c d e")
    ids = [v.tokens.index(t) for t in "abcde"]
    pairs = [(0, [BOS_ID] + ids + [EOS_ID])] * 5
    m = train(pairs, order=3, alpha=0.1, vocab=v)
    nll, n = m.corpus_nll(pairs)
    assert nll / n <= math.log(v.size)


def test_order_two_not_worse_than_unigram_on_training_set():
    v = _tiny_vocab("a b a c a b")
    a, b, c = (v.tokens.index(t) for t in "abc")
    pairs = [(0, [BOS_ID, a, b, a, c, a, b, EOS_ID])] * 2
    m1 = train(pairs, order=1, alpha=0.1, vocab=v)
    m2 = train(pairs, order=2, alpha=0.1, vocab=v)
    assert m2.corpus_nll(pairs)[0] <= m1.corpus_nll(pairs)[0] + 1e-12


def test_train_rejects_missing_bos_eos():
    v = _tiny_vocab("a")
    a = v.tokens.index("a")
    with pytest.raises(ValueError):
        train([(0, [a, EOS_ID])], order=2, alpha=0.1, vocab=v)
    with pytest.raises(ValueError):
        train([(0, [BOS_ID, a])], order=2, alpha=0.1, vocab=v)


@pytest.mark.parametrize("bucket", [-1, 2])
def test_train_rejects_a_bucket_out_of_range(bucket):
    v = _tiny_vocab("a")
    with pytest.raises(ValueError, match="out of range for 2 buckets"):
        train([(0, [BOS_ID, EOS_ID]), (bucket, [BOS_ID, EOS_ID])], order=2, alpha=0.1, vocab=v, buckets=2)


def test_description_conditioning_separates_buckets():
    v = _tiny_vocab("a b go left right")
    a, b = v.tokens.index("a"), v.tokens.index("b")
    d1 = [v.tokens.index("left")]
    d2 = [v.tokens.index("right")]
    assert description_bucket(d1, v, 16) != description_bucket(d2, v, 16)
    pairs = [(d1, [BOS_ID, a, EOS_ID])] * 5 + [(d2, [BOS_ID, b, EOS_ID])] * 5
    m = train(bucketed(pairs, v), order=2, alpha=0.1, vocab=v)
    assert int(np.argmax(m.predict(d1, [BOS_ID]))) == a
    assert int(np.argmax(m.predict(d2, [BOS_ID]))) == b


def test_next_counts_are_the_counts_predict_smooths():
    m, ids = _demo_model()
    bucket = description_bucket([ids[0], ids[1]], m.vocab, m.buckets)
    counts = m.next_counts(bucket, [BOS_ID, ids[0]])
    assert counts == {ids[1]: 4}
    dist = m.predict([ids[0], ids[1]], [BOS_ID, ids[0]])
    denom = 4 + 0.1 * m.vocab.size
    assert dist[ids[1]] == (0.1 + 4.0) / denom
    m.tables.clear()
    m.pool.clear()
    assert m.next_counts(bucket, [BOS_ID]) == {}


def test_train_rejects_non_positive_alpha():
    v = _tiny_vocab("a")
    for alpha in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            train([(0, [BOS_ID, EOS_ID])], order=2, alpha=alpha, vocab=v)


def test_train_tables_equal_the_bump_by_bump_tables(trained_models):
    config, tool, vanilla = trained_models
    records = load_dataset_records(config.dataset)
    for variant, model in (("tool", tool), ("vanilla", vanilla)):
        pairs = pipeline.training_pairs(records, model.vocab, variant)
        expected = bump_train_tables(pairs, model.order, model.vocab, model.buckets)
        assert (model.tables, model.pool) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_train_tables_of_drawn_pairs_equal_the_bump_by_bump_tables(tmp_path_factory, data):
    """Counting the bucket tables, with each description token hashed once,
    and deriving the global pool from them gives the tables and buckets of
    bump-by-bump counting, both after `train` and after a save and load,
    which rebuilds the pool from the saved bucket tables."""
    words = data.draw(st.lists(st.text("abé_Z", min_size=1, max_size=3), min_size=1, max_size=5, unique=True))
    vocab = Vocab(tokens=RESERVED_TOKENS + tuple(sorted(set(words))))
    ids = st.integers(2, vocab.size - 1)  # <UNK>, <COMP> and the words
    pairs = data.draw(st.lists(
        st.tuples(st.lists(ids, max_size=4), st.lists(ids, max_size=8)).map(
            lambda p: (p[0], [BOS_ID] + p[1] + [EOS_ID])
        ),
        min_size=1, max_size=6,
    ))
    order, buckets = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    model = train(bucketed(pairs, vocab, buckets), order=order, alpha=0.1, vocab=vocab, buckets=buckets)
    expected = bump_train_tables(pairs, order, vocab, buckets)
    assert (model.tables, model.pool) == expected
    path = str(tmp_path_factory.getbasetemp() / "drawn_model.json")
    save_model(model, path)
    loaded = load_model(path)
    assert (loaded.tables, loaded.pool) == expected
    for desc, _target in pairs:
        assert description_bucket(desc, vocab, buckets) == fnv1a_bucket(desc, vocab, buckets)


def test_hoisted_bucket_nll_is_bit_identical(trained_models):
    """sequence_nll and corpus_nll take the description's bucket, computed
    once per record, and read each step's context from the last order - 1
    ids; the sum must equal, bit for bit, the per-step
    predict(description, whole prefix) sum on every training pair of the
    bundled corpus."""
    from math import log

    from mpgen.pipeline import training_pairs
    from mpgen.trigger import load_dataset_records

    config, tool, vanilla = trained_models
    records = load_dataset_records(config.dataset)
    for variant, model in (("tool", tool), ("vanilla", vanilla)):
        pairs = training_pairs(records, model.vocab, variant)
        total, n_tokens = 0.0, 0
        for desc, target in pairs:
            nll = 0.0
            for i in range(1, len(target)):
                nll -= log(float(model.predict(desc, target[:i])[target[i]]))
            assert model.sequence_nll(description_bucket(desc, model.vocab, model.buckets), target) == nll
            total += nll
            n_tokens += len(target) - 1
        assert model.corpus_nll(bucketed(pairs, model.vocab, model.buckets)) == (total, n_tokens)


# The stats of `run_train` on the bundled corpus, as float.hex, from before
# the stage read each text once.
_TRAIN_STATS_BITS = {
    "tool": {
        "train_nll_per_token": "0x1.124a148c57368p+1",
        "uniform_nll_per_token": "0x1.9d6f1317b584ep+2",
        "perplexity": "0x1.10c49c4b02551p+3",
    },
    "vanilla": {
        "train_nll_per_token": "0x1.2a8d193ab6bf3p+1",
        "uniform_nll_per_token": "0x1.9d6f1317b584ep+2",
        "perplexity": "0x1.49b1d3d8019b8p+3",
    },
}


def test_train_stats_keep_their_bits(trained_models, tmp_path):
    config, _tool, _vanilla = trained_models
    _t, _v, stats = pipeline.run_train(dataclasses.replace(config, model_dir=str(tmp_path)))
    assert {v: {k: x.hex() for k, x in s.items()} for v, s in stats.items()} == _TRAIN_STATS_BITS


def test_reused_description_splits_equal_lexing_anew(trained_models):
    """corpus_vocab hands out each corpus description's split without
    changing the vocabulary, and the records' ids from those splits equal
    the ids of lexing every description anew, a description the corpus
    does not hold among them."""
    config, tool, _vanilla = trained_models
    descriptions = {}
    assert pipeline.corpus_vocab(config, descriptions=descriptions).tokens == tool.vocab.tokens
    assert all(split == token_strings(text) for text, split in descriptions.items())
    records = load_dataset_records(config.dataset)
    records.append({"description": "Return the kale twice", "augmented_body": "return kale"})
    assert records[-1]["description"] not in descriptions
    assert pipeline.tokenize_records(records, tool.vocab, descriptions) == pipeline.tokenize_records(
        records, tool.vocab
    )


def test_train_reads_each_text_once(trained_models, tmp_path, monkeypatch):
    """One run_train lexes each corpus file, each distinct corpus
    description and each record body once, computes each record's bucket
    once for both variants, and splits each distinct identifier once."""
    from mpgen.lm import ngram, tokenizer
    from mpgen.minilang import lexer, parser

    config, _tool, _vanilla = trained_models
    records = load_dataset_records(config.dataset)
    files = [
        repo.text(path)
        for _, repo in pipeline.collect_repos(config.train_roots + config.eval_roots)
        for path in repo.paths()
    ]
    descriptions = {
        f.description for text in files for f in extract_functions(parse(text)) if f.docstring is not None
    }
    bodies = [r["augmented_body"] for r in records]
    assert (len(files), len(descriptions), len(bodies)) == (60, 405, 294)
    lexed, buckets = [], []
    real_lex, real_bucket = lexer.lex, ngram.description_bucket

    def counting_lex(text):
        lexed.append(text)
        return real_lex(text)

    def counting_bucket(*args):
        buckets.append(args)
        return real_bucket(*args)

    for module in (lexer, parser, tokenizer):
        monkeypatch.setattr(module, "lex", counting_lex)
    for module in (ngram, pipeline):
        monkeypatch.setattr(module, "description_bucket", counting_bucket)
    tokenizer.split_identifier.cache_clear()
    pipeline.run_train(dataclasses.replace(config, model_dir=str(tmp_path)))
    split = tokenizer.split_identifier.cache_info()

    assert len(buckets) == len(records) == 294
    assert len(lexed) == 759
    assert Counter(lexed) == Counter(files) + Counter(descriptions) + Counter(bodies)
    identifiers = {
        t.text for text in lexed for t in real_lex(text)[0] if t.kind == tk.IDENTIFIER
    }
    assert split.misses == len(identifiers) == split.currsize == 777


def _nll_case(bodies, targets, forget=(), order=2):
    """One-bucket model over the words 4 and 5, trained on `bodies`, with
    the contexts in `forget` removed, and (description ids, target) pairs of
    `targets`."""
    vocab = Vocab(tokens=RESERVED_TOKENS + ("w0", "w1"))
    m = train([(0, [BOS_ID] + b + [EOS_ID]) for b in bodies], order=order, alpha=0.1, vocab=vocab, buckets=1)
    for ctx in forget:
        for table in (m.tables[0], m.pool):
            table.pop(ctx, None)
    return m, [([], [BOS_ID] + t + [EOS_ID]) for t in targets]


@st.composite
def nll_cases(draw):
    """A small random model with some contexts removed, and random targets.

    The targets are drawn independently of the training pairs, so next
    tokens unseen in their context are common, and the removed contexts
    leave some prefixes with no matching context at all.
    """
    vocab = Vocab(tokens=RESERVED_TOKENS + tuple(f"w{i}" for i in range(draw(st.integers(1, 4)))))
    ids = st.integers(2, vocab.size - 1)  # <UNK>, <COMP> and the words
    pair = st.tuples(st.lists(ids, max_size=2), st.lists(ids, max_size=6)).map(
        lambda p: (p[0], [BOS_ID] + p[1] + [EOS_ID])
    )
    buckets = draw(st.sampled_from([1, 3]))
    m = train(
        bucketed(draw(st.lists(pair, min_size=1, max_size=5)), vocab, buckets),
        order=draw(st.integers(1, 3)),
        alpha=draw(st.sampled_from([0.1, 1.0, 1e-6, 2.5])),
        vocab=vocab,
        buckets=buckets,
    )
    for table in [*m.tables.values(), m.pool]:
        for ctx in sorted(table):
            if draw(st.booleans()):
                del table[ctx]
    return m, draw(st.lists(pair, min_size=1, max_size=4))


def _dense_nll(model, desc, target):
    nll = 0.0
    for i in range(1, len(target)):
        nll -= log(float(model.predict(desc, target[:i])[target[i]]))
    return nll


@settings(max_examples=300, deadline=None)
@given(nll_cases())
# w1 never follows <BOS>, and after w1 no context is left at any length
@example(_nll_case([[4]], [[5, 4]], forget=[()]))
# order 1: every step's context window is empty
@example(_nll_case([[4, 5], [5]], [[5, 4, 4]], order=1))
# order 5: both targets are shorter than order - 1, so no step's window is full
@example(_nll_case([[4, 5, 4, 5]], [[], [4]], order=5))
def test_count_nll_equals_dense_predict_nll(case):
    """sequence_nll reads the counts of the last order - 1 ids, not the
    dense vector of the whole prefix; it must still equal the per-step
    predict sum bit for bit, whichever branch each step takes: observed next
    token, unseen next token, or no matching context."""
    model, pairs = case
    total = 0.0
    for desc, target in pairs:
        nll = _dense_nll(model, desc, target)
        assert model.sequence_nll(description_bucket(desc, model.vocab, model.buckets), target) == nll
        total += nll
    assert model.corpus_nll(bucketed(pairs, model.vocab, model.buckets))[0] == total


def test_nll_example_hits_both_branches():
    model, [(_desc, target)] = _nll_case([[4]], [[5, 4]], forget=[()])
    assert 5 not in model.next_counts(0, target[:1])
    assert model.next_counts(0, target[:2]) == {}


def test_nll_examples_reach_order_1_and_short_targets():
    unigram, _pairs = _nll_case([[4, 5], [5]], [[5, 4, 4]], order=1)
    assert unigram.tables[0].keys() == {()}
    long, pairs = _nll_case([[4, 5, 4, 5]], [[], [4]], order=5)
    assert [len(target) for _desc, target in pairs] == [2, 3]
    assert all(len(target) < long.order - 1 for _desc, target in pairs)


# --- persistence -------------------------------------------------------------

def _demo_model():
    v = _tiny_vocab("a b c d e f")
    ids = [v.tokens.index(t) for t in "abcdef"]
    pairs = [([ids[0], ids[1]], [BOS_ID] + ids + [EOS_ID])] * 4
    return train(bucketed(pairs, v), order=3, alpha=0.1, vocab=v), ids


def test_save_load_round_trip_bitwise_equal_predictions(tmp_path):
    m, ids = _demo_model()
    path = str(tmp_path / "m.json")
    save_model(m, path)
    m2 = load_model(path)
    rng = np.random.RandomState(3)
    for _ in range(50):
        prefix = [BOS_ID] + [int(rng.choice(ids)) for _ in range(rng.randint(0, 4))]
        desc = [int(rng.choice(ids)) for _ in range(rng.randint(0, 3))]
        np.testing.assert_array_equal(m.predict(desc, prefix), m2.predict(desc, prefix))


def test_training_twice_gives_identical_bytes(tmp_path):
    m1, _ = _demo_model()
    m2, _ = _demo_model()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(m1, p1)
    save_model(m2, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_truncated_file_is_corrupt(tmp_path):
    m, _ = _demo_model()
    path = str(tmp_path / "m.json")
    save_model(m, path)
    data = open(path, "rb").read()
    open(path, "wb").write(data[: len(data) // 2])
    with pytest.raises(ModelCorruptError):
        load_model(path)


def test_version_bump_is_version_error(tmp_path):
    """A later version, and version 1, whose files also stored the global
    pool, are rejected; an old model is retrained, not converted."""
    import json

    m, _ = _demo_model()
    path = str(tmp_path / "m.json")
    save_model(m, path)
    payload = json.load(open(path))
    v1 = version_1_payload(payload)
    assert any(key.startswith("-1:") for key in v1["tables"])
    for written in ({**payload, "version": 99}, v1):
        json.dump(written, open(path, "w"))
        with pytest.raises(ModelVersionError, match=f"version {written['version']} unsupported"):
            load_model(path)


def test_saved_model_holds_bucket_tables_only_and_rejects_a_global_table(tmp_path):
    """The global pool is derived at load, so a file that stores one is corrupt."""
    import json

    m, _ = _demo_model()
    path = str(tmp_path / "m.json")
    save_model(m, path)
    payload = json.load(open(path))
    assert "variant" not in payload and payload["version"] == 2
    assert payload["tables"] and not any(key.startswith("-1:") for key in payload["tables"])
    payload["tables"] = version_1_payload(payload)["tables"]
    json.dump(payload, open(path, "w"))
    with pytest.raises(ModelCorruptError, match="table key '-1:[0-9]' out of range"):
        load_model(path)


def test_non_positive_alpha_is_corrupt(tmp_path):
    import json

    m, _ = _demo_model()
    path = str(tmp_path / "m.json")
    save_model(m, path)
    payload = json.load(open(path))
    payload["alpha"] = 0.0
    json.dump(payload, open(path, "w"))
    with pytest.raises(ModelCorruptError):
        load_model(path)


def test_non_model_file_is_corrupt(tmp_path):
    path = str(tmp_path / "m.json")
    open(path, "w").write('{"hello": 1}')
    with pytest.raises(ModelCorruptError):
        load_model(path)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from("ab_cd"), min_size=0, max_size=12))
def test_identifier_subword_concatenation_recovers_text(chars):
    name = "x" + "".join(chars)
    from mpgen.lm.tokenizer import split_identifier

    assert "".join(split_identifier(name)) == name


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True))
def test_memoized_split_equals_the_character_loop(name):
    """The memoized split of an identifier is the per-character loop's, and
    a tuple, so a caller cannot alter what the memo hands the next one."""
    from mpgen.lm.tokenizer import split_identifier

    split = split_identifier(name)
    assert type(split) is tuple
    assert list(split) == char_loop_split_identifier(name)
    assert split_identifier(name) is split
