import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpgen.lm import (
    ModelCorruptError,
    ModelVersionError,
    build_vocab,
    detokenize,
    load_model,
    save_model,
    token_strings,
    tokenize,
    train,
)
from mpgen.lm.ngram import description_bucket
from mpgen.lm.vocab import BOS_ID, COMP_ID, EOS_ID, UNK_ID, RESERVED_TOKENS, Vocab
from mpgen.minilang.parser import extract_functions
from mpgen.minilang.render import render_body


# --- vocabulary --------------------------------------------------------------

def test_vocab_reserved_tokens_at_fixed_indices():
    v = build_vocab(["x = 1"])
    assert v.tokens[:4] == ("<BOS>", "<EOS>", "<UNK>", "<COMP>")
    assert v.id_strict("<COMP>") == 3
    assert {"x", "=", "1"} <= set(v.tokens)


def test_vocab_comp_reserved_even_if_absent_from_corpus():
    v = build_vocab(["a"])
    assert v.tokens[COMP_ID] == "<COMP>"


def test_vocab_order_independent_of_file_order():
    texts = ["x = alpha", "y = beta + 1"]
    assert build_vocab(texts).tokens == build_vocab(reversed(texts)).tokens


def test_vocab_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_vocab([])


# --- tokenizer ---------------------------------------------------------------

def test_subword_split_underscores_and_case():
    # each underscore its own token; split at lower-to-upper transitions
    assert token_strings("_registered_updates") == ["_", "registered", "_", "updates"]
    assert token_strings("getValue") == ["get", "Value"]


def test_marker_text_maps_to_comp_id():
    v = build_vocab(["self"])
    assert tokenize("<COMP>self", v) == [COMP_ID, v.id_strict("self")]


def test_tokenize_empty():
    v = build_vocab(["x"])
    assert tokenize("", v) == []


def test_unknown_subword_maps_to_unk():
    v = build_vocab(["x = 1"])
    assert tokenize("mystery", v) == [UNK_ID]


def test_detokenize_simple():
    v = build_vocab(["return 1"])
    assert detokenize(tokenize("return 1", v), v) == "return 1"


def test_detokenize_marker_alone():
    v = Vocab(tokens=RESERVED_TOKENS)
    assert detokenize([COMP_ID], v) == "<COMP>"


def test_detokenize_unknown_id_rejected():
    v = build_vocab(["x"])
    with pytest.raises(ValueError):
        detokenize([10_000], v)


def test_round_trip_over_corpus_functions(corpus_repos):
    texts = []
    for _name, repo in corpus_repos:
        for path in repo.paths():
            texts.append(repo.text(path))
    v = build_vocab(texts)
    checked = 0
    for _name, repo in corpus_repos:
        for path in repo.paths():
            for fn in extract_functions(repo.module(path)):
                body = render_body(fn.body_tokens)
                assert detokenize(tokenize(body, v), v) == body
                checked += 1
    assert checked >= 200


# --- n-gram model ------------------------------------------------------------

def _tiny_vocab(*texts):
    return build_vocab(list(texts))


def test_single_pair_puts_maximal_mass_on_observed_token():
    v = _tiny_vocab("a b")
    a = v.id_strict("a")
    m = train([([], [BOS_ID, a, EOS_ID])], order=2, alpha=0.1, vocab=v)
    dist = m.predict([], [BOS_ID])
    assert int(np.argmax(dist)) == a


def test_trigger_ranks_first_after_observed_contexts():
    # corpus where <COMP> always follows ["self", "."]
    v = _tiny_vocab("self . x <COMP>")
    ids = [v.id_strict(t) for t in ("self", ".", "<COMP>", "x")]
    pairs = []
    for _ in range(20):
        pairs.append(([], [BOS_ID, ids[0], ids[1], ids[2], ids[3], EOS_ID]))
    m = train(pairs, order=3, alpha=0.1, vocab=v)
    dist = m.predict([], [BOS_ID, ids[0], ids[1]])
    assert int(np.argmax(dist)) == COMP_ID


def test_counts_dominate_smoothing():
    # context seen 9 times with next=a, once with next=b -> p(a) ~ 0.9
    v = _tiny_vocab("a b c")
    a, b, c = (v.id_strict(t) for t in "abc")
    pairs = [([], [BOS_ID, c, a, EOS_ID])] * 9 + [([], [BOS_ID, c, b, EOS_ID])]
    m = train(pairs, order=2, alpha=1e-9, vocab=v)
    dist = m.predict([], [BOS_ID, c])
    assert abs(dist[a] - 0.9) < 1e-6
    assert abs(dist[b] - 0.1) < 1e-6


def test_untrained_model_uniform():
    v = _tiny_vocab("a b c d")
    m = train([([], [BOS_ID, v.id_strict("a"), EOS_ID])], order=2, alpha=0.1, vocab=v)
    m.tables.clear()
    m.totals.clear()
    dist = m.predict([], [BOS_ID])
    assert np.allclose(dist, 1.0 / v.size)


def test_distribution_normalization_and_trigger_support():
    v = _tiny_vocab("a b c d e f g")
    ids = [v.id_strict(t) for t in "abcdefg"]
    pairs = [([ids[0]], [BOS_ID] + ids + [EOS_ID])] * 3
    m = train(pairs, order=3, alpha=0.1, vocab=v)
    rng = np.random.RandomState(7)
    for _ in range(200):
        prefix = [BOS_ID] + [int(rng.choice(ids)) for _ in range(rng.randint(0, 5))]
        desc = [int(rng.choice(ids)) for _ in range(rng.randint(0, 4))]
        dist = m.predict(desc, prefix)
        assert abs(dist.sum() - 1.0) <= 1e-9
        assert dist[COMP_ID] > 0
        assert np.all(dist >= 0) and np.all(np.isfinite(dist))


def test_backoff_monotonicity():
    # removing a full-order context makes predict equal the next-shorter order
    v = _tiny_vocab("a b c d")
    a, b, c, d = (v.id_strict(t) for t in "abcd")
    pairs = [([], [BOS_ID, a, b, c, EOS_ID]), ([], [BOS_ID, b, c, d, EOS_ID])]
    m = train(pairs, order=3, alpha=0.1, vocab=v)
    prefix = [BOS_ID, a, b]
    bucket = description_bucket([], v, m.buckets)
    ctx = (a, b)
    for bk in (bucket, -1):
        m.tables.get((bk, 2), {}).pop(ctx, None)
        m.totals.get((bk, 2), {}).pop(ctx, None)
    np.testing.assert_array_equal(m.predict([], prefix), m.predict([], prefix, max_order=2))


def test_training_beats_uniform_nll():
    import math

    v = _tiny_vocab("a b c d e")
    ids = [v.id_strict(t) for t in "abcde"]
    pairs = [([], [BOS_ID] + ids + [EOS_ID])] * 5
    m = train(pairs, order=3, alpha=0.1, vocab=v)
    nll, n = m.corpus_nll(pairs)
    assert nll / n <= math.log(v.size)


def test_order_two_not_worse_than_unigram_on_training_set():
    v = _tiny_vocab("a b a c a b")
    a, b, c = (v.id_strict(t) for t in "abc")
    pairs = [([], [BOS_ID, a, b, a, c, a, b, EOS_ID])] * 2
    m1 = train(pairs, order=1, alpha=0.1, vocab=v)
    m2 = train(pairs, order=2, alpha=0.1, vocab=v)
    assert m2.corpus_nll(pairs)[0] <= m1.corpus_nll(pairs)[0] + 1e-12


def test_train_rejects_missing_bos_eos():
    v = _tiny_vocab("a")
    a = v.id_strict("a")
    with pytest.raises(ValueError):
        train([([], [a, EOS_ID])], order=2, alpha=0.1, vocab=v)
    with pytest.raises(ValueError):
        train([([], [BOS_ID, a])], order=2, alpha=0.1, vocab=v)


def test_description_conditioning_separates_buckets():
    v = _tiny_vocab("a b go left right")
    a, b = v.id_strict("a"), v.id_strict("b")
    d1 = [v.id_strict("left")]
    d2 = [v.id_strict("right")]
    assert description_bucket(d1, v, 16) != description_bucket(d2, v, 16)
    pairs = [(d1, [BOS_ID, a, EOS_ID])] * 5 + [(d2, [BOS_ID, b, EOS_ID])] * 5
    m = train(pairs, order=2, alpha=0.1, vocab=v)
    assert int(np.argmax(m.predict(d1, [BOS_ID]))) == a
    assert int(np.argmax(m.predict(d2, [BOS_ID]))) == b


def test_next_counts_are_the_counts_predict_smooths():
    m, ids = _demo_model()
    bucket = description_bucket([ids[0], ids[1]], m.vocab, m.buckets)
    counts = m.next_counts(bucket, [BOS_ID, ids[0]])
    assert counts == {ids[1]: 4}
    dist = m.predict([ids[0], ids[1]], [BOS_ID, ids[0]], bucket=bucket)
    denom = 4 + 0.1 * m.vocab.size
    assert dist[ids[1]] == (0.1 + 4.0) / denom
    m.tables.clear()
    m.totals.clear()
    assert m.next_counts(bucket, [BOS_ID]) == {}


def test_train_rejects_non_positive_alpha():
    v = _tiny_vocab("a")
    for alpha in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            train([([], [BOS_ID, EOS_ID])], order=2, alpha=alpha, vocab=v)


def test_hoisted_bucket_nll_is_bit_identical(trained_models):
    """sequence_nll/corpus_nll compute the bucket once per description; the
    sum must equal, bit for bit, the per-step predict(description, prefix)
    sum on every training pair of the bundled corpus."""
    from math import log

    from mpgen.pipeline import training_pairs
    from mpgen.trigger import load_dataset_records

    config, tool, vanilla = trained_models
    records = load_dataset_records(config.dataset)
    for model in (tool, vanilla):
        pairs = training_pairs(records, model.vocab, model.variant)
        total, n_tokens = 0.0, 0
        for desc, target in pairs:
            nll = 0.0
            for i in range(1, len(target)):
                nll -= log(float(model.predict(desc, target[:i])[target[i]]))
            assert model.sequence_nll(desc, target) == nll
            total += nll
            n_tokens += len(target) - 1
        assert model.corpus_nll(pairs) == (total, n_tokens)


# --- persistence -------------------------------------------------------------

def _demo_model():
    v = _tiny_vocab("a b c d e f")
    ids = [v.id_strict(t) for t in "abcdef"]
    pairs = [([ids[0], ids[1]], [BOS_ID] + ids + [EOS_ID])] * 4
    return train(pairs, order=3, alpha=0.1, vocab=v), ids


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
    import json

    m, _ = _demo_model()
    path = str(tmp_path / "m.json")
    save_model(m, path)
    payload = json.load(open(path))
    payload["version"] = 99
    json.dump(payload, open(path, "w"))
    with pytest.raises(ModelVersionError):
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
