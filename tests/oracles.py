"""Independent brute-force oracles used by the unit and acceptance suites.

Everything here recomputes results straight from definitions, sharing no
code path with the implementations it checks.
"""

import math
import random

import numpy as np

from mpgen.lm import build_vocab, train
from mpgen.lm.tokenizer import split_identifier
from mpgen.lm.vocab import BOS_ID, COMP_ID, EOS_ID


def naive_levenshtein(a: str, b: str) -> int:
    rows = [[i + j if i * j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            rows[i][j] = min(
                rows[i - 1][j] + 1,
                rows[i][j - 1] + 1,
                rows[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return rows[len(a)][len(b)]


def naive_edit_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 100.0
    return 100.0 * (1 - naive_levenshtein(a, b) / max(len(a), len(b)))


def naive_bleu(token_pairs) -> float:
    """Slow recount of corpus BLEU straight from the definition."""
    pred_len = sum(len(p) for p, _ in token_pairs)
    gt_len = sum(len(g) for _, g in token_pairs)
    if pred_len == 0:
        return 0.0
    log_sum, orders = 0.0, 0
    for n in range(1, 5):
        total = 0
        matches = 0
        for p, g in token_pairs:
            p_grams = [tuple(p[i : i + n]) for i in range(len(p) - n + 1)]
            g_grams = [tuple(g[i : i + n]) for i in range(len(g) - n + 1)]
            total += len(p_grams)
            for gram in set(p_grams):
                matches += min(p_grams.count(gram), g_grams.count(gram))
        if total == 0:
            continue
        p_n = matches / total if matches else 1.0 / (2.0 * total)
        log_sum += math.log(p_n)
        orders += 1
    if orders == 0:
        return 0.0
    bp = 1.0 if pred_len > gt_len else math.exp(1.0 - gt_len / pred_len)
    return bp * math.exp(log_sum / orders)


def naive_dep_cov(dep_exp_sets):
    covered = sum(len(e & d) for e, d in dep_exp_sets)
    total = sum(len(d) for _, d in dep_exp_sets)
    return covered / total if total else None


def mask_distribution(dist: np.ndarray, allowed) -> np.ndarray:
    """Zero every entry outside `allowed`; no renormalization (argmax only)."""
    idx = sorted(allowed)
    if not idx:
        raise ValueError("allowed index set must not be empty")
    out = np.zeros_like(dist)
    out[idx] = dist[idx]
    return out


def argmax(vocab, dist: np.ndarray) -> int:
    """Index of the maximum entry of a dense distribution; ties break low."""
    if len(dist) != vocab.size:
        raise ValueError("distribution size does not match vocabulary")
    best = int(np.argmax(dist))
    if dist[best] <= 0.0:
        raise ValueError("cannot take the argmax of an all-zero distribution")
    return best


def dense_next_token(model, desc, prefix, excluded=(BOS_ID,)) -> int:
    """Greedy outer-loop choice from the full predicted distribution."""
    dist = model.predict(desc, prefix)
    dist[list(excluded)] = 0.0
    return argmax(model.vocab, dist)


def dense_path_walk(model, desc, prefix, paths):
    """Constrained greedy walk over plain token paths, by dense argmax.

    Structure-free reimplementation of the trie walk: candidate paths are
    plain tuples, the walk stops as soon as the chosen prefix equals a
    complete path (first-terminal rule).
    """
    paths = sorted({tuple(p) for p in paths})
    path_set = set(paths)
    work = list(prefix)
    chosen = ()
    while chosen not in path_set:
        depth = len(chosen)
        allowed = {p[depth] for p in paths if len(p) > depth and p[:depth] == chosen}
        tok = argmax(model.vocab, mask_distribution(model.predict(desc, work), allowed))
        chosen += (tok,)
        work.append(tok)
    return list(chosen)


def greedy_path_oracle(model, desc, prefix, suggestions, vocab):
    """Dense constrained walk over the suggestions' subword token paths."""
    paths = [[vocab.id(s) for s in split_identifier(sug)] for sug in suggestions]
    return dense_path_walk(model, desc, prefix, paths)


def random_selection_case(rng: random.Random):
    """A random (model, description, prefix, suggestions, vocab) tuple.

    Suggestion subwords are drawn from the vocabulary-building corpus, the
    way the pipeline guarantees coverage for real completion lists.
    """
    words = ["al", "be", "cu", "do", "el", "fo", "gi", "hu", "iv", "jo"]
    n_sug = rng.randint(1, 12)
    suggestions = set()
    while len(suggestions) < n_sug:
        parts = [rng.choice(words) for _ in range(rng.randint(1, 3))]
        name = ("_" if rng.random() < 0.5 else "") + "_".join(parts)
        suggestions.add(name)
    suggestions = sorted(suggestions)
    vocab = build_vocab([" ".join(words)] + list(suggestions))
    ids = list(range(4, vocab.size))
    pairs = []
    for _ in range(rng.randint(1, 6)):
        body = [rng.choice(ids) for _ in range(rng.randint(1, 8))]
        desc = [rng.choice(ids) for _ in range(rng.randint(0, 3))]
        pairs.append((desc, [BOS_ID] + body + [EOS_ID]))
    model = train(pairs, order=rng.choice([2, 3]), alpha=0.1, vocab=vocab)
    desc = [rng.choice(ids) for _ in range(rng.randint(0, 3))]
    prefix = [BOS_ID] + [rng.choice(ids) for _ in range(rng.randint(0, 5))] + [COMP_ID]
    return model, desc, prefix, suggestions, vocab
