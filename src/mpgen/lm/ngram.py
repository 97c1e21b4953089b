"""Description-conditioned backoff n-gram model with additive smoothing.

Training is maximum-likelihood counting: for every position in every target
the (context -> next token) count is incremented at every order up to n-1,
in the description's hash bucket, whose one table holds contexts of every
length. The global pool, which prediction falls back to across buckets, is
a table of its own, the sum of the bucket tables; `_pool` derives it, after
`train` counts and after `load_model` reads, so a model file stores each
count once. A description's bucket sums the FNV-1a hashes of its tokens,
and each token is hashed once per process (`_fnv1a` is memoized).

Prediction finds the longest context with counts inside the description's
bucket, falling back order by order and finally across buckets; the counts
are additively smoothed over the whole vocabulary, so every token (the
trigger token included) always has positive probability and the result sums
to one.

The model stores only the counts; a context's total is summed from them
where it is read. `next_counts` returns the counts of the longest matching
context of the full order, and everything else is computed from them: greedy
decoding takes its argmax straight from the counts, `sequence_nll` smooths
the one count it scores, and `predict` builds the dense distribution, a
plain list indexed by token id. No production path calls `predict`: it is
the reference the other two agree with bit for bit, and the module needs no
numpy. `next_counts`, `sequence_nll` and `corpus_nll` take the
description's bucket, and `train` takes (bucket, target) pairs, so a caller
computes each description's bucket once, however many prefixes, variants or
passes read it; `predict`, the reference, takes the description's ids.
`sequence_nll` looks up each step's context from the last `order - 1` ids
before it, not the whole prefix.

A model file keeps one table per bucket and context length, keyed
`bucket:length`; loading merges a bucket's tables into its one table.
`load_model` checks the layout a model file brings in from outside: the
vocabulary opens with the reserved tokens in id order and repeats no entry,
the order and bucket count are integers of at least 1, alpha is a finite
number above 0, every table key, context and token id is in range, so no
count can name a token the vocabulary lacks, no context or token id is
written twice (`"0,4"` and `"00,4"` are one context), and every count is an
integer of at least 1. The order, buckets and alpha follow the type rules
`RunConfig` applies to the same fields. A file holds bucket tables only: a
global table in it is out of range, and a version-1 file, which held one, is
rejected as an unsupported version (retrain it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from math import inf, log
from typing import Iterable, Optional, Sequence

from .. import DataError, quote, read_json
from .._kernels import smoothed_distribution
from .vocab import BOS_ID, EOS_ID, RESERVED_TOKENS, Vocab

FORMAT_NAME = "mpgen-ngram"
FORMAT_VERSION = 2


@cache
def _fnv1a(text: str) -> int:
    """32-bit FNV-1a of a token's UTF-8 bytes. Memoized: its inputs are
    vocabulary tokens, so the memo holds at most the vocabularies loaded."""
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


def description_bucket(description_ids: Sequence[int], vocab: Vocab, buckets: int) -> int:
    """Bag-of-subwords hash bucket; order-independent by construction."""
    return (sum(_fnv1a(vocab.token(i)) for i in description_ids) & 0xFFFFFFFF) % buckets


@dataclass
class NGramModel:
    vocab: Vocab
    order: int
    alpha: float
    buckets: int
    # bucket -> {context tuple -> {token id -> count}}, contexts of every length
    tables: dict[int, dict[tuple[int, ...], dict[int, int]]] = field(default_factory=dict)
    # context tuple -> {token id -> count}: the sum of the bucket tables
    pool: dict[tuple[int, ...], dict[int, int]] = field(default_factory=dict)

    def next_counts(self, bucket: int, prefix: Sequence[int]) -> dict[int, int]:
        """Next-token counts of the longest matching context, at most order - 1 long.

        The bucket's table is preferred over the global pool, but context
        length dominates conditioning specificity: an order is only shortened
        once neither the bucket's table nor the pool has the context at the
        current length. Empty when no context matches, i.e. the distribution
        is pure smoothing. The dict is the model's own row: do not mutate it.
        """
        tables = (self.tables.get(bucket, {}), self.pool)
        for k in range(min(self.order - 1, len(prefix)), -1, -1):
            ctx = tuple(prefix[len(prefix) - k:])
            for table in tables:
                counts = table.get(ctx)
                if counts is not None:
                    return counts
        return {}

    def predict(self, description: Sequence[int], prefix: Sequence[int]) -> list[float]:
        """Smoothed next-token distribution over the full vocabulary, by token id."""
        bucket = description_bucket(description, self.vocab, self.buckets)
        counts = self.next_counts(bucket, prefix)
        return smoothed_distribution(self.vocab.size, counts, self.alpha)

    def sequence_nll(self, bucket: int, target: Sequence[int], rows: Optional[dict] = None) -> float:
        """Negative log-likelihood of a <BOS>...<EOS> target, in nats, in the
        description's bucket.

        Each step reads only the target token's probability, with the float
        operations `smoothed_distribution` uses for that entry. rows, when
        given, maps each (bucket, *context window) read to its counts and
        their smoothed total, so a caller scoring many targets (`corpus_nll`)
        looks up and sums each window's row once.
        """
        rows = {} if rows is None else rows
        alpha = float(self.alpha)
        smoothing = alpha * self.vocab.size
        n = self.order - 1  # the longest context; at order 1 every window is empty
        nll = 0.0
        for i in range(1, len(target)):
            key = (bucket, *target[max(0, i - n):i])
            row = rows.get(key)
            if row is None:
                counts = self.next_counts(bucket, key[1:])
                row = rows[key] = (counts, float(sum(counts.values())) + smoothing)
            nll -= log((alpha + row[0].get(target[i], 0)) / row[1])
        return nll

    def corpus_nll(self, dataset: Iterable[tuple[int, Sequence[int]]]) -> tuple[float, int]:
        """Summed NLL and scored token count of (bucket, target) pairs."""
        rows: dict[tuple, tuple] = {}
        total = 0.0
        n_tokens = 0
        for bucket, target in dataset:
            total += self.sequence_nll(bucket, target, rows)
            n_tokens += len(target) - 1
        return total, n_tokens


def train(
    dataset: Sequence[tuple[int, Sequence[int]]],
    order: int,
    alpha: float,
    vocab: Vocab,
    buckets: int = 16,
) -> NGramModel:
    """Count-based maximum-likelihood training over (bucket, target) pairs,
    each bucket its description's `description_bucket`."""
    if not dataset:
        raise ValueError("training dataset is empty")
    if not alpha > 0:
        raise ValueError("smoothing alpha must be positive")
    tables: dict = {}
    for bucket, target in dataset:
        if not target or target[0] != BOS_ID or target[-1] != EOS_ID:
            raise ValueError("every target sequence must begin <BOS> and end <EOS>")
        if not 0 <= bucket < buckets:
            raise ValueError(f"bucket {bucket!r} is out of range for {buckets} buckets")
        table = tables.setdefault(bucket, {})
        for i in range(1, len(target)):
            tok = target[i]
            for k in range(min(order, i + 1)):
                counts = table.setdefault(tuple(target[i - k:i]), {})
                counts[tok] = counts.get(tok, 0) + 1
    return NGramModel(
        vocab=vocab, order=order, alpha=alpha, buckets=buckets, tables=tables, pool=_pool(tables)
    )


def _pool(tables: dict) -> dict:
    """The global pool of bucket tables: each context's rows, summed over
    the buckets."""
    pool: dict = {}
    for table in tables.values():
        for ctx, row in table.items():
            counts = pool.setdefault(ctx, {})
            for tok, c in row.items():
                counts[tok] = counts.get(tok, 0) + c
    return pool


def _tables_to_json(model: NGramModel) -> dict:
    out: dict[str, dict] = {}
    for bucket, table in model.tables.items():
        for ctx, counts in table.items():
            key = ",".join(str(i) for i in ctx)
            out.setdefault(f"{bucket}:{len(ctx)}", {})[key] = {str(t): c for t, c in counts.items()}
    return out


def _tables_from_json(data: dict, order: int, buckets: int, vocab_size: int) -> dict:
    """The bucket tables of a model file, each bucket's `bucket:length`
    tables merged into one; raises ValueError on a table key, context or
    token id out of range for the model's order, buckets and vocabulary, on
    a context given twice in one bucket (`"0,4"` and `"00,4"`), on a token
    id given twice in one row (`"1"` and `"01"`), and on a count that is not
    an integer (a bool is not one) or is below 1."""
    ids = frozenset(range(vocab_size))
    tables: dict = {}
    for bk, ctxs in data.items():
        bucket_s, k_s = bk.split(":")
        bucket, k = int(bucket_s), int(k_s)
        if not (0 <= bucket < buckets and 0 <= k < order):
            raise ValueError(f"table key {quote(bk)} out of range")
        table = tables.setdefault(bucket, {})
        for ctx_s, counts in ctxs.items():
            ctx = tuple(int(x) for x in ctx_s.split(",")) if ctx_s else ()
            row = {int(t): c for t, c in counts.items() if type(c) is int}
            if len(row) != len(counts):
                raise ValueError(
                    f"table {quote(bk)} context {quote(ctx_s)} holds a count that is not an"
                    " integer, or a token id twice"
                )
            if len(ctx) != k or not ids.issuperset(ctx) or not row.keys() <= ids:
                raise ValueError(f"table {quote(bk)} context {quote(ctx_s)} is out of range")
            if row and min(row.values()) < 1:
                raise ValueError(
                    f"table {quote(bk)} context {quote(ctx_s)} holds a count below 1"
                )
            if ctx in table:
                raise ValueError(f"table {quote(bk)} context {quote(ctx_s)} is written twice")
            table[ctx] = row
    return tables


def save_model(model: NGramModel, path: str) -> None:
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "order": model.order,
        "alpha": model.alpha,
        "buckets": model.buckets,
        "vocab": list(model.vocab.tokens),
        "tables": _tables_to_json(model),
    }
    with open(path, "w", encoding="utf-8") as fh:
        # dumps, not dump: dump streams through the pure-Python encoder
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path: str) -> NGramModel:
    payload = read_json(path, "model file")
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise DataError(f"{path!r} is not an mpgen model file")
    if payload.get("version") != FORMAT_VERSION:
        raise DataError(
            f"model file {path!r}: format version {quote(payload.get('version'))} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        tokens = tuple(payload["vocab"])
        if not all(isinstance(t, str) for t in tokens):
            raise ValueError("vocabulary entries must be strings")
        if tokens[: len(RESERVED_TOKENS)] != RESERVED_TOKENS or len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary must open with the reserved tokens and repeat no entry")
        order, buckets, alpha = payload["order"], payload["buckets"], payload["alpha"]
        if type(order) is not int or type(buckets) is not int:  # bools are rejected too
            raise ValueError(
                f"order and buckets must be integers, not {quote(order)} and {quote(buckets)}"
            )
        if order < 1 or buckets < 1:
            raise ValueError("order and buckets must be at least 1")
        if type(alpha) not in (int, float) or not 0 < alpha < inf:
            raise ValueError(f"smoothing alpha must be a finite number > 0, not {quote(alpha)}")
        tables = _tables_from_json(payload["tables"], order, buckets, len(tokens))
        return NGramModel(
            vocab=Vocab(tokens=tokens), order=order, alpha=float(alpha), buckets=buckets,
            tables=tables, pool=_pool(tables),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed model file {path!r}: {exc}") from exc
