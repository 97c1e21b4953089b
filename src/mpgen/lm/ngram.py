"""Description-conditioned backoff n-gram model with additive smoothing.

Training is maximum-likelihood counting: for every position in every target
the (context -> next token) count is incremented at every order up to n-1,
once under the description's hash bucket and once under a global bucket.
Prediction finds the longest context with counts inside the description's
bucket, falling back order by order and finally across buckets; the counts
are additively smoothed over the whole vocabulary, so every token (the
trigger token included) always has positive probability and the result sums
to one.

`predict` returns that dense distribution (likelihoods and perplexity need
it). Greedy decoding needs only its argmax, which `next_counts` gives
straight from the matched counts, without building the vector. Both take
the description's bucket; callers that score many prefixes of one
description compute it once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import log
from typing import Iterable, Optional, Sequence

import numpy as np

from .._kernels import smoothed_distribution
from .vocab import BOS_ID, EOS_ID, Vocab

GLOBAL_BUCKET = -1

FORMAT_NAME = "mpgen-ngram"
FORMAT_VERSION = 1


class ModelCorruptError(ValueError):
    """Model file is unreadable or structurally invalid."""


class ModelVersionError(ValueError):
    """Model file was written by an incompatible format version."""


def _fnv1a(text: str) -> int:
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFF
    return h


def description_bucket(description_ids: Sequence[int], vocab: Vocab, buckets: int) -> int:
    """Bag-of-subwords hash bucket; order-independent by construction."""
    total = 0
    for i in description_ids:
        total = (total + _fnv1a(vocab.token(i))) & 0xFFFFFFFF
    return total % buckets


@dataclass
class NGramModel:
    vocab: Vocab
    order: int
    alpha: float
    buckets: int
    variant: str = "model"
    # (bucket, context_len) -> {context tuple -> {token id -> count}}
    tables: dict[tuple[int, int], dict[tuple[int, ...], dict[int, int]]] = field(
        default_factory=dict
    )
    totals: dict[tuple[int, int], dict[tuple[int, ...], int]] = field(default_factory=dict)

    def _bump(self, bucket: int, k: int, ctx: tuple[int, ...], tok: int) -> None:
        table = self.tables.setdefault((bucket, k), {})
        counts = table.setdefault(ctx, {})
        counts[tok] = counts.get(tok, 0) + 1
        totals = self.totals.setdefault((bucket, k), {})
        totals[ctx] = totals.get(ctx, 0) + 1

    def _lookup(
        self, bucket: int, prefix: Sequence[int], max_k: Optional[int] = None
    ) -> Optional[tuple[dict[int, int], int]]:
        """Longest-context match, preferring the bucket over the global pool.

        Context length dominates conditioning specificity: an order is only
        shortened once neither the bucket nor the cross-bucket table has the
        context at the current length.
        """
        top = self.order - 1 if max_k is None else max_k
        for k in range(min(top, len(prefix)), -1, -1):
            ctx = tuple(prefix[len(prefix) - k:])
            for b in (bucket, GLOBAL_BUCKET):
                table = self.tables.get((b, k))
                if table is not None and ctx in table:
                    return table[ctx], self.totals[(b, k)][ctx]
        return None

    def next_counts(self, bucket: int, prefix: Sequence[int]) -> dict[int, int]:
        """Observed next-token counts of the context `predict` would use.

        Empty when no context matches, i.e. the distribution is pure
        smoothing. The dict is the model's own table: do not mutate it.
        """
        hit = self._lookup(bucket, prefix)
        return {} if hit is None else hit[0]

    def predict(
        self,
        description: Sequence[int],
        prefix: Sequence[int],
        max_order: Optional[int] = None,
        bucket: Optional[int] = None,
    ) -> np.ndarray:
        """Smoothed next-token distribution over the full vocabulary.

        `bucket`, when given, must be the description's `description_bucket`.
        """
        max_k = None if max_order is None else max_order - 1
        if bucket is None:
            bucket = description_bucket(description, self.vocab, self.buckets)
        hit = self._lookup(bucket, prefix, max_k)
        if hit is None:
            counts: dict[int, int] = {}
            total = 0
        else:
            counts, total = hit
        items = sorted(counts.items())
        ids = np.fromiter((i for i, _ in items), dtype=np.int64, count=len(items))
        vals = np.fromiter((c for _, c in items), dtype=np.float64, count=len(items))
        return smoothed_distribution(self.vocab.size, ids, vals, self.alpha, float(total))

    def sequence_nll(self, description: Sequence[int], target: Sequence[int]) -> float:
        """Negative log-likelihood of a <BOS>...<EOS> target, in nats."""
        bucket = description_bucket(description, self.vocab, self.buckets)
        nll = 0.0
        for i in range(1, len(target)):
            dist = self.predict(description, target[:i], bucket=bucket)
            nll -= log(float(dist[target[i]]))
        return nll

    def corpus_nll(self, dataset: Iterable[tuple[Sequence[int], Sequence[int]]]) -> tuple[float, int]:
        total = 0.0
        n_tokens = 0
        for desc, target in dataset:
            total += self.sequence_nll(desc, target)
            n_tokens += len(target) - 1
        return total, n_tokens


def train(
    dataset: Sequence[tuple[Sequence[int], Sequence[int]]],
    order: int,
    alpha: float,
    vocab: Vocab,
    buckets: int = 16,
    variant: str = "model",
) -> NGramModel:
    """Count-based maximum-likelihood training over (description, target) pairs."""
    if not dataset:
        raise ValueError("training dataset is empty")
    if not alpha > 0:
        raise ValueError("smoothing alpha must be positive")
    model = NGramModel(vocab=vocab, order=order, alpha=alpha, buckets=buckets, variant=variant)
    for desc, target in dataset:
        if not target or target[0] != BOS_ID or target[-1] != EOS_ID:
            raise ValueError("every target sequence must begin <BOS> and end <EOS>")
        bucket = description_bucket(desc, vocab, buckets)
        for i in range(1, len(target)):
            tok = target[i]
            for k in range(0, order):
                if k > i:
                    break
                ctx = tuple(target[i - k:i])
                model._bump(bucket, k, ctx, tok)
                model._bump(GLOBAL_BUCKET, k, ctx, tok)
    return model


def _tables_to_json(model: NGramModel) -> dict:
    out: dict[str, dict] = {}
    for (bucket, k), table in model.tables.items():
        bk = f"{bucket}:{k}"
        ctxs = {}
        for ctx, counts in table.items():
            key = ",".join(str(i) for i in ctx)
            ctxs[key] = {str(t): c for t, c in counts.items()}
        out[bk] = ctxs
    return out


def _tables_from_json(data: dict) -> tuple[dict, dict]:
    tables: dict = {}
    totals: dict = {}
    for bk, ctxs in data.items():
        bucket_s, k_s = bk.split(":")
        key = (int(bucket_s), int(k_s))
        table: dict = {}
        tot: dict = {}
        for ctx_s, counts in ctxs.items():
            ctx = tuple(int(x) for x in ctx_s.split(",")) if ctx_s else ()
            parsed = {int(t): int(c) for t, c in counts.items()}
            table[ctx] = parsed
            tot[ctx] = sum(parsed.values())
        tables[key] = table
        totals[key] = tot
    return tables, totals


def save_model(model: NGramModel, path: str) -> None:
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "order": model.order,
        "alpha": model.alpha,
        "buckets": model.buckets,
        "variant": model.variant,
        "vocab": list(model.vocab.tokens),
        "tables": _tables_to_json(model),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path: str) -> NGramModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelCorruptError(f"cannot read model file {path!r}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise ModelCorruptError(f"{path!r} is not an mpgen model file")
    if payload.get("version") != FORMAT_VERSION:
        raise ModelVersionError(
            f"model format version {payload.get('version')!r} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        vocab = Vocab(tokens=tuple(payload["vocab"]))
        tables, totals = _tables_from_json(payload["tables"])
        model = NGramModel(
            vocab=vocab,
            order=int(payload["order"]),
            alpha=float(payload["alpha"]),
            buckets=int(payload["buckets"]),
            variant=str(payload.get("variant", "model")),
            tables=tables,
            totals=totals,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelCorruptError(f"malformed model file {path!r}: {exc}") from exc
    if not model.alpha > 0:
        raise ModelCorruptError(f"model file {path!r} has non-positive smoothing alpha")
    return model
