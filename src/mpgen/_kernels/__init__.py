"""The two numeric kernels: smoothed next-token distribution and edit distance.

Both are exact pure Python/numpy. `levenshtein` scores every evaluated pair;
`smoothed_distribution` fills the dense distribution that `predict` returns
(NLL, perplexity; greedy decoding reads the counts directly, see `decode`).

`BACKEND` names the implementation. There is only one now, but benchmark
records carry it so that results from different kernel implementations are
never compared as like for like.
"""

from __future__ import annotations

import numpy as np

BACKEND = "pure"


def smoothed_distribution(
    vocab_size: int,
    ids: np.ndarray,
    counts: np.ndarray,
    alpha: float,
    total: float,
) -> np.ndarray:
    """(count + alpha) / (total + alpha*|V|) over the whole vocabulary.

    ids/counts hold the observed next-token counts for one context; every
    other entry gets the pure-smoothing value. The result sums to 1 up to
    float rounding.
    """
    alpha = float(alpha)
    denom = total + alpha * vocab_size
    out = np.full(vocab_size, alpha / denom, dtype=np.float64)
    if len(ids):
        out[np.asarray(ids, dtype=np.int64)] = (alpha + np.asarray(counts, dtype=np.float64)) / denom
    return out


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insert/delete/substitute, unit cost).

    Bit-parallel global distance (Myers 1999, in Hyyrö's 2001 formulation):
    bit i of the vertical delta vectors pv/mv says whether D[i+1][j] is one
    more/less than D[i][j] for the current column j. The longer string is
    the bit pattern, held in one Python int, so the loop runs once per
    character of the shorter string.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    m = len(a)
    if not b:
        return m
    peq: dict[str, int] = {}
    bit = 1
    for c in a:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, dist = mask, 0, m
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # Row 0 is D[0][j] = j, so every column enters with a +1 delta.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist
