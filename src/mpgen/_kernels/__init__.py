"""The two numeric kernels: smoothed next-token distribution and edit distance.

Both are exact pure Python. `levenshtein` scores every evaluated pair;
`smoothed_distribution` fills the dense distribution that `predict` returns.
Greedy decoding and the training NLL read the counts directly (see `decode`
and `NGramModel.sequence_nll`); the dense list is their reference.

`BACKEND` names the implementation. There is only one now, but benchmark
records carry it so that results from different kernel implementations are
never compared as like for like.
"""

from __future__ import annotations

BACKEND = "pure"


def smoothed_distribution(vocab_size: int, counts: dict[int, int], alpha: float) -> list[float]:
    """(count + alpha) / (total + alpha*|V|) over the whole vocabulary.

    counts maps token id to the observed next-token count for one context;
    every other entry gets the pure-smoothing value. The result sums to 1 up
    to float rounding.
    """
    alpha = float(alpha)
    denom = float(sum(counts.values())) + alpha * vocab_size
    out = [alpha / denom] * vocab_size
    for tok, count in counts.items():
        out[tok] = (alpha + count) / denom
    return out


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insert/delete/substitute, unit cost).

    Bit-parallel global distance (Myers 1999, in Hyyrö's 2001 formulation):
    bit i of the vertical delta vectors pv/mv says whether D[i+1][j] is one
    more/less than D[i][j] for the current column j. The longer string is
    the bit pattern, held in one Python int, so the loop runs once per
    character of the shorter string. A common prefix and suffix cost
    nothing, so they are trimmed first; the suffix only from what the
    prefix leaves of the shorter string, so the two never overlap.
    """
    if a == b:
        return 0
    n = min(len(a), len(b))
    p = 0
    while p < n and a[p] == b[p]:
        p += 1
    s = 0
    while s < n - p and a[-1 - s] == b[-1 - s]:
        s += 1
    a, b = a[p:len(a) - s], b[p:len(b) - s]
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
