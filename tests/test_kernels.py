import pytest
from hypothesis import example, given, settings, strategies as st

from mpgen._kernels import BACKEND, levenshtein, smoothed_distribution

from oracles import naive_levenshtein


def test_backend_reported():
    assert BACKEND == "pure"


def test_levenshtein_basics():
    assert levenshtein("", "") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "abd") == 1
    assert levenshtein("kitten", "sitting") == 3


def test_smoothed_distribution_values():
    out = smoothed_distribution(5, {1: 2, 3: 7}, 0.1)
    denom = 9.0 + 0.1 * 5
    assert len(out) == 5
    assert out[0] == pytest.approx(0.1 / denom)
    assert out[1] == pytest.approx(2.1 / denom)
    assert out[3] == pytest.approx(7.1 / denom)
    assert sum(out) == pytest.approx(1.0, abs=1e-12)


# Patterns longer than 64 characters span several machine words in a
# word-at-a-time implementation; small alphabets make matches dense.
_texts = st.one_of(
    st.text(alphabet="ab", max_size=300),
    st.text(alphabet="abc \n", max_size=300),
    st.text(alphabet="aé☃\U0001F600", max_size=120),
    st.text(max_size=80),
)


# p + a + s against p + b + s: a shared prefix and suffix, which the
# kernel trims before its loop, around middles from a small alphabet, so
# the trim often reaches into them.
_part = st.text(alphabet="ab", max_size=60)
_affixed = st.tuples(_part, _part, _part, _part).map(
    lambda t: (t[0] + t[1] + t[3], t[0] + t[2] + t[3])
)


@settings(max_examples=200, deadline=None)
@given(st.tuples(_texts, _texts) | _affixed)
@example(("", ""))
@example(("", "a" * 200))
@example(("ab" * 100, "ba" * 100))
@example(("x" * 64, "x" * 65))
@example(("aa", "aaa"))      # the prefix takes all of the shorter string
@example(("abcab", "ab"))    # prefix and suffix candidates overlap
@example(("xay", "xy"))      # the trim empties the shorter side
def test_levenshtein_matches_naive_oracle(texts):
    a, b = texts
    want = naive_levenshtein(a, b)
    assert levenshtein(a, b) == want
    assert levenshtein(b, a) == want


def test_levenshtein_metric_properties():
    samples = ["", "a", "ab", "abc", "acb", "xyz"]
    for a in samples:
        for b in samples:
            d = levenshtein(a, b)
            assert d == levenshtein(b, a)
            assert (d == 0) == (a == b)
            assert d <= max(len(a), len(b))
