import json
import statistics
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mpgen.analysis.complete import TaskContext
from mpgen.lm.tokenizer import tokenize
from mpgen.metrics import (
    EvalPair,
    bleu_counts,
    bleu_from_counts,
    corpus_bleu,
    edit_similarity,
    evaluate_pairs,
    extract_expressions,
    identify_dependencies,
    pair_is_valid,
    reference_ngrams,
)
from mpgen.minilang.lexer import lex
from mpgen.minilang.parser import parse_body
from mpgen.minilang.render import render_tokens
from mpgen.repo import CaretPosition, Repository


# --- independent oracles ------------------------------------------------------

from conftest import text_vocab
from oracles import counter_corpus_bleu, naive_bleu, naive_dep_cov, naive_levenshtein


# --- fixtures -----------------------------------------------------------------

COUNTER = (
    "class Counter:\n"
    "    def boot(self):\n"
    '        "Prepare the counter"\n'
    "        self._value = 0\n"
    "    def bump(self, amount):\n"
    '        "Increase by amount"\n'
    "        \n"
)


VOCAB = text_vocab([COUNTER])


def score(pairs: list[EvalPair]):
    """The aggregate report of the fixture pairs."""
    return evaluate_pairs(pairs, VOCAB)


def deps_of(gt: str, repo: Repository, pos: CaretPosition) -> set[str]:
    return identify_dependencies(gt, TaskContext.at(repo, pos))


def is_valid(pair: EvalPair) -> bool:
    return pair_is_valid(TaskContext.at(pair.repo, pair.pos).analyse(pair.pred))


def expressions_of(text: str) -> set[str]:
    return extract_expressions(parse_body(text)[0])


def counter_pair(pred: str, gt: str = "self._value = self._value + 1") -> EvalPair:
    repo = Repository({"core.mp": COUNTER})
    pos = CaretPosition("core.mp", 7, 8)
    return EvalPair(gt=gt, pred=pred, repo=repo, pos=pos)


# --- dependency identification -------------------------------------------------

def test_no_marked_identifiers_yields_empty_dep_set():
    pair = counter_pair("", gt="return 1")
    assert deps_of(pair.gt, pair.repo, pair.pos) == set()


def test_counter_value_dependency():
    # self._value = self._value + 1 depends on the Counter member _value
    pair = counter_pair("")
    deps = deps_of(pair.gt, pair.repo, pair.pos)
    assert deps == {"self._value"}


def test_three_distinct_marked_accesses():
    src = (
        "from core import helper_fn\n"
        "class W:\n"
        "    def boot(self):\n"
        '        "Prepare"\n'
        "        self._a = 0\n"
        "        self._b = 0\n"
        "    def work(self):\n"
        '        "Do the work"\n'
        "        \n"
    )
    core = "def helper_fn(v):\n    return v\n"
    repo = Repository({"w.mp": src, "core.mp": core})
    pos = CaretPosition("w.mp", 9, 8)
    gt = "return helper_fn(self._a) + self._b"
    deps = deps_of(gt, repo, pos)
    assert deps == {"helper_fn", "self._a", "self._b"}


def test_minimal_enclosing_expression_is_used():
    # the marked receiver and member both map to the same minimal access
    src = (
        "class R:\n"
        "    def boot(self):\n"
        '        "Prepare"\n'
        "        self._items = 0\n"
        "    def add(self, v):\n"
        '        "Append"\n'
        "        \n"
    )
    repo = Repository({"r.mp": src})
    pos = CaretPosition("r.mp", 7, 8)
    deps = deps_of("self._items = self._items + v", repo, pos)
    assert deps == {"self._items"}


# --- expression extraction ------------------------------------------------------

def test_extract_expressions_literal_only():
    assert expressions_of("return 1") == set()


def test_extract_expressions_call_target():
    assert expressions_of("self.add(update)") == {"self.add"}


def test_extract_expressions_bare_call_and_chain():
    assert expressions_of("helper(x)\nreturn obj.attr") == {"helper", "obj.attr"}


def test_extract_expressions_unparseable_prefix():
    out = expressions_of("x = self.good\nreturn ???\n")
    assert "self.good" in out


# --- dependency coverage ---------------------------------------------------------

def test_identity_prediction_full_coverage():
    pair = counter_pair("self._value = self._value + 1")
    assert score([pair]).dep_cov == 1.0


def test_partial_coverage_quarter():
    src = (
        "class Q:\n"
        "    def boot(self):\n"
        '        "Prepare"\n'
        "        self._a = 0\n"
        "        self._b = 0\n"
        "        self._c = 0\n"
        "        self._d = 0\n"
        "    def use(self):\n"
        '        "Use all"\n'
        "        \n"
    )
    repo = Repository({"q.mp": src})
    pos = CaretPosition("q.mp", 10, 8)
    gt = "return self._a + self._b + self._c + self._d"
    pair = EvalPair(gt, "return self._a", repo, pos)
    deps = deps_of(gt, repo, pos)
    assert len(deps) == 4
    assert score([pair]).dep_cov == 0.25


def test_micro_average_not_macro():
    # (2 of 4) + (0 of 1) micro-averages to 2/5, not mean(0.5, 0)
    src = (
        "class Q:\n"
        "    def boot(self):\n"
        '        "Prepare"\n'
        "        self._a = 0\n"
        "        self._b = 0\n"
        "        self._c = 0\n"
        "        self._d = 0\n"
        "    def one(self):\n"
        '        "One"\n'
        "        \n"
    )
    repo = Repository({"q.mp": src})
    pos = CaretPosition("q.mp", 10, 8)
    p1 = EvalPair(
        "return self._a + self._b + self._c + self._d", "return self._a + self._b", repo, pos
    )
    p2 = EvalPair("return self._a", "return 0", repo, pos)
    assert score([p1, p2]).dep_cov == pytest.approx(0.4)


def test_all_dep_empty_is_not_applicable():
    pair = counter_pair("return 1", gt="return 1")
    assert score([pair]).dep_cov is None


def test_coverage_monotonicity():
    pair_low = counter_pair("return 0")
    pair_high = counter_pair("return self._value")
    assert score([pair_high]).dep_cov >= score([pair_low]).dep_cov


# --- static validity --------------------------------------------------------------

def test_identity_is_valid():
    pair = counter_pair("self._value = self._value + 1")
    assert is_valid(pair)


def test_undefined_name_invalid():
    pair = counter_pair("return z")
    assert not is_valid(pair)


def test_missing_member_invalid():
    pair = counter_pair("return self._updates")
    assert not is_valid(pair)


def test_unparseable_prediction_invalid():
    pair = counter_pair("return ???")
    assert not is_valid(pair)


def test_errors_outside_span_do_not_count():
    broken = COUNTER + "def broken():\n    return ghost\n"
    repo = Repository({"core.mp": broken})
    pos = CaretPosition("core.mp", 7, 8)
    pair = EvalPair("return amount", "return amount", repo, pos)
    assert is_valid(pair)


def test_validity_rates_overall_and_dependency_only():
    valid_dep = counter_pair("self._value = self._value + 1")
    invalid_dep = counter_pair("return self._updates")
    valid_plain = counter_pair("return amount", gt="return amount")
    invalid_plain = counter_pair("return ghost", gt="return amount")
    report = score([valid_dep, invalid_dep, valid_plain, invalid_plain])
    assert report.val_rate == pytest.approx(0.5)
    assert report.val_rate_dep == pytest.approx(0.5)


# --- exact match -------------------------------------------------------------------

def test_exact_match_identity_and_whitespace():
    a = counter_pair("self._value = self._value + 1")
    b = counter_pair("self._value   =  self._value + 1")  # whitespace-only difference
    c = counter_pair("self._value = self._value + 2")
    assert score([a]).exact_match == 1.0
    assert score([b]).exact_match == 1.0
    assert score([c]).exact_match == 0.0
    assert render_tokens(lex(b.pred)[0]) == render_tokens(lex(b.gt)[0])


# --- edit similarity ----------------------------------------------------------------

def test_edit_similarity_examples():
    assert edit_similarity("abc", "abc") == 100.0
    assert edit_similarity("abc", "abd") == pytest.approx(100 * (1 - 1 / 3))
    assert edit_similarity("", "x") == 0.0
    assert edit_similarity("", "") == 100.0


def test_edit_similarity_matches_naive_oracle():
    samples = [
        ("return self._value", "return self._values"),
        ("a = 1\nreturn a", "b = 2\nreturn b"),
        ("", "xyz"),
        ("same", "same"),
        ("kitten", "sitting"),
    ]
    for a, b in samples:
        expected = 100.0 * (1 - naive_levenshtein(a, b) / max(len(a), len(b))) if (a or b) else 100.0
        assert edit_similarity(a, b) == pytest.approx(expected, abs=1e-9)


# --- BLEU ----------------------------------------------------------------------------

def test_bleu_identity_is_one():
    v = text_vocab(["return self._value + 1"])
    ids = tokenize("return self._value + 1", v)
    assert corpus_bleu([(ids, ids)]) == pytest.approx(1.0)


def test_bleu_disjoint_below_smoothing_floor():
    # disjoint tokens at a typical body length: only the smoothing floor remains
    left = " ".join(f"a{i}" for i in range(16))
    right = " ".join(f"b{i}" for i in range(16))
    v = text_vocab([left, right])
    p = tokenize(left, v)
    g = tokenize(right, v)
    assert not set(p) & set(g)
    assert corpus_bleu([(p, g)]) < 0.05


def test_bleu_hand_case_matches_oracle():
    # five-token prediction with one 4-gram missing
    v = text_vocab(["a b c d e f"])
    p = tokenize("a b c d f", v)
    g = tokenize("a b c d e", v)
    got = corpus_bleu([(p, g)])
    assert got == pytest.approx(naive_bleu([(p, g)]), abs=1e-12)


def test_bleu_matches_oracle_on_mixed_corpus():
    v = text_vocab(["u v w x y z"])
    pairs = [
        (tokenize("u v w x", v), tokenize("u v w x", v)),
        (tokenize("u v", v), tokenize("u w", v)),
        (tokenize("x y z u v w", v), tokenize("x y z w v u", v)),
        ([], tokenize("u", v)),
    ]
    assert corpus_bleu(pairs) == pytest.approx(naive_bleu(pairs), abs=1e-12)


# short sequences over few ids, so that n-grams repeat and match
_IDS = st.lists(st.integers(4, 8), max_size=12)


@settings(max_examples=500, deadline=None)
@given(token_pairs=st.lists(st.tuples(_IDS, _IDS), max_size=6), cut=st.integers(0, 6))
def test_bleu_from_summed_counts_equals_the_per_call_count(token_pairs, cut):
    """Exactly, not approximately: the sums are integers, and the score is
    the same float operations on them in any grouping of the pairs."""
    counts = [bleu_counts(p, g, reference_ngrams(g)) for p, g in token_pairs]
    want = counter_corpus_bleu(token_pairs)
    assert corpus_bleu(token_pairs) == bleu_from_counts(counts) == want
    assert bleu_from_counts(counts[cut:] + counts[:cut]) == want
    for pair, count in zip(token_pairs, counts):
        assert bleu_from_counts([count]) == counter_corpus_bleu([pair])


def test_sentence_bleu_perfect_pair():
    v = text_vocab(["return 1 + 2"])
    pair = counter_pair("return 1 + 2", gt="return 1 + 2")
    assert evaluate_pairs([pair], v).per_pair[0]["bleu4"] == pytest.approx(1.0)


# --- aggregate report ------------------------------------------------------------------

def test_evaluate_pairs_report_shape():
    v = text_vocab([COUNTER, "return amount", "return z"])
    pairs = [
        counter_pair("self._value = self._value + 1"),
        counter_pair("return z"),
    ]
    report = evaluate_pairs(pairs, v)
    d = report.to_dict()
    assert d["n"] == 2
    assert set(d) == {
        "n", "dep_cov", "val_rate", "val_rate_dep", "exact_match", "edit_sim", "bleu4", "pairs",
    }
    assert 0.0 <= d["val_rate"] <= 1.0
    assert 0.0 <= d["exact_match"] <= 1.0
    assert 0.0 <= d["edit_sim"] <= 100.0
    assert len(d["pairs"]) == 2
    assert d["val_rate"] == pytest.approx(0.5)


def test_dep_cov_oracle_equivalence_on_fixture_pairs():
    # DepCov equals a naive materialize-and-intersect recount
    preds = [
        "self._value = self._value + 1",
        "return self._value",
        "return 1",
        "return self._updates",
    ]
    pairs = [counter_pair(p) for p in preds]
    dep_exp = [
        (expressions_of(p.pred), deps_of(p.gt, p.repo, p.pos))
        for p in pairs
    ]
    assert score(pairs).dep_cov == pytest.approx(naive_dep_cov(dep_exp), abs=1e-12)


def test_validity_rate_seven_of_ten_and_four_of_five():
    # 10 pairs, 7 valid overall, 4 of the 5 dependency-bearing valid
    dep_valid = [counter_pair("self._value = self._value + 1") for _ in range(4)]
    dep_invalid = [counter_pair("return self._updates")]
    plain_valid = [counter_pair("return amount", gt="return amount") for _ in range(3)]
    plain_invalid = [counter_pair("return ghost", gt="return amount") for _ in range(2)]
    report = score(dep_valid + dep_invalid + plain_valid + plain_invalid)
    assert report.val_rate == pytest.approx(0.7)
    assert report.val_rate_dep == pytest.approx(0.8)


# --- committed golden report -------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

# README metric-table row -> report key
README_ROWS = {
    "DepCov": "dep_cov",
    "ValRate": "val_rate",
    "ValRate-dep": "val_rate_dep",
    "ExactMatch": "exact_match",
    "EditSim": "edit_sim",
    "BLEU-4": "bleu4",
}


def test_golden_aggregates_follow_rows_and_readme():
    # out/report.json: each aggregate is the one its own rows give, and the
    # README table prints the golden aggregates
    report = json.loads((ROOT / "out" / "report.json").read_text(encoding="utf-8"))
    for entry in report["models"].values():
        rows = entry["pairs"]
        dep_rows = [r for r in rows if r["dep_total"]]
        assert entry["n"] == len(rows) == report["n_tasks"]
        covered = sum(r["dep_covered"] for r in rows)
        assert entry["dep_cov"] == covered / sum(r["dep_total"] for r in rows)
        assert entry["val_rate"] == sum(r["valid"] for r in rows) / len(rows)
        assert entry["val_rate_dep"] == sum(r["valid"] for r in dep_rows) / len(dep_rows)
        assert entry["exact_match"] == sum(r["exact_match"] for r in rows) / len(rows)
        assert entry["edit_sim"] == statistics.mean(r["edit_sim"] for r in rows)

    table = {}
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] in README_ROWS:
            table[cells[0]] = dict(zip(("tool", "vanilla"), cells[1:], strict=True))
    assert set(table) == set(README_ROWS)
    for label, printed in table.items():
        for variant, cell in printed.items():
            value = report["models"][variant][README_ROWS[label]]
            decimals = len(cell.split(".")[1])
            assert f"{value:.{decimals}f}" == cell, (label, variant, value)
