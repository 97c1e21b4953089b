"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is asserted, so a plain `pytest` run is equally
binding.
"""

import random
import time

import numpy as np
import pytest

from oracles import (
    greedy_path_oracle,
    naive_bleu,
    naive_dep_cov,
    naive_edit_similarity,
    random_selection_case,
    whole_file_expressions,
)

from conftest import CORPUS, ROOT, make_config
from mpgen import metrics
from mpgen.analysis.complete import TaskContext, tool_complete
from mpgen.decode import GenerationConfig, build_trie, select_suggestion
from mpgen.lm.ngram import description_bucket
from mpgen.lm.tokenizer import detokenize, tokenize
from mpgen.lm.vocab import BOS_ID, COMP_ID
from mpgen.metrics import (
    corpus_bleu,
    edit_similarity,
    identify_dependencies,
    evaluate_pairs,
)
from mpgen.minilang import tokens as tk
from mpgen.minilang.parser import extract_functions
from mpgen.minilang.render import render_tokens
from mpgen.pipeline import (
    collect_repos,
    derive_tasks,
    run_augment,
    run_evaluate,
    run_model_over_tasks,
    run_train,
)
from mpgen.repo import CaretPosition, Repository
from mpgen.trigger import insert_triggers


def _ok(n: int, message: str) -> None:
    print(f"\n[criterion {n}] PASS — {message}")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """One full pipeline run: augment, train, benchmark both models."""
    out = tmp_path_factory.mktemp("acceptance")
    config = make_config(out)
    t0 = time.monotonic()
    run_augment(config)
    tool, vanilla, _stats = run_train(config)
    tasks = derive_tasks(config)
    tool_pairs, tool_traces = run_model_over_tasks(
        tool, tasks, GenerationConfig(max_tokens=config.max_tokens)
    )
    van_pairs, van_traces = run_model_over_tasks(
        vanilla, tasks, GenerationConfig(max_tokens=config.max_tokens, tool_enabled=False)
    )
    tool_report = evaluate_pairs(tool_pairs, tool.vocab)
    van_report = evaluate_pairs(van_pairs, tool.vocab)
    elapsed = time.monotonic() - t0
    return {
        "config": config,
        "tool": tool,
        "vanilla": vanilla,
        "tasks": tasks,
        "tool_pairs": tool_pairs,
        "tool_traces": tool_traces,
        "van_pairs": van_pairs,
        "van_traces": van_traces,
        "tool_report": tool_report,
        "van_report": van_report,
        "elapsed": elapsed,
    }


def test_criterion_1_round_trip_suite():
    t0 = time.monotonic()
    repos = collect_repos([str(CORPUS / "train"), str(CORPUS / "eval")])
    assert len(repos) >= 10
    total = 0
    for _name, repo in repos:
        for path in repo.paths():
            for fn in extract_functions(repo.module(path)):
                if fn.docstring is None:
                    continue
                unmarked = [t for t in insert_triggers(repo, path, fn) if t.kind != tk.MARKER]
                assert render_tokens(unmarked) == render_tokens(fn.body_tokens), (path, fn.name)
                total += 1
    elapsed = time.monotonic() - t0
    assert total >= 200
    assert elapsed < 30.0
    _ok(1, f"strip∘insert identity on {total} functions across {len(repos)} repos in {elapsed:.1f}s")


def test_criterion_2_marker_validity():
    repos = collect_repos([str(CORPUS / "train"), str(CORPUS / "eval")])
    violations = 0
    markers = 0
    for name, repo in repos:
        # fresh repository instance: no shared caches with the insertion pass
        fresh = Repository(dict(repo.files))
        for path in fresh.paths():
            for fn in extract_functions(fresh.module(path)):
                if fn.docstring is None:
                    continue
                toks = insert_triggers(repo, path, fn)
                for i, t in enumerate(toks):
                    if t.kind != tk.MARKER:
                        continue
                    markers += 1
                    nxt = toks[i + 1]
                    assert nxt.kind == tk.IDENTIFIER
                    caret = CaretPosition(path, nxt.line, nxt.column)
                    if nxt.text not in tool_complete(fresh, caret):
                        violations += 1
    assert markers > 500
    assert violations == 0
    _ok(2, f"{markers} markers re-verified independently, 0 violations")


def test_criterion_3_selection_soundness():
    rng = random.Random(0xC0DE)
    checked = 0
    for _ in range(1000):
        model, desc, prefix, suggestions, vocab = random_selection_case(rng)
        assert len(suggestions) <= 100
        trie = build_trie(suggestions, vocab)
        bucket = description_bucket(desc, model.vocab, model.buckets)
        got = select_suggestion(model, bucket, prefix, trie)
        assert detokenize(got, vocab) in suggestions
        assert got == greedy_path_oracle(model, desc, prefix, suggestions, vocab)
        checked += 1
    assert checked == 1000
    _ok(3, "1000 randomized tries: output verbatim in list and equal to the greedy-path oracle")


def test_criterion_4_directional_replication(bench):
    tool, van = bench["tool_report"], bench["van_report"]
    n = len(bench["tasks"])
    assert n >= 100
    assert bench["elapsed"] < 300.0
    assert tool.val_rate > van.val_rate
    assert tool.val_rate >= 1.15 * van.val_rate
    assert tool.dep_cov is not None and van.dep_cov is not None
    assert tool.dep_cov > van.dep_cov
    assert tool.dep_cov >= 1.15 * van.dep_cov
    _ok(
        4,
        f"{n} tasks in {bench['elapsed']:.1f}s: ValRate {tool.val_rate:.3f} vs "
        f"{van.val_rate:.3f}, DepCov {tool.dep_cov:.3f} vs {van.dep_cov:.3f}",
    )


def test_criterion_5_similarity_non_regression(bench):
    tool, van = bench["tool_report"], bench["van_report"]
    assert tool.exact_match >= van.exact_match
    assert tool.bleu4 >= 0.95 * van.bleu4
    _ok(
        5,
        f"ExactMatch {tool.exact_match:.3f} >= {van.exact_match:.3f}; "
        f"BLEU-4 {tool.bleu4:.3f} vs {van.bleu4:.3f} (within -5%)",
    )


def test_criterion_6_metric_oracle_equivalence(bench):
    pairs = bench["tool_pairs"][:20]
    assert len(pairs) == 20
    vocab = bench["tool"].vocab

    dep_exp = [
        (
            whole_file_expressions(p),
            identify_dependencies(TaskContext.at(p.repo, p.pos).analyse(p.gt)),
        )
        for p in pairs
    ]
    got_cov = evaluate_pairs(pairs, vocab).dep_cov
    want_cov = naive_dep_cov(dep_exp)
    assert abs(got_cov - want_cov) <= 1e-9

    token_pairs = [(tokenize(p.pred, vocab), tokenize(p.gt, vocab)) for p in pairs]
    got_bleu = corpus_bleu(token_pairs)
    want_bleu = naive_bleu(token_pairs)
    assert abs(got_bleu - want_bleu) <= 1e-9

    for p in pairs:
        assert abs(edit_similarity(p.pred, p.gt) - naive_edit_similarity(p.pred, p.gt)) <= 1e-9

    _ok(6, "DepCov, BLEU-4 and EditSim match brute force on the 20-pair fixture within 1e-9")


def test_criterion_7_cache_transparency(bench):
    tool = bench["tool"]
    tasks = bench["tasks"]
    on_pairs, on_traces = bench["tool_pairs"], bench["tool_traces"]
    off_pairs, off_traces = run_model_over_tasks(
        tool, tasks, GenerationConfig(cache_enabled=False)
    )
    for a, b in zip(on_pairs, off_pairs):
        assert a.pred == b.pred
    multi = [i for i, t in enumerate(off_traces) if t.tool_invocations >= 2]
    assert multi, "benchmark contains no multi-trigger generations"
    on_inv = sum(on_traces[i].tool_invocations for i in multi)
    off_inv = sum(off_traces[i].tool_invocations for i in multi)
    assert on_inv < off_inv
    for t in off_traces:
        assert t.cache_hits == 0
    _ok(
        7,
        f"outputs byte-identical with cache on/off; invocations {on_inv} < {off_inv} "
        f"on {len(multi)} multi-access tasks",
    )


def test_criterion_8_pipeline_determinism(tmp_path_factory, monkeypatch):
    calls = []
    counted = metrics.identify_dependencies

    def counting(*args, **kwargs):
        calls.append(None)
        return counted(*args, **kwargs)

    monkeypatch.setattr(metrics, "identify_dependencies", counting)
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path_factory.mktemp(f"determinism_{tag}")
        config = make_config(out)
        run_augment(config)
        run_train(config)
        calls.clear()
        run_evaluate(config)
        # the ground-truth side is computed once per task, not once per model
        assert len(calls) == 126
        blobs.append(
            tuple(
                open(p, "rb").read()
                for p in (
                    config.dataset,
                    config.dataset_meta,
                    config.tool_model_path,
                    config.vanilla_model_path,
                    config.report,
                )
            )
        )
    assert blobs[0] == blobs[1]
    golden = ROOT / "out"
    committed = tuple(
        (golden / rel).read_bytes()
        for rel in (
            "dataset.jsonl",
            "dataset.jsonl.meta.json",
            "models/model_tool.json",
            "models/model_vanilla.json",
            "report.json",
        )
    )
    assert blobs[0] == committed, "pipeline output differs from the committed out/ golden"
    _ok(
        8,
        "two consecutive pipeline runs produced byte-identical dataset, models and report, "
        "equal to the committed out/ files",
    )


def test_criterion_9_normalization_and_trigger_support(bench):
    model = bench["tool"]
    vocab = model.vocab
    rng = np.random.RandomState(99)
    ids = np.arange(vocab.size)
    for _ in range(1000):
        prefix = [BOS_ID] + [int(t) for t in rng.choice(ids, size=rng.randint(0, 8))]
        desc = [int(t) for t in rng.choice(ids, size=rng.randint(0, 6))]
        dist = np.asarray(model.predict(desc, prefix))
        assert abs(dist.sum() - 1.0) <= 1e-9
        assert dist[COMP_ID] > 0.0
    _ok(9, "1000 predictions sum to 1 ± 1e-9 and always give the trigger token positive mass")
