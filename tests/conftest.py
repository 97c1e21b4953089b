import importlib.util
import os
from pathlib import Path

import pytest

from mpgen.lm import ngram
from mpgen.lm.tokenizer import token_strings
from mpgen.lm.vocab import Vocab, build_vocab
from mpgen.pipeline import RunConfig

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def script_module(name: str):
    """The script `tools/<name>.py`, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def text_vocab(texts) -> Vocab:
    """The vocabulary over texts, each split as the tokenizer splits it."""
    return build_vocab(map(token_strings, texts))


def bucketed(pairs, vocab: Vocab, buckets: int = 16) -> list:
    """(description ids, target) pairs as the (bucket, target) pairs `train`
    takes; 16 is `train`'s bucket count."""
    return [(ngram.description_bucket(desc, vocab, buckets), target) for desc, target in pairs]


def version_1_payload(payload: dict) -> dict:
    """A format-2 model file's payload in the version-1 layout: a variant
    field, and the global pool that loading derives from the bucket tables
    (`NGramModel.pool`) stored beside them as `-1:length` tables."""
    tables = {key: dict(table) for key, table in payload["tables"].items()}
    buckets = ngram._tables_from_json(
        payload["tables"], payload["order"], payload["buckets"], len(payload["vocab"])
    )
    for ctx, row in ngram._pool(buckets).items():
        pool = tables.setdefault(f"-1:{len(ctx)}", {})
        pool[",".join(map(str, ctx))] = {str(t): c for t, c in row.items()}
    return {**payload, "version": 1, "variant": "model", "tables": tables}


def assert_completions_match_reference(repo, path: str) -> int:
    """The completion tool against its per-call reference on one file of
    repo (`oracles.per_call_complete`): `tool_complete` at every identifier
    and at the end of every line; for each function, `complete_in` in one
    function scope asked at every identifier of its body, and `insert_triggers`. Returns
    the number of carets `tool_complete` was asked about."""
    from oracles import eager_module_scopes, per_call_complete, per_call_insert_triggers

    from mpgen.analysis.complete import complete_in, tool_complete
    from mpgen.analysis.scope import FunctionScope, build_scope_index
    from mpgen.minilang import tokens as tk
    from mpgen.minilang.parser import extract_functions
    from mpgen.repo import CaretPosition
    from mpgen.trigger import insert_triggers

    scopes = eager_module_scopes(repo)
    toks = repo.lex(path)[0]
    carets = {(t.line, t.column) for t in toks if t.kind == tk.IDENTIFIER}
    carets |= {(n, len(line)) for n, line in enumerate(repo.text(path).split("\n"), start=1)}
    for line, column in sorted(carets):
        caret = CaretPosition(path, line, column)
        assert tool_complete(repo, caret) == per_call_complete(repo, scopes, caret), caret
    index = build_scope_index(repo)
    for func in extract_functions(repo.module(path)):
        scope = FunctionScope(index, path, func)
        for t in func.body_tokens:
            if t.kind == tk.IDENTIFIER:
                caret = CaretPosition(path, t.line, t.column)
                got = complete_in(scope, toks, t.line, t.column)
                assert got == per_call_complete(repo, scopes, caret), caret
        assert insert_triggers(repo, path, func) == per_call_insert_triggers(repo, path, func)
    return len(carets)


def make_config(out_dir: Path, **overrides) -> RunConfig:
    defaults = dict(
        train_roots=[str(CORPUS / "train")],
        eval_roots=[str(CORPUS / "eval")],
        dataset=str(out_dir / "dataset.jsonl"),
        model_dir=str(out_dir / "models"),
        report=str(out_dir / "report.json"),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


@pytest.fixture(scope="session")
def demo_config(tmp_path_factory) -> RunConfig:
    out = tmp_path_factory.mktemp("pipeline")
    return make_config(out)


@pytest.fixture(scope="session")
def trained_models(demo_config):
    """Run augment + train once per session; returns (config, tool, vanilla)."""
    from mpgen.pipeline import run_augment, run_train

    os.makedirs(demo_config.model_dir, exist_ok=True)
    run_augment(demo_config)
    tool, vanilla, _stats = run_train(demo_config)
    return demo_config, tool, vanilla


@pytest.fixture(scope="session")
def corpus_repos():
    from mpgen.pipeline import collect_repos

    return collect_repos([str(CORPUS / "train"), str(CORPUS / "eval")])
