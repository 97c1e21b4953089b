import os
from pathlib import Path

import pytest

from mpgen.lm import ngram
from mpgen.lm.tokenizer import token_strings
from mpgen.lm.vocab import Vocab, build_vocab
from mpgen.pipeline import RunConfig

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def text_vocab(texts) -> Vocab:
    """The vocabulary over texts, each split as the tokenizer splits it."""
    return build_vocab(map(token_strings, texts))


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
