#!/usr/bin/env python3
"""Print one sha256 over the generations of the bundled benchmark.

A generation is one model decoding one task. The digest covers 2,016 of
them: the 126 tasks of `configs/demo.json`, each decoded by both golden
models (`out/models/`), with the generation cache on and off, with the tool
on and off, and through `run_model_over_tasks` (which shares one trie memo
over the run and, with the tool on, completes through each task's context)
or through `generate` with no task context (the whole-file tool). With the
tool off, the two ways decode alike. Each one adds its prediction, token ids,
tags and trace counters, in that order. Two trees that print the same digest
generate alike, so a change meant to keep every generation can be checked
by running this on both:

    python3 tools/generation_digest.py [--config configs/demo.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from mpgen.decode import GenerationConfig, generate  # noqa: E402
from mpgen.lm.ngram import load_model  # noqa: E402
from mpgen.pipeline import derive_tasks, load_config, run_model_over_tasks  # noqa: E402


def _record(pred: str, trace) -> bytes:
    return (json.dumps([pred, trace.tokens, trace.to_dict()], sort_keys=True) + "\n").encode()


def digest(config_path: str) -> tuple[str, int]:
    """(sha256 hex digest, number of generations) for the config's tasks."""
    config = load_config(config_path)
    tasks = derive_tasks(config)
    h, n = hashlib.sha256(), 0
    for path in (config.tool_model_path, config.vanilla_model_path):
        model = load_model(path)
        for cache in (True, False):
            for tool in (True, False):
                cfg = GenerationConfig(
                    max_tokens=config.max_tokens, cache_enabled=cache, tool_enabled=tool
                )
                pairs, traces = run_model_over_tasks(model, tasks, cfg)
                for pair, trace in zip(pairs, traces, strict=True):
                    h.update(_record(pair.pred, trace))
                for task in tasks:
                    pred, trace = generate(
                        model, task.snapshot, task.description, task.pos, cfg
                    )
                    h.update(_record(pred, trace))
                n += 2 * len(tasks)
    return h.hexdigest(), n


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--config", default=os.path.join(ROOT, "configs", "demo.json"))
    args = ap.parse_args()
    hexdigest, n = digest(args.config)
    print(f"{hexdigest}  {n} generations")


if __name__ == "__main__":
    main()
