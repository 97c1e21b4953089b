"""Command-line interface: augment, train, generate, evaluate, lint, complete.

Exit codes: 0 success, 1 usage error, 2 data/IO error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import DataError, pipeline
from .analysis.complete import tool_complete
from .analysis.lint import lint_check, serialize_lint_errors
from .decode import GenerationConfig, InternalInvariantError, generate
from .lm.ngram import load_model
from .pipeline import load_config
from .repo import CaretPosition, Repository


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to usage error
        raise UsageError(message)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="mpgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_aug = sub.add_parser("augment", help="build the trigger-augmented dataset")
    p_aug.add_argument("--config", required=True)

    p_train = sub.add_parser("train", help="train the tool and vanilla models")
    p_train.add_argument("--config", required=True)

    p_gen = sub.add_parser("generate", help="generate one function at a position")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--repo", required=True, help="repository directory")
    p_gen.add_argument("--file", required=True, help="repository-relative file")
    p_gen.add_argument("--line", type=int, required=True)
    p_gen.add_argument("--column", type=int, required=True)
    p_gen.add_argument("--desc", required=True, help="function description")
    p_gen.add_argument("--vanilla", action="store_true", help="tool-free decoding")
    p_gen.add_argument("--trace", action="store_true", help="emit per-step source tags")

    p_eval = sub.add_parser("evaluate", help="run the benchmark for both models")
    p_eval.add_argument("--config", required=True)

    p_lint = sub.add_parser("lint", help="lint a repository")
    p_lint.add_argument("--repo", required=True)
    p_lint.add_argument("--file", default=None, help="limit to one file")

    p_comp = sub.add_parser("complete", help="print completion suggestions")
    p_comp.add_argument("--repo", required=True)
    p_comp.add_argument("--file", required=True)
    p_comp.add_argument("--line", type=int, required=True)
    p_comp.add_argument("--column", type=int, required=True)

    return parser


def _load_repo(path: str) -> Repository:
    if not os.path.isdir(path):
        raise DataError(f"repository directory {path!r} does not exist")
    return Repository.from_dir(path)


def _cmd_augment(args) -> int:
    config = load_config(args.config)
    stats = pipeline.run_augment(config)["stats"]
    if stats["pair_count"] == 0:
        print("warning: no docstring-bearing functions found; dataset is empty")
    print(f"dataset: {config.dataset}")
    print(f"pairs: {stats['pair_count']}")
    print(f"mean description tokens: {stats['mean_description_tokens']:.2f}")
    print(f"mean body tokens: {stats['mean_body_tokens']:.2f}")
    print(f"mean trigger count: {stats['mean_comp_count']:.2f}")
    return 0


def _cmd_train(args) -> int:
    config = load_config(args.config)
    _tool, _vanilla, stats = pipeline.run_train(config)
    for variant in ("tool", "vanilla"):
        s = stats[variant]
        print(
            f"{variant}: perplexity {s['perplexity']:.2f} "
            f"(nll/token {s['train_nll_per_token']:.4f}, "
            f"uniform {s['uniform_nll_per_token']:.4f})"
        )
    print(f"models: {config.tool_model_path}, {config.vanilla_model_path}")
    return 0


def _cmd_generate(args) -> int:
    config = load_config(args.config)
    model_path = config.vanilla_model_path if args.vanilla else config.tool_model_path
    if not os.path.exists(model_path):
        raise DataError(f"model {model_path!r} not found; run train first")
    model = load_model(model_path)
    repo = _load_repo(args.repo)
    pos = CaretPosition(args.file, args.line, args.column)
    gen_cfg = GenerationConfig(
        max_tokens=config.max_tokens,
        cache_enabled=config.cache,
        tool_enabled=not args.vanilla,
    )
    text, trace = generate(model, repo, args.desc, pos, gen_cfg)
    print(text)
    print(
        f"-- steps {trace.steps}, tool invocations {trace.tool_invocations}, "
        f"cache hits {trace.cache_hits}, dropped triggers {trace.dropped_triggers}",
        file=sys.stderr,
    )
    if args.trace:
        print(json.dumps(trace.to_dict(), sort_keys=True), file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    config = load_config(args.config)
    report = pipeline.run_evaluate(config)
    print(f"report: {config.report}")
    header = f"{'metric':<14}{'tool':>12}{'vanilla':>12}"
    print(header)
    for key in ("dep_cov", "val_rate", "val_rate_dep", "exact_match", "edit_sim", "bleu4"):
        row = [report["models"]["tool"][key], report["models"]["vanilla"][key]]
        cells = ["n/a" if v is None else f"{v:.4f}" for v in row]
        print(f"{key:<14}{cells[0]:>12}{cells[1]:>12}")
    return 0


def _cmd_lint(args) -> int:
    repo = _load_repo(args.repo)
    files = [args.file] if args.file else repo.paths()
    all_errors = []
    for f in files:
        if f not in repo.files:
            raise DataError(f"file {f!r} not found in repository")
        all_errors.extend(lint_check(repo, f))
    sys.stdout.write(serialize_lint_errors(all_errors))
    return 0


def _cmd_complete(args) -> int:
    repo = _load_repo(args.repo)
    for s in tool_complete(repo, CaretPosition(args.file, args.line, args.column)):
        print(s)
    return 0


_COMMANDS = {
    "augment": _cmd_augment,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "lint": _cmd_lint,
    "complete": _cmd_complete,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
