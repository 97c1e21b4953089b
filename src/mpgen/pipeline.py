"""End-to-end stages wiring corpus, augmentation, training and evaluation.

Everything here is deterministic by construction: repositories, files and
functions are processed in sorted order, no clocks or randomness enter any
artifact, and repeated runs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Iterable, Mapping, Optional, Sequence, TypeVar

from . import DataError, read_json, read_json_lines
from .analysis.complete import TaskContext, docstring_line, head_is_clean
from .decode import DecisionMemo, GenerationConfig, GenerationTrace, generate
from .lm.ngram import NGramModel, description_bucket, train
from .lm.tokenizer import token_strings, tokenize
from .lm.vocab import BOS_ID, COMP_ID, EOS_ID, Vocab, build_vocab
from .metrics import EvalPair, evaluate_pairs, ground_truth
from .minilang.parser import FunctionDef, extract_functions
from .minilang.render import render_tokens
from .repo import CaretPosition, Repository, load_repositories
from .trigger import augment_corpus, save_dataset


@dataclass
class RunConfig:
    train_roots: list[str]
    eval_roots: list[str]
    order: int = 3
    alpha: float = 0.1
    buckets: int = 16
    max_tokens: int = 256
    cache: bool = True
    dataset: str = "out/dataset.jsonl"
    model_dir: str = "out/models"
    report: str = "out/report.json"
    tasks: Optional[str] = None

    def __post_init__(self):
        for name in ("train_roots", "eval_roots"):
            # a bare string would be read as one root per character
            roots = getattr(self, name)
            if type(roots) is not list or not all(type(r) is str for r in roots):
                raise DataError(f"config field {name!r} must be a list of paths, not {roots!r}")
        for name in ("order", "buckets", "max_tokens"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # bools are rejected too
                raise DataError(f"config field {name!r} must be an integer >= 1, not {value!r}")
        if type(self.alpha) not in (int, float) or not 0 < self.alpha < math.inf:
            raise DataError(f"config field 'alpha' must be a finite number > 0, not {self.alpha!r}")
        for name in ("dataset", "model_dir", "report"):
            value = getattr(self, name)
            if type(value) is not str:
                raise DataError(f"config field {name!r} must be a path, not {value!r}")
        if self.tasks is not None and type(self.tasks) is not str:
            raise DataError(f"config field 'tasks' must be a path or null, not {self.tasks!r}")
        if type(self.cache) is not bool:
            raise DataError(f"config field 'cache' must be true or false, not {self.cache!r}")

    @property
    def dataset_meta(self) -> str:
        return self.dataset + ".meta.json"

    @property
    def tool_model_path(self) -> str:
        return os.path.join(self.model_dir, "model_tool.json")

    @property
    def vanilla_model_path(self) -> str:
        return os.path.join(self.model_dir, "model_vanilla.json")


CORPUS_ROOT_ENV = "MPGEN_CORPUS_ROOT"


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise DataError(f"config {path!r} must be a JSON object")
    if overrides:
        raw.update(overrides)
    base = os.path.dirname(os.path.abspath(path))
    corpus_base = os.environ.get(CORPUS_ROOT_ENV) or base

    def resolve(p: str, root: str) -> str:
        return p if os.path.isabs(p) else os.path.join(root, p)

    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise DataError(f"unknown config fields: {sorted(unknown)}")
    missing = [f.name for f in fields(RunConfig) if f.default is MISSING and f.name not in raw]
    if missing:
        raise DataError(f"missing config fields: {missing}")
    cfg = RunConfig(**raw)
    cfg.train_roots = [resolve(p, corpus_base) for p in cfg.train_roots]
    cfg.eval_roots = [resolve(p, corpus_base) for p in cfg.eval_roots]
    cfg.dataset = resolve(cfg.dataset, base)
    cfg.model_dir = resolve(cfg.model_dir, base)
    cfg.report = resolve(cfg.report, base)
    if cfg.tasks is not None:
        cfg.tasks = resolve(cfg.tasks, base)
    return cfg


def collect_repos(roots: Iterable[str]) -> list[tuple[str, Repository]]:
    """(name, repository) of every repository under the roots. A name is a
    task label's first part, so two roots giving one name are a data error."""
    out: dict[str, Repository] = {}
    for root in sorted(roots):
        if not os.path.isdir(root):
            raise DataError(f"corpus root {root!r} does not exist")
        for name, repo in load_repositories(root):
            if out.setdefault(name, repo) is not repo:
                raise DataError(f"repository {name!r} is under two corpus roots, the second {root!r}")
    return list(out.items())


def corpus_vocab(config: RunConfig, *, descriptions: Optional[dict[str, list[str]]] = None) -> Vocab:
    """Vocabulary over the train and eval corpora.

    Includes every source file plus the description text of every
    docstring-bearing function: docstrings sit inside files as single
    string-literal tokens, while descriptions are tokenized as prose, so
    their words need their own vocabulary entries. Each distinct description
    is split once; descriptions, when given, receives those splits by text.
    """
    streams: list[list[str]] = []
    splits: dict[str, list[str]] = {}
    # one call per root list: a directory may be both a train and an eval root
    repos = collect_repos(config.train_roots) + collect_repos(config.eval_roots)
    for _, repo in repos:
        for path in repo.paths():
            # the lex the parse below reads too
            streams.append(token_strings(repo.text(path), lexed=repo.lex(path)))
            for func in extract_functions(repo.module(path)):
                if func.docstring is not None and func.description not in splits:
                    splits[func.description] = token_strings(func.description)
    if not streams:
        raise DataError("no source files found under the configured corpus roots")
    if descriptions is not None:
        descriptions.update(splits)
    return build_vocab(streams + list(splits.values()))


def run_augment(config: RunConfig) -> dict:
    """Write the dataset of the train repositories and its meta; returns the meta."""
    records, meta = augment_corpus(collect_repos(config.train_roots))
    os.makedirs(os.path.dirname(os.path.abspath(config.dataset)), exist_ok=True)
    save_dataset(records, meta, config.dataset, config.dataset_meta)
    return meta


Pairs = list[tuple[list[int], list[int]]]
K = TypeVar("K")


def tokenize_records(
    records: Sequence[dict], vocab: Vocab, descriptions: Optional[Mapping[str, Sequence[str]]] = None
) -> Pairs:
    """(description ids, augmented body ids) of every dataset record. A
    description in descriptions, text to token strings as `corpus_vocab`
    splits it, is not lexed again."""
    splits = descriptions or {}

    def description_ids(text: str) -> list[int]:
        split = splits.get(text)
        return tokenize(text, vocab) if split is None else [vocab.id(s) for s in split]

    return [(description_ids(r["description"]), tokenize(r["augmented_body"], vocab)) for r in records]


def variant_pairs(tokenized: Sequence[tuple[K, list[int]]], variant: str) -> list[tuple[K, list[int]]]:
    """(description key, <BOS>...<EOS> target ids) for one model variant; the
    key, the description's ids or its bucket, is passed through."""
    pairs = []
    for key, body in tokenized:
        if variant == "vanilla":
            body = [t for t in body if t != COMP_ID]
        pairs.append((key, [BOS_ID] + body + [EOS_ID]))
    return pairs


def training_pairs(records: Sequence[dict], vocab: Vocab, variant: str) -> Pairs:
    return variant_pairs(tokenize_records(records, vocab), variant)


def run_train(config: RunConfig) -> tuple[NGramModel, NGramModel, dict]:
    from .lm.ngram import save_model
    from .trigger import load_dataset_records

    if not os.path.exists(config.dataset):
        raise DataError(f"dataset {config.dataset!r} not found; run augment first")
    records = load_dataset_records(config.dataset)
    if not records:
        raise DataError(f"dataset {config.dataset!r} is empty")
    descriptions: dict[str, list[str]] = {}
    vocab = corpus_vocab(config, descriptions=descriptions)
    # the smoothing mass; an integer alpha compares exactly, a float one overflows to inf
    if not config.alpha * vocab.size <= sys.float_info.max:
        raise DataError(
            f"smoothing alpha {config.alpha!r} times the vocabulary size {vocab.size}"
            " overflows a float; use a smaller alpha"
        )
    os.makedirs(config.model_dir, exist_ok=True)
    stats: dict = {}
    models = []
    # each record's text lexed and its bucket computed once, for both variants
    tokenized = [
        (description_bucket(desc, vocab, config.buckets), body)
        for desc, body in tokenize_records(records, vocab, descriptions)
    ]
    for variant in ("tool", "vanilla"):
        pairs = variant_pairs(tokenized, variant)
        model = train(pairs, config.order, config.alpha, vocab, buckets=config.buckets)
        nll, n_tokens = model.corpus_nll(pairs)
        stats[variant] = {
            "train_nll_per_token": nll / n_tokens,
            "uniform_nll_per_token": math.log(vocab.size),
            "perplexity": math.exp(nll / n_tokens),
        }
        path = config.tool_model_path if variant == "tool" else config.vanilla_model_path
        save_model(model, path)
        models.append(model)
    return models[0], models[1], stats


@dataclass
class Task:
    label: str
    repo_name: str
    snapshot: Repository
    pos: CaretPosition
    description: str
    gt: str
    repo: Repository   # the loaded repository that snapshot blanks a function of
    func: FunctionDef  # that function, as repo parses it

    @property
    def file(self) -> str:
        return self.pos.file

    def pair(self, pred: str) -> EvalPair:
        """The task's pair with a prediction."""
        return EvalPair(gt=self.gt, pred=pred, repo=self.snapshot, pos=self.pos, label=self.label)

    def context(self) -> TaskContext:
        """A new task context at the caret, from the loaded file's analysis.
        `run_evaluate` makes one for each tool-model generation and one to
        score both models' predictions."""
        return TaskContext.of_function(self.repo, self.func, self.pos)


def _blank_function(
    repo: Repository, file: str, func: FunctionDef, *,
    repo_name: str, label: str, description: str, gt: str,
) -> Task:
    """The task of func: its snapshot with the function body removed, and the
    caret on its one reserved line.

    Every task has the shape `TaskContext.at` accepts: the def line, the
    docstring alone on the next line, then the reserved line, both at the
    block's indentation. Blank lines around the docstring, and anything else
    on its line (trailing spaces, illegal characters the parser drops), are
    not kept. The docstring's line is the first non-blank one below the def
    line, since a function whose block opens with anything else has none.
    """
    lines = repo.text(file).split("\n")
    doc_line = next(line for line in lines[func.line:] if line.strip(" "))
    column = len(doc_line) - len(doc_line.lstrip(" "))
    blanked = (
        lines[: func.line] + [docstring_line(column, func.docstring), " " * column]
        + lines[func.end_line:]
    )
    return Task(
        label=label, repo_name=repo_name, snapshot=repo.with_text(file, "\n".join(blanked)),
        pos=CaretPosition(file, func.line + 2, column), description=description, gt=gt,
        repo=repo, func=func,
    )


def _tasks_of(repo: Repository, path: str) -> dict[int, FunctionDef]:
    """The functions of a file that make benchmark tasks, by caret line (two
    below the def), in source order: each has a docstring and a body below
    it, and its outermost head line is clean (`head_is_clean`)."""
    lines = repo.text(path).split("\n")
    return {
        f.line + 2: f for f in extract_functions(repo.module(path))
        if f.docstring is not None and f.body_tokens and head_is_clean(repo, path, lines, f)
    }


def derive_tasks(config: RunConfig) -> list[Task]:
    """Benchmark tasks: every docstring-bearing function in the eval corpus."""
    tasks: list[Task] = []
    for name, repo in collect_repos(config.eval_roots):
        for path in repo.paths():
            for func in _tasks_of(repo, path).values():
                tasks.append(_blank_function(
                    repo, path, func, repo_name=name, label=f"{name}/{path}:{func.name}",
                    description=func.description, gt=render_tokens(func.body_tokens),
                ))
    return tasks


# The fields a task record must have, each with its type. A record's line is
# its task's caret line, two below the def.
_TASK_FIELDS = (
    ("label", str), ("repo", str), ("file", str), ("line", int), ("description", str), ("gt", str)
)


def load_tasks(path: str, config: RunConfig) -> list[Task]:
    repos = dict(collect_repos(config.eval_roots))
    carets: dict[tuple[str, str], dict[int, FunctionDef]] = {}  # a file's tasks, found once
    tasks: list[Task] = []
    for rec, where in read_json_lines(path, "tasks file", "task record", _TASK_FIELDS):
        repo = repos.get(rec["repo"])
        if repo is None or rec["file"] not in repo.files:
            raise DataError(f"task record {where} names no file of the eval corpus")
        key = (rec["repo"], rec["file"])
        if key not in carets:
            carets[key] = _tasks_of(repo, rec["file"])
        func = carets[key].get(rec["line"])
        if func is None:
            raise DataError(f"task record {where} names no task's caret line")
        tasks.append(_blank_function(
            repo, rec["file"], func, repo_name=rec["repo"], label=rec["label"],
            description=rec["description"], gt=rec["gt"],
        ))
    return tasks


def run_model_over_tasks(
    model: NGramModel,
    tasks: Sequence[Task],
    gen_cfg: GenerationConfig,
) -> tuple[list[EvalPair], list[GenerationTrace]]:
    pairs: list[EvalPair] = []
    traces: list[GenerationTrace] = []
    memo = DecisionMemo(model)  # for this run only
    for task in tasks:
        # a vanilla generation never asks the tool, so it needs no context
        pred, trace = generate(
            model, task.snapshot, task.description, task.pos, gen_cfg,
            task=task.context() if gen_cfg.tool_enabled else None, memo=memo,
        )
        pairs.append(task.pair(pred))
        traces.append(trace)
    return pairs, traces


def trace_summary(traces: Sequence[GenerationTrace]) -> dict:
    return {
        "steps": sum(t.steps for t in traces),
        "tool_invocations": sum(t.tool_invocations for t in traces),
        "cache_hits": sum(t.cache_hits for t in traces),
        "dropped_triggers": sum(t.dropped_triggers for t in traces),
        "truncated": sum(1 for t in traces if t.truncated),
        "mean_triggers_per_task": (
            sum(t.tool_invocations + t.cache_hits for t in traces) / len(traces)
            if traces
            else 0.0
        ),
    }


def run_evaluate(config: RunConfig) -> dict:
    from .lm.ngram import load_model

    for path in (config.tool_model_path, config.vanilla_model_path):
        if not os.path.exists(path):
            raise DataError(f"model {path!r} not found; run train first")
    tool_model = load_model(config.tool_model_path)
    if config.tasks is not None:
        tasks = load_tasks(config.tasks, config)
    else:
        tasks = derive_tasks(config)
    if not tasks:
        raise DataError("no benchmark tasks found in the eval corpus")

    def run(model: NGramModel, tool_enabled: bool) -> tuple[list[EvalPair], list[GenerationTrace]]:
        return run_model_over_tasks(model, tasks, GenerationConfig(
            max_tokens=config.max_tokens, cache_enabled=config.cache, tool_enabled=tool_enabled
        ))

    # the vanilla model is loaded once the tool model's run is done, so the
    # two are never held at once; scoring reads only the tool model's vocabulary
    vocab = tool_model.vocab
    runs = {"tool": run(tool_model, True)}
    del tool_model
    runs["vanilla"] = run(load_model(config.vanilla_model_path), False)
    # each task's rows, one per model, scored from a new context made when
    # the task's turn comes
    rows = ground_truth((
        (task.context(), [pairs[i] for pairs, _traces in runs.values()])
        for i, task in enumerate(tasks)
    ), vocab)
    report: dict = {"n_tasks": len(tasks), "models": {}}
    for judged, (variant, (pairs, traces)) in zip(zip(*rows), runs.items(), strict=True):
        entry = evaluate_pairs(pairs, vocab, judged).to_dict()
        entry["traces"] = trace_summary(traces)
        report["models"][variant] = entry

    os.makedirs(os.path.dirname(os.path.abspath(config.report)), exist_ok=True)
    with open(config.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return report
