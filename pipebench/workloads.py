"""The three workloads: evaluate, large-repo and offline.

Each workload is a closed loop with one client in one process: every call
into mpgen waits for the previous call to return. A workload object

- prepares once per run, untimed: it loads the committed ``out/`` golden and
  whatever reference data its checks need, and writes its seeded inputs (a
  tasks file, padded repositories);
- ``run_pass(directory, probe)`` writes a config whose outputs go to
  ``directory``, runs the program under ``probe`` (see probe.py) and then,
  outside the probe, checks the outputs against the golden. It returns the
  number of failed operations.

Each workload also names the probe stages whose time its metrics use:
``ops_stage`` for the operations, and ``token_stage`` for the tokens (None
when they are the tokens emitted by the ``generate`` calls).

mpgen is called through module attributes (``pipeline.run_evaluate``, not a
``from`` import) so that the probe and the tracer, which rebind those
attributes, see the calls this file makes.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import shutil
from pathlib import Path

from mpgen import decode, metrics, pipeline
from mpgen.lm import ngram

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = ROOT / "out"
BASE_CONFIG = ROOT / "configs" / "demo.json"
N_FILLERS = 8
FILLER_PREFIX = "filler_"
OFFLINE_OUTPUTS = (
    "dataset.jsonl",
    "dataset.jsonl.meta.json",
    "models/model_tool.json",
    "models/model_vanilla.json",
)


def _write_config(directory: Path, **overrides) -> Path:
    """Config input for one pass: the bundled settings, outputs in `directory`."""
    with open(BASE_CONFIG, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.update(
        train_roots=[str(CORPUS / "train")],
        eval_roots=[str(CORPUS / "eval")],
        dataset=str(directory / "out" / "dataset.jsonl"),
        model_dir=str(directory / "out" / "models"),
        report=str(directory / "out" / "report.json"),
    )
    raw.update(overrides)
    (directory / "out").mkdir(parents=True, exist_ok=True)
    path = directory / "config.json"
    path.write_text(json.dumps(raw, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def seeded_order(tasks: list, seed: int) -> list:
    """The tasks in a seeded order that leaves the program's work unchanged.

    `load_tasks` builds each task's snapshot from its repository as parsed
    so far, so the order in which a repository's files first appear decides
    how many files each snapshot parses again: two unconstrained shuffles of
    the `evaluate` tasks took 1,487 and 1,931 `parse` calls a pass. Here
    each repository's tasks stay grouped by file, in the order
    `derive_tasks` gives (`tasks` must be in that order); the seed shuffles
    the tasks within each file and interleaves the repositories at random.
    """
    rng = random.Random(seed)
    sequences: dict[str, list] = {}
    for _key, group in itertools.groupby(tasks, key=lambda t: (t.repo_name, t.file)):
        group = list(group)
        rng.shuffle(group)
        sequences.setdefault(group[0].repo_name, []).extend(group)
    slots = [name for name, seq in sequences.items() for _ in seq]
    rng.shuffle(slots)
    queues = {name: iter(seq) for name, seq in sequences.items()}
    return [next(queues[name]) for name in slots]


def _reference_config():
    """The bundled config, with corpus roots pinned to this checkout."""
    return pipeline.load_config(
        str(BASE_CONFIG),
        {"train_roots": [str(CORPUS / "train")], "eval_roots": [str(CORPUS / "eval")]},
    )


def _golden_report() -> dict:
    with open(GOLDEN / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _aggregates(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k != "pairs"}


def mismatched_labels(entry: dict, golden_entry: dict) -> set[str]:
    """Labels whose per-pair entry differs from the golden one.

    Pairs are matched by label, so any task order passes. If the aggregate
    fields (which do not depend on order) differ while no pair does, every
    label counts as failed.
    """
    got = {p["label"]: p for p in entry["pairs"]}
    want = {p["label"]: p for p in golden_entry["pairs"]}
    bad = {label for label in got.keys() | want.keys() if got.get(label) != want.get(label)}
    if not bad and _aggregates(entry) != _aggregates(golden_entry):
        bad = set(want)
    return bad


def task_record(task) -> dict:
    """One line of the tasks-file input that `pipeline.load_tasks` reads."""
    return {
        "label": task.label,
        "repo": task.repo_name,
        "file": task.file,
        "line": task.pos.line,
        "column": task.pos.column,
        "description": task.description,
        "gt": task.gt,
    }


def write_tasks(tasks, seed: int, path: Path) -> Path:
    """The tasks in seeded order (see `seeded_order`), as a tasks file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(json.dumps(task_record(t), sort_keys=True) + "\n" for t in seeded_order(tasks, seed)),
        encoding="utf-8",
    )
    return path


class Evaluate:
    """The paper's experiment, run as `mpgen evaluate` runs it.

    A pass is one `pipeline.run_evaluate` call: both models generate for all
    126 held-out tasks and every prediction is scored. The seed permutes the
    task order through the tasks file; an operation is one task.
    """

    name = "evaluate"
    ops_stage = "pass"
    token_stage = None

    def __init__(self, seed: int, work: Path):
        self.golden = _golden_report()
        tasks = pipeline.derive_tasks(_reference_config())
        self.ops = len(tasks)
        self.tasks_file = write_tasks(tasks, seed, work / "inputs" / "tasks.jsonl")

    def run_pass(self, directory: Path, probe) -> int:
        cfg_path = _write_config(
            directory, model_dir=str(GOLDEN / "models"), tasks=str(self.tasks_file)
        )
        with probe:
            pipeline.run_evaluate(pipeline.load_config(str(cfg_path)))

        with open(directory / "out" / "report.json", "r", encoding="utf-8") as fh:
            written = json.load(fh)
        if written["n_tasks"] != self.golden["n_tasks"]:
            return self.ops
        failed: set[str] = set()
        for variant in ("tool", "vanilla"):
            failed |= mismatched_labels(
                written["models"][variant], self.golden["models"][variant]
            )
        return len(failed)


def filler_modules(seed: int, repo_name: str, train_root: Path, n: int = N_FILLERS):
    """Seeded filler modules for one held-out repository.

    Fillers are train-split files under new names (`filler_NN.mp`), so no
    held-out file imports them. The train files, sorted by size, are cut
    into `n` strata of about equal count, and the seed draws one file from
    each: every seed then pads a repository with about the same amount of
    code. (Drawn from all files at once, the padding of one seed was 20%
    larger than that of another, and its pass 12% slower.)
    """
    texts = sorted(
        (len(text), str(p), text)
        for p in train_root.glob("*/*.mp")
        for text in (p.read_text(encoding="utf-8"),)
    )
    rng = random.Random(f"{seed}:{repo_name}")
    strata = [texts[i * len(texts) // n:(i + 1) * len(texts) // n] for i in range(n)]
    return [
        (f"{FILLER_PREFIX}{i:02d}.mp", rng.choice(stratum)[2])
        for i, stratum in enumerate(strata)
    ]


def pad_corpus(seed: int, src_root: Path, train_root: Path, dest_root: Path) -> None:
    """Copy every held-out repository to dest_root and add its fillers."""
    for repo_dir in sorted(p for p in src_root.iterdir() if p.is_dir()):
        dest = dest_root / repo_dir.name
        shutil.copytree(repo_dir, dest)
        for name, text in filler_modules(seed, repo_dir.name, train_root):
            (dest / name).write_text(text, encoding="utf-8")


class LargeRepo:
    """Tool-integrated generation alone, over repositories padded with fillers.

    A pass loads the config, the tasks (over the padded corpus) and the tool
    model, then calls `pipeline.run_model_over_tasks`, the generation loop of
    `mpgen evaluate`. The seed picks each repository's fillers and permutes
    the task order; an operation is one generate call. Predictions are
    scored after the probed part against the unpadded tasks, and must match
    the golden entries.
    """

    name = "large-repo"
    ops_stage = "pass"
    token_stage = None

    def __init__(self, seed: int, work: Path):
        self.golden_tool = _golden_report()["models"]["tool"]
        tasks = pipeline.derive_tasks(_reference_config())
        self.reference = {t.label: t for t in tasks}
        self.ops = len(tasks)
        # Written once per run: writing them in every pass made the set-up
        # time a measure of file-system noise (0.08-0.21 s).
        self.eval_root = work / "inputs" / "eval"
        pad_corpus(seed, CORPUS / "eval", CORPUS / "train", self.eval_root)
        self.tasks_file = write_tasks(tasks, seed, work / "inputs" / "tasks.jsonl")

    def run_pass(self, directory: Path, probe) -> int:
        cfg_path = _write_config(
            directory,
            eval_roots=[str(self.eval_root)],
            model_dir=str(GOLDEN / "models"),
            tasks=str(self.tasks_file),
        )
        with probe:
            config = pipeline.load_config(str(cfg_path))
            tasks = pipeline.load_tasks(config.tasks, config)
            tool = ngram.load_model(config.tool_model_path)
            gen_cfg = decode.GenerationConfig(
                max_tokens=config.max_tokens, cache_enabled=config.cache, tool_enabled=True
            )
            pairs, traces = pipeline.run_model_over_tasks(tool, tasks, gen_cfg)

        scored = [dataclasses.replace(p, repo=self.reference[p.label].snapshot) for p in pairs]
        entry = metrics.evaluate_pairs(scored, tool.vocab).to_dict()
        entry["traces"] = pipeline.trace_summary(traces)
        return len(mismatched_labels(json.loads(json.dumps(entry)), self.golden_tool))


class Offline:
    """`augment` then `train` on the bundled train repositories.

    The outputs must equal the committed dataset and models byte for byte,
    so the seed changes nothing here. An operation is one training pair.
    """

    name = "offline"
    ops_stage = "augment"
    token_stage = "train"

    def __init__(self, seed: int, work: Path):
        self.golden = {rel: (GOLDEN / rel).read_bytes() for rel in OFFLINE_OUTPUTS}
        records = [
            json.loads(line)
            for line in self.golden["dataset.jsonl"].decode("utf-8").splitlines()
            if line.strip()
        ]
        self.ops = len(records)
        vocab = pipeline.corpus_vocab(_reference_config())
        # Tokens the two models count: every target position after <BOS>.
        self.tokens = sum(
            len(target) - 1
            for variant in ("tool", "vanilla")
            for _desc, target in pipeline.training_pairs(records, vocab, variant)
        )

    def run_pass(self, directory: Path, probe) -> int:
        cfg_path = _write_config(directory)
        with probe:
            config = pipeline.load_config(str(cfg_path))
            probe.stage("augment")
            pipeline.run_augment(config)
            probe.stage("train")
            pipeline.run_train(config)

        out_dir = directory / "out"
        if any((out_dir / rel).read_bytes() != want for rel, want in self.golden.items()):
            return self.ops
        return 0


WORKLOADS = {w.name: w for w in (Evaluate, LargeRepo, Offline)}
