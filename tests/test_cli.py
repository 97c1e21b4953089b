import contextlib
import functools
import io
import json
import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mpgen.cli import main

from conftest import version_1_payload

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN_MODELS = ROOT / "out" / "models"


def write_config(tmp_path: Path, **overrides) -> str:
    cfg = {
        "train_roots": [str(CORPUS / "train")],
        "eval_roots": [str(CORPUS / "eval")],
        "dataset": str(tmp_path / "dataset.jsonl"),
        "model_dir": str(tmp_path / "models"),
        "report": str(tmp_path / "report.json"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory, capsys_disabled=None):
    tmp = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp)
    assert main(["augment", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 0
    return tmp, cfg


def test_augment_writes_dataset_and_stats(cli_workspace, capsys):
    tmp, cfg = cli_workspace
    assert (tmp / "dataset.jsonl").exists()
    meta = json.loads((tmp / "dataset.jsonl.meta.json").read_text())
    assert meta["stats"]["pair_count"] >= 50
    records = [json.loads(l) for l in (tmp / "dataset.jsonl").read_text().splitlines() if l]
    assert len(records) == meta["stats"]["pair_count"]


def test_augment_prints_the_stats_it_writes_computed_once(tmp_path, capsys, monkeypatch):
    """The printed stats are the meta file's, and one augment computes them
    once: each record's description and body are split into tokens once."""
    from mpgen import trigger

    calls = 0
    real = trigger.token_strings

    def counting(text, **kwargs):
        nonlocal calls
        calls += 1
        return real(text, **kwargs)

    monkeypatch.setattr(trigger, "token_strings", counting)
    cfg = write_config(tmp_path)
    assert main(["augment", "--config", cfg]) == 0
    stats = json.loads((tmp_path / "dataset.jsonl.meta.json").read_text())["stats"]
    assert capsys.readouterr().out.splitlines() == [
        f"dataset: {tmp_path / 'dataset.jsonl'}",
        f"pairs: {stats['pair_count']}",
        f"mean description tokens: {stats['mean_description_tokens']:.2f}",
        f"mean body tokens: {stats['mean_body_tokens']:.2f}",
        f"mean trigger count: {stats['mean_comp_count']:.2f}",
    ]
    assert calls == 2 * stats["pair_count"] > 0


def test_train_lexes_each_corpus_file_once_and_hashes_each_token_once(cli_workspace, capsys, monkeypatch):
    """One train lexes each corpus file once, for both its token strings and
    its parse, and hashes each distinct description token once; each record's
    bucket is computed once, and train and NLL of both variants read it."""
    from mpgen.lm import ngram, tokenizer
    from mpgen.lm.ngram import load_model
    from mpgen.minilang import lexer
    from mpgen.pipeline import collect_repos
    from mpgen.trigger import load_dataset_records

    tmp, cfg = cli_workspace
    lexed = Counter()
    real = lexer.lex

    def counting(text, *args, **kwargs):
        lexed[text] += 1
        return real(text, *args, **kwargs)

    monkeypatch.setattr(lexer, "lex", counting)
    monkeypatch.setattr(tokenizer, "lex", counting)
    ngram._fnv1a.cache_clear()
    assert main(["train", "--config", cfg]) == 0
    files = Counter(
        repo.text(path)
        for _, repo in collect_repos([str(CORPUS / "train"), str(CORPUS / "eval")])
        for path in repo.paths()
    )
    assert sum(files.values()) == 60
    assert {text: lexed[text] for text in files} == files

    vocab = load_model(str(tmp / "models" / "model_tool.json")).vocab
    descriptions = [r["description"] for r in load_dataset_records(str(tmp / "dataset.jsonl"))]
    tokens = [vocab.token(i) for d in descriptions for i in tokenizer.tokenize(d, vocab)]
    info = ngram._fnv1a.cache_info()
    assert info.misses == len(set(tokens))
    assert info.hits + info.misses == len(tokens)


def test_augment_empty_corpus_warns_not_errors(tmp_path, capsys):
    bare = tmp_path / "bare" / "repo00"
    bare.mkdir(parents=True)
    (bare / "only.mp").write_text("def f():\n    return 1\n")
    cfg = write_config(tmp_path, train_roots=[str(tmp_path / "bare")])
    assert main(["augment", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "warning" in out


def test_train_writes_both_models(cli_workspace):
    tmp, _cfg = cli_workspace
    assert (tmp / "models" / "model_tool.json").exists()
    assert (tmp / "models" / "model_vanilla.json").exists()


def test_train_perplexity_beats_uniform(cli_workspace, capsys):
    _tmp, cfg = cli_workspace
    assert main(["train", "--config", cfg]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if "nll/token" in line:
            nll = float(line.split("nll/token")[1].split(",")[0])
            uniform = float(line.split("uniform")[1].strip(" )"))
            assert nll < uniform


def test_generate_tool_mode_lints_clean(cli_workspace, capsys):
    _tmp, cfg = cli_workspace
    repo = str(CORPUS / "eval" / "repo14")
    # blank line position inside a getter of eval/repo14/core.mp
    from mpgen.pipeline import load_config, derive_tasks

    tasks = derive_tasks(load_config(cfg))
    # a getter task: the demo case the tool-integrated model nails
    task = next(
        t for t in tasks
        if t.repo_name == "repo14" and "core.mp" in t.label and t.gt.startswith("return self._")
    )
    code = main(
        [
            "generate",
            "--config", cfg,
            "--repo", repo,
            "--file", task.file,
            "--line", str(task.pos.line),
            "--column", str(task.pos.column),
            "--desc", task.description,
            "--trace",
        ]
    )
    assert code == 0
    out, err = capsys.readouterr()
    assert out.strip()
    assert "steps" in err
    trace = json.loads(err.splitlines()[-1])
    assert trace["steps"] >= 1
    assert set(trace["tags"]) <= {"model", "tool-selection"}

    # the tool-mode output lints clean when spliced into the demo repo
    from mpgen.analysis.complete import TaskContext
    from mpgen.metrics import pair_is_valid

    pred = out.rstrip("\n")
    assert pair_is_valid(TaskContext.at(task.snapshot, task.pos).analyse(pred))


def test_generate_missing_model_is_data_error(tmp_path, capsys):
    cfg = write_config(tmp_path, model_dir=str(tmp_path / "nomodels"))
    code = main(
        [
            "generate",
            "--config", cfg,
            "--repo", str(CORPUS / "eval" / "repo14"),
            "--file", "core.mp",
            "--line", "1",
            "--column", "0",
            "--desc", "d",
        ]
    )
    assert code == 2


def _generate_args(cfg: str, file: str, line: int, *extra: str) -> list[str]:
    return [
        "generate",
        "--config", cfg,
        "--repo", str(CORPUS / "eval" / "repo14"),
        "--file", file,
        "--line", str(line),
        "--column", "0",
        "--desc", "d",
        *extra,
    ]


@pytest.mark.parametrize("mode", [[], ["--vanilla"]], ids=["tool", "vanilla"])
@pytest.mark.parametrize(
    "file,line,message",
    [("nope.mp", 1, "no such file"), ("core.mp", 999, "line 999 out of range")],
    ids=["missing-file", "line-out-of-range"],
)
def test_generate_caret_outside_repository_is_data_error(tmp_path, capsys, mode, file, line, message):
    cfg = write_config(tmp_path, model_dir=str(GOLDEN_MODELS))
    assert main(_generate_args(cfg, file, line, *mode)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def _edited_models(tmp_path: Path, edit) -> Path:
    """A model directory with both golden models, each changed by edit(payload)."""
    models = tmp_path / "models"
    models.mkdir()
    for name in ("model_tool.json", "model_vanilla.json"):
        payload = json.loads((GOLDEN_MODELS / name).read_text())
        edit(payload)
        (models / name).write_text(json.dumps(payload))
    return models


def _replace_vocab_entry(old: str, new):
    def edit(payload):
        payload["vocab"][payload["vocab"].index(old)] = new

    return edit


def _swap_vocab_entries(a: str, b: str):
    def edit(payload):
        vocab = payload["vocab"]
        i, j = vocab.index(a), vocab.index(b)
        vocab[i], vocab[j] = b, a

    return edit


def test_generate_model_with_non_string_vocab_entry_is_data_error(tmp_path, capsys):
    models = _edited_models(tmp_path, _replace_vocab_entry("return", 7))
    cfg = write_config(tmp_path, model_dir=str(models))
    assert main(_generate_args(cfg, "core.mp", 1, "--vanilla")) == 2
    assert "vocabulary entries must be strings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [_swap_vocab_entries("<COMP>", "return"), _replace_vocab_entry("self", "return")],
    ids=["reserved-token-moved", "repeated-entry"],
)
def test_generate_model_with_bad_vocabulary_layout_is_data_error(tmp_path, capsys, edit):
    cfg = write_config(tmp_path, model_dir=str(_edited_models(tmp_path, edit)))
    assert main(_generate_args(cfg, "core.mp", 1)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "must open with the reserved tokens and repeat no entry" in err


def _set_field(field: str, value):
    def edit(payload):
        payload[field] = value

    return edit


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("alpha", float("inf"), "smoothing alpha must be a finite number > 0, not inf"),
        ("alpha", "0.1", "smoothing alpha must be a finite number > 0, not '0.1'"),
        ("alpha", True, "smoothing alpha must be a finite number > 0, not True"),
        ("order", 3.9, "order and buckets must be integers, not 3.9 and 16"),
        ("buckets", "16", "order and buckets must be integers, not 3 and '16'"),
    ],
    ids=["alpha-infinity", "alpha-string", "alpha-bool", "order-float", "buckets-string"],
)
def test_generate_model_with_bad_header_field_is_data_error(tmp_path, capsys, field, value, message):
    """The order, buckets and alpha of a model file follow `RunConfig`'s
    type rules: integers that are not bools, and a finite alpha."""
    models = _edited_models(tmp_path, _set_field(field, value))
    cfg = write_config(tmp_path, model_dir=str(models))
    assert main(_generate_args(cfg, "core.mp", 1)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: malformed model file ") and err.count("\n") == 1
    assert err.endswith(f": {message}\n")


def test_evaluate_report_shape(cli_workspace, capsys):
    tmp, cfg = cli_workspace
    assert main(["evaluate", "--config", cfg]) == 0
    report = json.loads((tmp / "report.json").read_text())
    assert report["n_tasks"] >= 100
    for variant in ("tool", "vanilla"):
        entry = report["models"][variant]
        for key in ("dep_cov", "val_rate", "val_rate_dep", "exact_match", "edit_sim", "bleu4"):
            assert key in entry
        assert entry["n"] == report["n_tasks"]


def _model_dir(tmp_path: Path, tool_bytes: bytes) -> Path:
    models = tmp_path / "models"
    models.mkdir()
    (models / "model_tool.json").write_bytes(tool_bytes)
    (models / "model_vanilla.json").write_bytes((GOLDEN_MODELS / "model_vanilla.json").read_bytes())
    return models


def test_evaluate_truncated_model_is_data_error(tmp_path, capsys):
    blob = (GOLDEN_MODELS / "model_tool.json").read_bytes()
    models = _model_dir(tmp_path, blob[: len(blob) // 2])
    cfg = write_config(tmp_path, model_dir=str(models))
    assert main(["evaluate", "--config", cfg]) == 2
    assert "cannot read model file" in capsys.readouterr().err


def test_evaluate_wrong_model_version_is_data_error(tmp_path, capsys):
    """A later version, and version 1, which also stored the global pool as
    `-1:k` tables, exit 2: an old model is retrained, not converted."""
    payload = json.loads((GOLDEN_MODELS / "model_tool.json").read_text())
    models = _model_dir(tmp_path, b"")
    cfg = write_config(tmp_path, model_dir=str(models))
    for written in ({**payload, "version": 99}, version_1_payload(payload)):
        (models / "model_tool.json").write_text(json.dumps(written))
        assert main(["evaluate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"error: model format version {written['version']} unsupported (expected 2)\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("entry", [{"": 5}, ["x"]], ids=["count-not-object", "list"])
def test_evaluate_malformed_table_entry_is_data_error(tmp_path, capsys, entry):
    payload = json.loads((GOLDEN_MODELS / "model_tool.json").read_text())
    payload["tables"] = {"0:1": entry}
    models = _model_dir(tmp_path, json.dumps(payload).encode())
    cfg = write_config(tmp_path, model_dir=str(models))
    assert main(["evaluate", "--config", cfg]) == 2
    assert "malformed model file" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("field", ["order", "buckets"])
def test_evaluate_model_scalar_below_one_is_data_error(tmp_path, capsys, field):
    payload = json.loads((GOLDEN_MODELS / "model_tool.json").read_text())
    payload[field] = 0
    models = _model_dir(tmp_path, json.dumps(payload).encode())
    cfg = write_config(tmp_path, model_dir=str(models))
    assert main(["evaluate", "--config", cfg]) == 2
    assert "order and buckets must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# The golden models have order 3, 16 buckets and 639 vocabulary entries.
@pytest.mark.parametrize(
    "key,context,row",
    [
        ("16:1", "0", {"5": 1}),
        ("-2:1", "0", {"5": 1}),
        ("-1:1", "0", {"5": 1}),
        ("0:3", "0,5,6", {"5": 1}),
        ("0:-1", "", {"5": 1}),
        ("0:2", "0", {"5": 1}),
        ("0:1", "639", {"5": 1}),
        ("0:1", "-1", {"5": 1}),
        ("0:1", "0", {"99999": 3}),
    ],
    ids=[
        "bucket-past-last",
        "bucket-below-global",
        "global-table",
        "context-as-long-as-order",
        "negative-context-length",
        "context-shorter-than-key",
        "context-id-past-vocab",
        "negative-context-id",
        "next-id-past-vocab",
    ],
)
def test_evaluate_model_table_out_of_range_is_data_error(tmp_path, capsys, key, context, row):
    payload = json.loads((GOLDEN_MODELS / "model_tool.json").read_text())
    payload["tables"].setdefault(key, {})[context] = row
    models = _model_dir(tmp_path, json.dumps(payload).encode())
    cfg = write_config(tmp_path, model_dir=str(models))
    assert main(["evaluate", "--config", cfg]) == 2
    assert "out of range" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


_NOT_AN_INTEGER = "table '0:0' context '' holds a count that is not an integer, or a token id twice"


@pytest.mark.parametrize(
    "count,message",
    [
        (-100000, "table '0:0' context '' holds a count below 1"),
        (0, "table '0:0' context '' holds a count below 1"),
        (float("inf"), _NOT_AN_INTEGER),
        (2.7, _NOT_AN_INTEGER),
        ("3", _NOT_AN_INTEGER),
        (True, _NOT_AN_INTEGER),
        (False, _NOT_AN_INTEGER),
    ],
    ids=["-100000", "0", "infinity", "float", "string", "true", "false"],
)
def test_evaluate_model_count_below_one_is_data_error(tmp_path, capsys, count, message):
    """A count below 1 would make `predict` leave [0, 1]; Infinity would
    overflow an integer conversion, 2.7 would load as 2 and `true` as 1."""
    payload = json.loads((GOLDEN_MODELS / "model_tool.json").read_text())
    row = payload["tables"]["0:0"][""]
    row[next(iter(row))] = count
    models = _model_dir(tmp_path, json.dumps(payload).encode())
    cfg = write_config(tmp_path, model_dir=str(models))
    assert main(["evaluate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file ") and err.count("\n") == 1
    assert err.endswith(f": {message}\n")
    assert not (tmp_path / "report.json").exists()


def test_evaluate_model_token_id_twice_is_data_error(tmp_path, capsys):
    """`"5"` and `"05"` both name token 5, and the loaded row would keep
    only one of their counts."""
    payload = json.loads((GOLDEN_MODELS / "model_tool.json").read_text())
    payload["tables"]["0:0"][""].update({"5": 1, "05": 2})
    models = _model_dir(tmp_path, json.dumps(payload).encode())
    cfg = write_config(tmp_path, model_dir=str(models))
    assert main(["evaluate", "--config", cfg]) == 2
    assert capsys.readouterr().err.endswith(f": {_NOT_AN_INTEGER}\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "key,context,message",
    [
        ("0:2", "00,401", "table '0:2' context '00,401' is written twice"),
        ("0:1", "3_17", "table '0:1' context '3_17' is written twice"),
        ("00:2", "0,401", "table '00:2' context '0,401' is written twice"),
    ],
    ids=["leading-zero", "underscore", "table-key"],
)
def test_evaluate_model_context_twice_is_data_error(tmp_path, capsys, key, context, message):
    """`"00,401"` and `"0,401"` name one context (as `"3_17"` and `"317"`
    do, and the keys `"00:2"` and `"0:2"` one table), and the loaded table
    would keep only the last row written."""
    payload = json.loads((GOLDEN_MODELS / "model_tool.json").read_text())
    payload["tables"].setdefault(key, {})[context] = {"5": 7}
    models = _model_dir(tmp_path, json.dumps(payload).encode())
    cfg = write_config(tmp_path, model_dir=str(models))
    assert main(["evaluate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed model file ") and err.endswith(f": {message}\n")
    assert not (tmp_path / "report.json").exists()


def test_evaluate_missing_tasks_file_is_data_error(tmp_path, capsys):
    missing = tmp_path / "no-such-tasks.jsonl"
    cfg = write_config(tmp_path, model_dir=str(GOLDEN_MODELS), tasks=str(missing))
    assert main(["evaluate", "--config", cfg]) == 2
    assert "cannot read tasks file" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_evaluate_empty_tasks_path_is_data_error(tmp_path, capsys):
    """An empty tasks path names the config's directory, not "no tasks
    file": the derived tasks never replace a given tasks file."""
    cfg = write_config(tmp_path, model_dir=str(GOLDEN_MODELS), tasks="")
    assert main(["evaluate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read tasks file {str(tmp_path) + os.sep!r}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@functools.cache
def _task_record():
    """The first task of the bundled eval corpus, as a tasks-file record."""
    from mpgen.pipeline import derive_tasks, load_config

    cfg = load_config(str(ROOT / "configs" / "demo.json"))
    task = derive_tasks(cfg)[0]
    return {
        "label": task.label, "repo": task.repo_name, "file": task.file, "line": task.pos.line,
        "description": task.description, "gt": task.gt,
    }


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]", "null", '"str"', "{",
        {"gt": None}, {"label": None}, {"description": None}, {"repo": None}, {"file": None},
        {"line": "5"}, {"line": 5.0}, {"line": True}, {"gt": 3}, {"description": ["d"]},
    ],
    ids=[
        "array", "null", "string", "not-json",
        "no-gt", "no-label", "no-description", "no-repo", "no-file",
        "string-line", "float-line", "bool-line", "number-gt", "list-description",
    ],
)
def test_evaluate_malformed_task_record_is_data_error(tmp_path, capsys, line):
    if isinstance(line, dict):
        rec = {**_task_record(), **line}
        line = json.dumps({k: v for k, v in rec.items() if v is not None})
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps(_task_record()) + "\n" + line + "\n")
    cfg = write_config(tmp_path, model_dir=str(GOLDEN_MODELS), tasks=str(tasks))
    assert main(["evaluate", "--config", cfg]) == 2
    assert "malformed task record" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [({"repo": "repo99"}, "names no file"), ({"file": "absent.mp"}, "names no file"),
     ({"line": 1}, "names no task")],
    ids=["unknown-repo", "unknown-file", "no-task-at-line"],
)
def test_evaluate_task_record_naming_no_task_is_data_error(tmp_path, capsys, edit, message):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps({**_task_record(), **edit}) + "\n")
    cfg = write_config(tmp_path, model_dir=str(GOLDEN_MODELS), tasks=str(tasks))
    assert main(["evaluate", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_evaluate_reads_a_valid_task_record(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps(_task_record()) + "\n")
    cfg = write_config(tmp_path, model_dir=str(GOLDEN_MODELS), tasks=str(tasks))
    assert main(["evaluate", "--config", cfg]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["n_tasks"] == 1


_DATASET_RECORD = {"description": "def f(a): Return a", "augmented_body": "return a"}


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]", "null", '"str"', "{", "3",
        json.dumps({"description": "d"}),
        json.dumps({"augmented_body": "return a"}),
        json.dumps({**_DATASET_RECORD, "description": 3}),
        json.dumps({**_DATASET_RECORD, "augmented_body": ["return", "a"]}),
    ],
    ids=[
        "array", "null", "string", "not-json", "number", "no-body", "no-description",
        "number-description", "list-body",
    ],
)
def test_train_malformed_dataset_record_is_data_error(tmp_path, capsys, line):
    cfg = write_config(tmp_path)
    (tmp_path / "dataset.jsonl").write_text(json.dumps(_DATASET_RECORD) + "\n" + line + "\n")
    assert main(["train", "--config", cfg]) == 2
    assert "malformed dataset record" in capsys.readouterr().err
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("alpha", [1e306, 10**400], ids=["float", "integer"])
def test_train_with_an_overflowing_alpha_is_data_error(tmp_path, capsys, alpha):
    """An alpha that passes the config check, but whose smoothing mass (alpha
    times the vocabulary size) is past the largest float, stops train with
    one error line before it writes a model."""
    cfg = write_config(tmp_path, alpha=alpha)
    (tmp_path / "dataset.jsonl").write_text(json.dumps(_DATASET_RECORD) + "\n")
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: smoothing alpha ") and "overflows a float" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "models").exists()


_DEEP_JSON = "[" * 2000 + "]" * 2000  # past the JSON decoder's recursion limit


def _deep_config(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP_JSON)
    return ["train", "--config", str(path)], "cannot read config"


def _deep_model(tmp_path):
    models = _model_dir(tmp_path, _DEEP_JSON.encode())
    cfg = write_config(tmp_path, model_dir=str(models))
    return ["evaluate", "--config", cfg], "cannot read model file"


def _deep_tasks(tmp_path):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(json.dumps(_task_record()) + "\n" + _DEEP_JSON + "\n")
    cfg = write_config(tmp_path, model_dir=str(GOLDEN_MODELS), tasks=str(tasks))
    return ["evaluate", "--config", cfg], "malformed task record"


def _deep_dataset(tmp_path):
    (tmp_path / "dataset.jsonl").write_text(json.dumps(_DATASET_RECORD) + "\n" + _DEEP_JSON + "\n")
    return ["train", "--config", write_config(tmp_path)], "malformed dataset record"


@pytest.mark.parametrize(
    "reader", [_deep_config, _deep_model, _deep_tasks, _deep_dataset],
    ids=["config", "model", "tasks", "dataset"],
)
def test_a_file_nested_2000_levels_deep_is_data_error(tmp_path, capsys, reader):
    """The JSON decoder raises RecursionError on it; each reader maps that to
    exit 2 like any other malformed file."""
    argv, message = reader(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err and "recursion" in err
    assert not (tmp_path / "report.json").exists()


_JSON = st.recursive(  # floats include NaN and the infinities, which json writes and reads
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)
_DROP = object()


@settings(max_examples=60, deadline=None)
@given(
    task_edits=st.dictionaries(
        st.sampled_from(["label", "repo", "file", "line", "description", "gt"]),
        _JSON | st.just(_DROP), max_size=3,
    ),
    dataset_edits=st.dictionaries(
        st.sampled_from(["description", "augmented_body"]), _JSON | st.just(_DROP), max_size=2
    ),
    whole=st.none() | _JSON,
)
def test_task_and_dataset_readers_raise_nothing_but_data_error(
    tmp_path_factory, task_edits, dataset_edits, whole
):
    """A drawn JSON value as a line, or a valid record with drawn fields
    replaced or dropped, is read or rejected as a data error."""
    from mpgen import DataError
    from mpgen.pipeline import load_config, load_tasks
    from mpgen.trigger import load_dataset_records

    def line(record, edits):
        if whole is not None:
            return json.dumps(whole)
        record = {**record, **edits}
        return json.dumps({k: v for k, v in record.items() if v is not _DROP})

    tmp = tmp_path_factory.mktemp("readers")
    (tmp / "tasks.jsonl").write_text(line(_task_record(), task_edits) + "\n")
    (tmp / "dataset.jsonl").write_text(line(_DATASET_RECORD, dataset_edits) + "\n")
    try:
        load_tasks(str(tmp / "tasks.jsonl"), load_config(str(ROOT / "configs" / "demo.json")))
    except DataError:
        pass
    try:
        load_dataset_records(str(tmp / "dataset.jsonl"))
    except DataError:
        pass


@functools.cache
def _small_model_text() -> str:
    """A format-2 model of order 2 and two buckets, trained on one pair."""
    from mpgen.lm.ngram import description_bucket, save_model, train
    from mpgen.lm.vocab import BOS_ID, EOS_ID, RESERVED_TOKENS, Vocab

    vocab = Vocab(tokens=RESERVED_TOKENS + ("a", "return"))
    a, ret = vocab.tokens.index("a"), vocab.tokens.index("return")
    model = train(
        [(description_bucket([a], vocab, 2), [BOS_ID, ret, a, EOS_ID])], order=2, alpha=0.1, vocab=vocab, buckets=2
    )
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, os.path.join(tmp, "m.json"))
        return Path(tmp, "m.json").read_text()


_MODEL_HEADER = ("format", "version", "order", "alpha", "buckets", "vocab")
_MODEL_KEYS = ("table-key", "context", "token-id")
_CONFIG_FIELDS = tuple(json.loads((ROOT / "configs" / "demo.json").read_text()))


def _put(payload: dict, site: str, value) -> None:
    """Put value in one place of a model or config payload: a field, the key
    of a table, context or token id, or a count. _DROP removes the entry."""
    if site in _MODEL_KEYS + ("count",):
        tables = payload["tables"]
        table = tables[max(tables)]  # the one table of context length 1
        row = next(iter(table.values()))
        mapping = {"table-key": tables, "context": table, "token-id": row, "count": row}[site]
        key = next(iter(mapping))
    else:
        mapping, key = payload, site
    if value is _DROP:
        del mapping[key]
    elif site in _MODEL_KEYS:
        mapping[value if isinstance(value, str) else json.dumps(value)] = mapping.pop(key)
    else:
        mapping[key] = value


@settings(max_examples=150, deadline=None)
@given(
    site=st.sampled_from(_MODEL_HEADER + _MODEL_KEYS + ("count",) + _CONFIG_FIELDS),
    value=_JSON | st.just(_DROP),
    cut=st.none() | st.integers(0, 10**6),
)
@example(site="count", value=float("inf"), cut=None)
@example(site="count", value=2.7, cut=None)
@example(site="max_tokens", value=float("nan"), cut=None)
def test_model_and_config_readers_exit_0_or_2(tmp_path_factory, site, value, cut):
    """A small model or a demo config with one drawn value put in one place,
    and then perhaps cut short, is read or rejected through `mpgen generate`
    with exit 2 and one error line, never a traceback."""
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "models").mkdir()
    config_path, model_path = tmp / "config.json", tmp / "models" / "model_vanilla.json"
    payloads = {
        config_path: {
            **json.loads((ROOT / "configs" / "demo.json").read_text()),
            "train_roots": [str(CORPUS / "train")], "eval_roots": [str(CORPUS / "eval")],
            "model_dir": str(tmp / "models"), "max_tokens": 8,
        },
        model_path: json.loads(_small_model_text()),
    }
    fuzzed = config_path if site in _CONFIG_FIELDS else model_path
    _put(payloads[fuzzed], site, value)
    for path, payload in payloads.items():
        text = json.dumps(payload)
        if path == fuzzed and cut is not None:
            text = text[: cut % (len(text) + 1)]
        path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(_generate_args(str(config_path), "core.mp", 1, "--vanilla"))
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_lint_non_utf8_source_is_data_error(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "latin1.mp").write_bytes("x = 'caf\xe9'\n".encode("latin-1"))
    assert main(["lint", "--repo", str(repo)]) == 2
    err = capsys.readouterr().err
    assert "can't decode" in err and "latin1.mp" in err


def test_lint_outputs_line_delimited_records(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "bad.mp").write_text("def f():\n    return ghost\n")
    assert main(["lint", "--repo", str(repo)]) == 0
    out = capsys.readouterr().out
    rec = json.loads(out.splitlines()[0])
    assert rec["kind"] == "undefined-variable"


def test_lint_reads_a_long_attribute_chain(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "chain.mp").write_text("def f(a):\n    return a" + ".b" * 1000 + "\n")
    assert main(["lint", "--repo", str(repo)]) == 0
    assert capsys.readouterr().out == ""


def _lint_records(tmp_path, capsys, text):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "deep.mp").write_text(text)
    assert main(["lint", "--repo", str(repo)]) == 0
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_lint_reports_300_nested_parentheses_as_a_syntax_error(tmp_path, capsys):
    text = "def f(a):\n    return " + "(" * 300 + "a" + ")" * 300 + "\n"
    (rec,) = _lint_records(tmp_path, capsys, text)
    assert (rec["kind"], rec["line"]) == ("syntax-error", 2)
    assert "nested" in rec["message"]


def test_lint_reports_400_nested_if_blocks_as_a_syntax_error(tmp_path, capsys):
    text = "def f(a):\n" + "".join("    " * i + "if a:\n" for i in range(1, 401))
    text += "    " * 401 + "return a\n"
    (rec,) = _lint_records(tmp_path, capsys, text)
    assert rec["kind"] == "syntax-error" and "nested" in rec["message"]


def test_complete_prints_sorted_members(capsys):
    repo = str(CORPUS / "eval" / "repo14")
    text = (CORPUS / "eval" / "repo14" / "core.mp").read_text()
    lines = text.split("\n")
    # caret right after "self._" on the first getter's return line
    line = next(i for i, l in enumerate(lines, 1) if l.strip().startswith("return self._"))
    col = lines[line - 1].index("self.") + len("self.")
    assert main(["complete", "--repo", repo, "--file", "core.mp",
                 "--line", str(line), "--column", str(col)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == sorted(out)
    assert len(out) >= 3


def test_complete_unresolvable_is_empty_success(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.mp").write_text("def f(a):\n    return a.\n")
    code = main(["complete", "--repo", str(repo), "--file", "a.mp",
                 "--line", "2", "--column", str(len("    return a."))])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_complete_out_of_range_is_error(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.mp").write_text("x = 1\n")
    code = main(["complete", "--repo", str(repo), "--file", "a.mp",
                 "--line", "99", "--column", "0"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "file, line, column, message",
    [
        ("b.mp", 1, 0, "no such file in repository: 'b.mp'"),
        ("a.mp", 0, 0, "line 0 out of range for 'a.mp'"),
        ("a.mp", 1, 6, "column 6 out of range on line 1 of 'a.mp'"),
    ],
)
def test_complete_bad_caret_prints_one_error_line(tmp_path, capsys, file, line, column, message):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "a.mp").write_text("x = 1\n")
    code = main(["complete", "--repo", str(repo), "--file", file,
                 "--line", str(line), "--column", str(column)])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_usage_error_exit_code():
    assert main(["augment"]) == 1          # missing --config
    assert main(["no-such-command"]) == 1


def test_unknown_config_field_is_data_error(tmp_path):
    path = tmp_path / "config.json"
    for field in ("bogus", "jobs", "deterministic"):
        path.write_text(json.dumps({"train_roots": [], "eval_roots": [], field: 1}))
        assert main(["augment", "--config", str(path)]) == 2, field


@pytest.mark.parametrize("field", ["train_roots", "eval_roots"])
def test_missing_config_field_is_data_error(tmp_path, capsys, field):
    path = Path(write_config(tmp_path))
    cfg = json.loads(path.read_text())
    del cfg[field]
    path.write_text(json.dumps(cfg))
    assert main(["augment", "--config", str(path)]) == 2
    assert f"missing config fields: [{field!r}]" in capsys.readouterr().err
    assert not (tmp_path / "dataset.jsonl").exists()


def test_config_that_is_not_an_object_is_data_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("[]")
    assert main(["augment", "--config", str(path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("eval_roots", "corpus/eval"),
        ("order", 0),
        ("order", True),
        ("order", 3.0),
        ("buckets", 0),
        ("buckets", "16"),
        ("max_tokens", 0),
        ("alpha", 0),
        ("alpha", False),
        ("alpha", "0.1"),
        ("alpha", float("inf")),
        ("alpha", float("nan")),
        ("dataset", None),
        ("dataset", 5),
        ("model_dir", ["a"]),
        ("report", 5),
        ("report", None),
        ("tasks", 7),
        ("tasks", ["t.jsonl"]),
        ("cache", "no"),
        ("cache", 0),
        ("cache", None),
    ],
)
def test_out_of_range_config_value_is_data_error(tmp_path, capsys, field, value):
    # the config check rejects the value before augment writes anything;
    # eval_roots stands for both root lists, because augment with an
    # unchecked string train_roots would walk "/" (one root per character)
    cfg = write_config(tmp_path, **{field: value})
    assert main(["augment", "--config", cfg]) == 2
    assert f"config field {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "dataset.jsonl").exists()


def test_corpus_root_env_override(tmp_path, monkeypatch, capsys):
    cfg = {
        "train_roots": ["train"],
        "eval_roots": ["eval"],
        "dataset": str(tmp_path / "d.jsonl"),
        "model_dir": str(tmp_path / "m"),
        "report": str(tmp_path / "r.json"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setenv("MPGEN_CORPUS_ROOT", str(CORPUS))
    assert main(["augment", "--config", str(path)]) == 0
    assert (tmp_path / "d.jsonl").exists()


def test_config_round_trips_losslessly(tmp_path):
    from dataclasses import asdict

    from mpgen.pipeline import load_config

    cfg_path = write_config(tmp_path)
    first = load_config(cfg_path)
    rewritten = tmp_path / "again.json"
    rewritten.write_text(json.dumps(asdict(first)))
    second = load_config(str(rewritten))
    assert asdict(first) == asdict(second)
