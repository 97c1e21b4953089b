"""Tests of the pipeline benchmark's own helpers and of its determinism.

Run from the repository root (takes a few minutes; not part of tier-1):

    python3 -m pytest -q pipebench/tests
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "pipebench"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import mpgen.analysis.complete  # noqa: E402
import mpgen.decode  # noqa: E402
import mpgen.metrics  # noqa: E402
from mpgen import _kernels  # noqa: E402
from mpgen.minilang import lexer, parser  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 75.0), (100, 90.0), (126, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_interpolates():
    assert run.percentile([], 50.0) == 0.0
    assert run.percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert run.percentile([1.0, 2.0], 100.0) == 2.0


def test_fillers_leave_task_files_untouched(tmp_path):
    src = ROOT / "corpus" / "eval"
    workloads.pad_corpus(7, src, ROOT / "corpus" / "train", tmp_path)
    train_texts = {p.read_text(encoding="utf-8") for p in (ROOT / "corpus" / "train").glob("*/*.mp")}
    for repo_dir in sorted(p for p in src.iterdir() if p.is_dir()):
        padded = tmp_path / repo_dir.name
        originals = sorted(p.name for p in repo_dir.glob("*.mp"))
        fillers = sorted(p.name for p in padded.glob(workloads.FILLER_PREFIX + "*.mp"))
        assert len(fillers) == workloads.N_FILLERS
        assert sorted(p.name for p in padded.glob("*.mp")) == sorted(originals + fillers)
        for name in originals:
            text = (padded / name).read_text(encoding="utf-8")
            assert text == (repo_dir / name).read_text(encoding="utf-8")
            assert workloads.FILLER_PREFIX not in text  # nothing imports a filler
        for name in fillers:
            assert (padded / name).read_text(encoding="utf-8") in train_texts


def test_fillers_depend_on_seed_only():
    train = ROOT / "corpus" / "train"
    assert workloads.filler_modules(3, "repo14", train) == workloads.filler_modules(3, "repo14", train)
    assert workloads.filler_modules(3, "repo14", train) != workloads.filler_modules(4, "repo14", train)


def test_seeded_order_keeps_each_repository_file_order():
    from mpgen import pipeline

    tasks = pipeline.derive_tasks(workloads._reference_config())
    first_files = {}
    for t in tasks:
        first_files.setdefault(t.repo_name, [])
        if t.file not in first_files[t.repo_name]:
            first_files[t.repo_name].append(t.file)
    orders = [workloads.seeded_order(tasks, seed) for seed in (1, 2)]
    for order in orders:
        assert sorted(t.label for t in order) == sorted(t.label for t in tasks)
        for repo, files in first_files.items():
            seen = [t.file for t in order if t.repo_name == repo]
            # grouped by file, files in derive_tasks order
            assert [f for i, f in enumerate(seen) if i == 0 or seen[i - 1] != f] == files
    assert [t.label for t in orders[0]] != [t.label for t in orders[1]]
    assert [t.label for t in orders[0]] == [t.label for t in workloads.seeded_order(tasks, 1)]


def test_tracer_wraps_every_import_site_and_restores():
    originals = (mpgen.decode.tool_complete, mpgen.metrics.lex, mpgen.metrics.levenshtein)
    tracer = Tracer()
    with tracer:
        for fn in (
            mpgen.decode.tool_complete,
            mpgen.decode.insert,
            mpgen.metrics.lex,
            mpgen.metrics.levenshtein,
            mpgen.analysis.complete.tool_complete,
            _kernels.levenshtein,
        ):
            assert hasattr(fn, "__wrapped__")
        parser.parse("x = 1\n")
    assert (mpgen.decode.tool_complete, mpgen.metrics.lex, mpgen.metrics.levenshtein) == originals
    assert lexer.lex is originals[1]
    summary = tracer.summary()
    assert summary["minilang.parse"]["calls"] == 1
    assert summary["minilang.lex"]["calls"] == 1
    (parse_span,) = [s for s in tracer.spans if s[0] == "minilang.parse"]
    (lex_span,) = [s for s in tracer.spans if s[0] == "minilang.lex"]
    assert tracer.spans[lex_span[3]] == parse_span
    parse_total = parse_span[2] - parse_span[1]
    lex_total = lex_span[2] - lex_span[1]
    assert summary["minilang.parse"]["self_s"] == pytest.approx(parse_total - lex_total)


def _run(workload: str, seed: int, trace: int) -> dict:
    args = argparse.Namespace(
        workload=workload, seed=seed, seconds=0.001, trace=trace, record=None
    )
    return run.run(args)


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of each workload with the same seed."""
    return {w: [_run(w, 1, trace=1), _run(w, 1, trace=1)] for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_second_seed_keeps_fail_frac_zero(traced_runs, workload):
    records = traced_runs[workload] + [_run(workload, 2, trace=0)]
    for record in records:
        assert record["result"]["failed"] == 0
        assert record["result"]["correct"] is True
        assert record["detail"]["fail_frac"] == 0.0


def _counts(record: dict) -> dict:
    return {
        k: m["value"]
        for k, m in record["result"]["metrics"].items()
        if m["unit"] == "count"
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_repeat_exactly(traced_runs, workload):
    first, second = traced_runs[workload]
    assert _counts(first) == _counts(second)
    assert all(float(v).is_integer() for v in _counts(first).values())


# Behaviour counters at the commit that added the benchmark. They describe
# what the program computes, so an optimisation leaves them as they are;
# call counts of the analysis layers are not pinned, since those are what an
# optimisation moves.
EXPECTED = {
    "evaluate": {
        "decode.tool_invocations": 732,
        "decode.cache_hits": 888,
        "decode.steps": 4008 + 5796,
        "decode.truncated": 12 + 18,
        "decode.generate.calls": 2 * 126,
    },
    "large-repo": {
        "decode.tool_invocations": 732,
        "decode.cache_hits": 888,
        "decode.steps": 4008,
        "decode.truncated": 12,
        "decode.generate.calls": 126,
    },
    "offline": {
        "decode.generate.calls": 0,
        "lm.train.calls": 2,
        "trigger.insert_triggers.calls": 294,
    },
}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_counters_match_recorded_values(traced_runs, workload):
    counts = _counts(traced_runs[workload][0])
    for name, value in EXPECTED[workload].items():
        assert counts[name] == value, name


def _record(backend: str, value: float) -> dict:
    return {
        "workload": "evaluate",
        "seed": 1,
        "env": {"backend": backend},
        "result": {"metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}},
    }


def test_compare_flags_different_backends():
    import compare

    lines, same = compare.compare(_record("pure", 10.0), _record("pure", 11.0))
    assert same and "+10.0%" in lines[-1]
    lines, same = compare.compare(_record("pure", 10.0), _record("native", 10.0))
    assert not same and any(line.startswith("WARNING: kernel backends differ") for line in lines)


def test_probe_cuts_segments_at_probed_calls_and_restores(tmp_path):
    import probe as probe_mod

    from mpgen import pipeline
    from mpgen.lm import ngram

    originals = (pipeline.load_tasks, pipeline.collect_repos, ngram.load_model)
    config = pipeline.load_config(
        str(ROOT / "configs" / "demo.json"),
        {"train_roots": [str(ROOT / "corpus" / "train")],
         "eval_roots": [str(ROOT / "corpus" / "eval")]},
    )
    tasks_file = workloads.write_tasks(pipeline.derive_tasks(config), 1, tmp_path / "t.jsonl")
    p = probe_mod.Probe()
    with p:
        tasks = pipeline.load_tasks(str(tasks_file), config)  # calls collect_repos
        model = ngram.load_model(config.tool_model_path)
        p.stage("gen")
        pipeline.run_model_over_tasks(model, tasks[:2], mpgen.decode.GenerationConfig())
    assert (pipeline.load_tasks, pipeline.collect_repos, ngram.load_model) == originals
    kinds = [(kind, stage) for _key, kind, stage, _t in p.segments]
    assert kinds == [
        ("program", "pass"), ("setup", "pass"),  # load_tasks, collect_repos inside it
        ("program", "pass"), ("setup", "pass"),  # load_model
        ("program", "pass"),                     # closed by stage()
        ("program", "gen"), ("generate:tool", "gen"),
        ("program", "gen"), ("generate:tool", "gen"),
        ("program", "gen"),
    ]
    assert [key[:4] for key, *_ in p.segments] == [f"{i:04d}" for i in range(len(kinds))]
    assert all(t > 0 for *_rest, t in p.segments)
    assert set(p.counters) == {"tool"} and p.counters["tool"]["tokens"] > 0
    assert len(p.loop_s) == len(kinds) + 1


def test_scaled_clock_uses_loop_times_around_each_unit(monkeypatch):
    import calibration

    loops = iter([0.0004, 0.0002, 0.0001])
    monkeypatch.setattr(calibration, "reference_loop_s", lambda: next(loops))
    clock = calibration.ScaledClock()
    # Loop took 0.4 ms before and 0.2 ms after: the host ran at 2/3 of the
    # reference speed on average, so 3 s measured is 2 s scaled.
    assert clock.scaled(3.0) == pytest.approx(3.0 * calibration.REFERENCE_S / 0.0003)
    assert clock.scaled(1.0) == pytest.approx(1.0 * calibration.REFERENCE_S / 0.00015)
    assert clock.loop_s == [0.0004, 0.0002, 0.0001]
