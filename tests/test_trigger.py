import json
import statistics
import sys
from pathlib import Path

import pytest

from mpgen.analysis import complete
from mpgen.analysis.builtins import is_builtin
from mpgen.analysis.complete import tool_complete
from mpgen.lm.tokenizer import token_strings
from mpgen.minilang import tokens as tk
from mpgen.minilang.parser import extract_functions
from mpgen.minilang.render import render_tokens
from mpgen.pipeline import collect_repos
from mpgen.repo import CaretPosition, Repository
from mpgen.trigger import augment_corpus, insert_triggers, load_dataset_records, save_dataset

UPDATER = (
    "class Updater:\n"
    "    def add(self, update):\n"
    '        "Store one update into the registry"\n'
    "        self._registered_updates = update\n"
    "\n"
    "    def register_updates(self, updates):\n"
    '        "Register the provided updates into the registry"\n'
    "        self._registered_updates = updates\n"
    "        update = 0\n"
    "        self.add(update)\n"
)


def _function(repo, path, name):
    return next(f for f in extract_functions(repo.module(path)) if f.name == name)


def _markers(toks):
    return sum(1 for t in toks if t.kind == tk.MARKER)


def test_four_markers_on_updater_fixture():
    # the augmented function carries markers before updates,
    # _registered_updates, add and update; the first parameter is also
    # suggestible at statement positions, so self picks up markers too
    repo = Repository({"u.mp": UPDATER})
    fn = _function(repo, "u.mp", "register_updates")
    toks = insert_triggers(repo, "u.mp", fn)
    marked = []
    for i, t in enumerate(toks):
        if t.kind == tk.MARKER:
            marked.append(toks[i + 1].text)
    non_self = [m for m in marked if m != "self"]
    assert sorted(non_self) == ["_registered_updates", "add", "update", "updates"]
    assert _markers(toks) == len(marked)
    assert marked.count("self") == 2


def test_marker_always_immediately_precedes_identifier():
    repo = Repository({"u.mp": UPDATER})
    fn = _function(repo, "u.mp", "register_updates")
    toks = insert_triggers(repo, "u.mp", fn)
    for i, t in enumerate(toks):
        if t.kind == tk.MARKER:
            assert toks[i + 1].kind == tk.IDENTIFIER


def test_definition_sites_not_marked():
    # `update = 0` defines update: a tool cannot suggest a name before it exists
    repo = Repository({"u.mp": UPDATER})
    fn = _function(repo, "u.mp", "register_updates")
    toks = insert_triggers(repo, "u.mp", fn)
    for i, t in enumerate(toks):
        if t.kind == tk.IDENTIFIER and t.text == "update" and t.line == 9:
            assert toks[i - 1].kind != tk.MARKER


def test_builtin_identifiers_never_marked():
    src = (
        "def f(value):\n"
        '    "Show the value"\n'
        "    print(len(value))\n"
        "    return value\n"
    )
    repo = Repository({"b.mp": src})
    fn = _function(repo, "b.mp", "f")
    toks = insert_triggers(repo, "b.mp", fn)
    for i, t in enumerate(toks):
        if t.kind == tk.MARKER:
            assert not is_builtin(toks[i + 1].text)
    texts_after_markers = {toks[i + 1].text for i, t in enumerate(toks) if t.kind == tk.MARKER}
    assert "print" not in texts_after_markers and "len" not in texts_after_markers


def test_markers_never_precede_non_identifiers(corpus_repos):
    checked = 0
    for _name, repo in corpus_repos[:3]:
        for path in repo.paths():
            for fn in extract_functions(repo.module(path)):
                if fn.docstring is None:
                    continue
                toks = insert_triggers(repo, path, fn)
                for i, t in enumerate(toks):
                    if t.kind == tk.MARKER:
                        nxt = toks[i + 1]
                        assert nxt.kind == tk.IDENTIFIER
                        assert not is_builtin(nxt.text)
                        checked += 1
    assert checked > 50


def test_description_is_signature_plus_docstring():
    records, _meta = augment_corpus([("r", Repository({"u.mp": UPDATER}))])
    assert records[0]["description"] == "def add(self, update): Store one update into the registry"
    assert (records[0]["file"], records[0]["line"]) == ("r/u.mp", 2)


def test_strip_insert_round_trip_single():
    repo = Repository({"u.mp": UPDATER})
    fn = _function(repo, "u.mp", "register_updates")
    unmarked = [t for t in insert_triggers(repo, "u.mp", fn) if t.kind != tk.MARKER]
    assert render_tokens(unmarked) == render_tokens(fn.body_tokens)


def test_marker_validity_recheck():
    # every marker's identifier really is a fresh tool_complete member
    repo = Repository({"u.mp": UPDATER})
    fn = _function(repo, "u.mp", "register_updates")
    toks = insert_triggers(repo, "u.mp", fn)
    for i, t in enumerate(toks):
        if t.kind == tk.MARKER:
            nxt = toks[i + 1]
            caret = CaretPosition("u.mp", nxt.line, nxt.column)
            assert nxt.text in tool_complete(repo, caret)


def test_augment_corpus_propagates_tool_errors(monkeypatch):
    def failing(repo, caret):
        raise RuntimeError("tool broke")

    monkeypatch.setattr("mpgen.trigger.tool_complete", failing)
    with pytest.raises(RuntimeError, match="tool broke"):
        augment_corpus([("r", Repository({"u.mp": UPDATER}))])


def test_augment_corpus_counts_and_order(corpus_repos):
    repos = corpus_repos[:2]
    records, _meta = augment_corpus(repos)
    expected = sum(
        1
        for _name, repo in repos
        for path in repo.paths()
        for fn in extract_functions(repo.module(path))
        if fn.docstring is not None
    )
    assert len(records) == expected
    keys = [(r["file"], r["line"]) for r in records]
    assert keys == sorted(keys, key=lambda k: (k[0].split("/")[0], k))


def test_augment_skips_docstringless_functions(corpus_repos):
    records, _meta = augment_corpus(corpus_repos[:1])
    assert all("probe_" not in r["description"] for r in records)


def test_dataset_round_trip_and_stats(tmp_path, corpus_repos):
    records, meta = augment_corpus(corpus_repos[:3])
    path = str(tmp_path / "d.jsonl")
    meta_path = str(tmp_path / "d.meta.json")
    save_dataset(records, meta, path, meta_path)
    assert load_dataset_records(path) == records
    assert set(records[0]) == {"description", "augmented_body", "file", "line", "comp_count"}
    assert json.load(open(meta_path)) == meta
    assert meta["stats"]["pair_count"] == len(records)
    assert meta["stats"]["mean_comp_count"] > 0


def test_body_token_stats_count_the_text_train_reads():
    """`mean_body_tokens` is the mean token count of the records'
    `augmented_body` texts, which `train` reads, not of the tokens
    augmentation held. The parser drops the `$` of `q$r`, so the text reads
    `qr`, one identifier where augmentation held two: 7 tokens, not 8."""
    repo = Repository({"f.mp": 'def f():\n    "Join q and r"\n    x = q$r\n    return -x\n'})
    records, meta = augment_corpus([("r", repo)])
    assert [r["augmented_body"] for r in records] == ["x = qr\nreturn - x"]
    counts = [len(token_strings(r["augmented_body"])) for r in records]
    assert meta["stats"]["mean_body_tokens"] == statistics.mean(counts) == 7
    (func,) = extract_functions(repo.module("f.mp"))
    assert len(token_strings("", lexed=(insert_triggers(repo, "f.mp", func), []))) == 8


def test_augment_rerun_byte_identical(tmp_path, corpus_repos):
    paths = []
    for tag in ("a", "b"):
        records, meta = augment_corpus(corpus_repos[:2])
        p = str(tmp_path / f"{tag}.jsonl")
        save_dataset(records, meta, p, p + ".meta.json")
        paths.append(p)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    assert open(paths[0] + ".meta.json", "rb").read() == open(paths[1] + ".meta.json", "rb").read()


def test_strip_round_trip_over_full_corpus(corpus_repos):
    total = 0
    for _name, repo in corpus_repos:
        for path in repo.paths():
            for fn in extract_functions(repo.module(path)):
                if fn.docstring is None:
                    continue
                unmarked = [t for t in insert_triggers(repo, path, fn) if t.kind != tk.MARKER]
                assert render_tokens(unmarked) == render_tokens(fn.body_tokens)
                total += 1
    assert total >= 200


def test_marker_rendered_as_literal_text():
    repo = Repository({"u.mp": UPDATER})
    fn = _function(repo, "u.mp", "register_updates")
    toks = insert_triggers(repo, "u.mp", fn)
    text = render_tokens(toks)
    assert text.count("<COMP>") == _markers(toks)
    # markers adhere to the identifier that follows them
    assert "<COMP>_registered_updates" in text
    assert "<COMP> " not in text


def test_bundled_corpus_marker_density_window(corpus_repos):
    # the corpus is tuned so functions average about five markers, loosely
    # matching the reported 5.54 within +/-2
    _records, meta = augment_corpus(corpus_repos)
    mean = meta["stats"]["mean_comp_count"]
    assert 5.54 - 2 <= mean <= 5.54 + 2


def test_augment_classifies_each_caret_once(monkeypatch):
    """Trigger insertion asks the completion tool once per non-builtin body
    identifier, so no caret is classified twice. Every binding of
    `classify_caret` in the package is counted, not only the one
    `tool_complete` reads."""
    real = complete.classify_caret
    calls = 0

    def counting(repo, caret):
        nonlocal calls
        calls += 1
        return real(repo, caret)

    for name, module in list(sys.modules.items()):
        if name.startswith("mpgen") and getattr(module, "classify_caret", None) is real:
            monkeypatch.setattr(module, "classify_caret", counting)
    train_root = Path(__file__).resolve().parent.parent / "corpus" / "train"
    repos = collect_repos([str(train_root)])
    augment_corpus(repos)
    identifiers = sum(
        1
        for _name, repo in repos
        for path in repo.paths()
        for fn in extract_functions(repo.module(path))
        if fn.docstring is not None
        for t in fn.body_tokens
        if t.kind == tk.IDENTIFIER and not is_builtin(t.text)
    )
    assert identifiers > 1000
    assert calls <= identifiers


def test_one_function_corpus_writes_whole_means_as_integers(tmp_path):
    """statistics.mean keeps the whole mean of one record's counts an int, so
    the meta file writes `3`, not `3.0`."""
    src = 'def f(value):\n    "Show the value"\n    return value\n'
    records, meta = augment_corpus([("r", Repository({"f.mp": src}))])
    path = str(tmp_path / "d.jsonl")
    save_dataset(records, meta, path, path + ".meta.json")
    stats = json.loads(Path(path + ".meta.json").read_text())["stats"]
    assert records[0]["augmented_body"] == "return <COMP>value"
    assert stats == {
        "pair_count": 1, "mean_description_tokens": 9, "mean_body_tokens": 3, "mean_comp_count": 1
    }
    assert all(type(v) is int for v in stats.values())
