"""Repository caches: every repository, snapshots included, analyses a file
exactly as a fresh parse would and caches only the paths asked of it, and
generation over cached analyses matches cache-free repositories."""

import gc
import weakref

from hypothesis import HealthCheck, given, settings, strategies as st

from mpgen import decode
from mpgen.analysis.complete import TaskContext, tool_complete
from mpgen.analysis.insert import insert
from mpgen.decode import GenerationConfig, generate
from mpgen.minilang import lexer, parser
from mpgen.pipeline import derive_tasks
from mpgen.repo import Repository

from conftest import CORPUS

ROOT_REPO = Repository.from_dir(str(CORPUS / "train" / "repo00"))
PATHS = ROOT_REPO.paths()
TEXT_POOL = [ROOT_REPO.text(p) for p in PATHS] + [
    Repository.from_dir(str(CORPUS / "train" / "repo01")).text(p) for p in ("core.mp", "utils.mp")
]


@st.composite
def edit_trees(draw):
    """A root plus snapshots, each made by one edit of an earlier repository.

    snapshots[0] is a fresh root. Edits replace a file with (a prefix of)
    some corpus text, revert a file to its root text, or add a new path.
    """
    root = Repository(ROOT_REPO.files)
    snaps = [root]
    for _ in range(draw(st.integers(1, 6))):
        base = draw(st.sampled_from(snaps))
        kind = draw(st.sampled_from(["edit", "revert", "add"]))
        if kind == "add":
            path = f"new{len(snaps)}.mp"
        else:
            path = draw(st.sampled_from(PATHS))
        if kind == "revert":
            text = root.text(path)
        else:
            full = draw(st.sampled_from(TEXT_POOL))
            text = full[: draw(st.integers(0, len(full)))]
        snaps.append(base.with_text(path, text))
    return snaps


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(snaps=edit_trees(), data=st.data())
def test_with_text_snapshots_analyse_exactly(snaps, data):
    """Every snapshot of an edit tree lexes and parses each file as `lex`
    and `parse` of its text do, and each repository caches the paths asked
    of it and no others, whatever its ancestors or descendants were asked."""
    asked = {}
    for k in data.draw(st.permutations(range(len(snaps)))):  # fill the caches in a random snapshot order
        snap = snaps[k]
        asked[k] = data.draw(st.lists(st.sampled_from(snap.paths()), unique=True))
        for path in asked[k]:
            assert snap.lex(path) is snap.lex(path) and snap.module(path) is snap.module(path)

    for k, snap in enumerate(snaps):
        assert set(snap._lex_cache) == set(snap._module_cache) == set(asked[k])
        for path in snap.paths():
            assert snap.lex(path) == lexer.lex(snap.text(path))
            assert snap.module(path) == parser.parse(snap.text(path), path)


# Pieces a fuzzed text splices in: MiniPy's characters, and what the lexer
# and parser treat specially (markers, stray indents, tabs, illegal characters,
# unterminated strings, block openers).
_PIECES = st.sampled_from(
    list(' \n\t"$#():.,=+-*/<>_aZ09') + ["<COMP>", "    ", "\n    ", "def ", "class ", "if x:", "else:"]
)


@st.composite
def fuzzed_texts(draw):
    """A corpus text with a few spans replaced by runs of pieces (an empty
    span inserts, an empty run deletes)."""
    text = draw(st.sampled_from(TEXT_POOL))
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + "".join(draw(st.lists(_PIECES, max_size=3))) + text[j:]
    return text


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_chains_analyse_each_edit_afresh_and_leave_the_parent_alone(data):
    """Each snapshot of a chain, made by giving an existing or a new path a
    fuzzed text, lexes and parses that file as `lex` and `parse` do, while
    the parent's caches for the path keep the objects they held."""
    repo = Repository(ROOT_REPO.files)
    for step in range(data.draw(st.integers(1, 5))):
        path = data.draw(st.sampled_from(repo.paths() + [f"new{step}.mp"]))
        text = data.draw(fuzzed_texts())
        if path in repo.files and data.draw(st.booleans()):
            repo.module(path)  # fill the parent's cache
        lexed, module = repo._lex_cache.get(path), repo._module_cache.get(path)

        snap = repo.with_text(path, text)
        assert snap.lex(path) == lexer.lex(text)
        assert snap.module(path) == parser.parse(text, path)
        assert repo._lex_cache.get(path) is lexed and repo._module_cache.get(path) is module
        assert snap.lex(path) is not lexed and snap.module(path) is not module
        if lexed is not None:
            assert repo.lex(path) is lexed and repo.module(path) is module
        repo = snap


def test_chain_keeps_no_intermediate_snapshot_alive():
    root = Repository(ROOT_REPO.files)
    first, second = PATHS[0], PATHS[1]
    mid = root.with_text(first, "x = 1\n")
    mid.module(first)
    tip = mid.with_text(first, "x = 2\n").with_text(second, "y = 3\n")
    ref = weakref.ref(mid)
    del mid
    gc.collect()
    assert ref() is None
    assert tip.module(PATHS[2]) == root.module(PATHS[2])


def test_parse_reuses_given_lex(monkeypatch):
    text = ROOT_REPO.text(PATHS[0])
    lexed = lexer.lex(text)
    calls = []

    def counting_lex(source):
        calls.append(source)
        return lexer.lex(source)

    monkeypatch.setattr(parser, "lex", counting_lex)
    module = parser.parse(text, PATHS[0], lexed=lexed)
    assert calls == []
    assert module == parser.parse(text, PATHS[0])
    assert calls == [text]


def test_tool_complete_matches_cache_free_oracle(trained_models, monkeypatch):
    """At every trigger of the benchmark, the task context answers exactly as
    `tool_complete` does on a fresh repository with no caches and the
    partial body spliced in, and the whole-file tool is never called."""
    config, tool, _vanilla = trained_models
    real = TaskContext.complete
    checked = []

    def compared(context, body):
        got = real(context, body)
        fresh = Repository(dict(task.snapshot.files))
        want = tool_complete(*insert(fresh, task.pos, body))
        assert got == want, (task.label, body, got, want)
        checked.append(body)
        return got

    monkeypatch.setattr(TaskContext, "complete", compared)
    monkeypatch.setattr(decode, "tool_complete", None)  # a call would raise
    gen_cfg = GenerationConfig(max_tokens=config.max_tokens)
    for task in derive_tasks(config):
        generate(tool, task.snapshot, task.description, task.pos, gen_cfg, task=task.context())
    assert len(checked) == 732
