"""The bundled corpus is what `tools/gen_corpus.py` writes: regenerating it
into a fresh directory gives the files of `corpus/`, byte for byte."""

from conftest import CORPUS, script_module


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_gen_corpus_writes_the_bundled_corpus(tmp_path, capsys):
    out = tmp_path / "corpus"
    script_module("gen_corpus").main(str(out))
    assert f"under {out}/" in capsys.readouterr().out
    assert _files(out) == _files(CORPUS)


def test_gen_corpus_default_output_is_not_the_working_directorys(tmp_path, monkeypatch, capsys):
    """Run from another directory, the tool writes its default output, not
    that directory's corpus/, which it would delete first."""
    cwd, out = tmp_path / "cwd", tmp_path / "out" / "corpus"
    (cwd / "corpus").mkdir(parents=True)
    (cwd / "corpus" / "keep.txt").write_text("kept\n")
    module = script_module("gen_corpus")
    monkeypatch.setattr(module, "CORPUS_DIR", str(out))
    monkeypatch.chdir(cwd)
    module.main()
    assert (cwd / "corpus" / "keep.txt").read_text() == "kept\n"
    assert f"under {out}/" in capsys.readouterr().out
    assert _files(out) == _files(CORPUS)
