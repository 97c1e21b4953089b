"""`tools/gen_corpus.py` writes the repository counts it is given, and a
count its word grids cannot serve exits with a message naming the limit."""

import pytest

from conftest import script_module


def test_gen_corpus_writes_the_counts_it_is_given(tmp_path, capsys):
    out = tmp_path / "corpus"
    script_module("gen_corpus").main(str(out), 20, 10)
    assert f"wrote 20 train + 10 eval repositories under {out}/" in capsys.readouterr().out
    assert len(list((out / "train").iterdir())) == 20
    assert sorted(p.name for p in (out / "eval").iterdir()) == [f"repo{r}" for r in range(20, 30)]


@pytest.mark.parametrize("counts, limit", [
    ((79, 6), "the word grids serve at most 78 train repositories, not 79"),
    ((56, 24), "beside 56 train repositories the word grids serve at most 22 eval repositories,"
               " not 24"),
    ((14, 10**9), "beside 14 train repositories the word grids serve at most 29 eval"),
    ((0, 6), "repository counts must be at least 1, not 0 and 6"),
])
def test_gen_corpus_names_the_limit_of_counts_it_cannot_serve(tmp_path, counts, limit):
    module = script_module("gen_corpus")
    with pytest.raises(SystemExit) as exited:
        module.main(str(tmp_path / "corpus"), *counts)
    assert exited.value.code.startswith(f"gen_corpus: {limit}")
    assert not (tmp_path / "corpus").exists()
    if counts[0] == 79:  # the limit fits, and so does every smaller count
        assert all(module.allocate_pairs(n, 0) is not None for n in range(79))
