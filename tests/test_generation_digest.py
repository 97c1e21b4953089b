"""Every generation of the bundled benchmark is pinned: the 2,016 generations
`tools/generation_digest.py` hashes (126 tasks x both golden models x cache
on/off x tool on/off x task context or whole-file tool) hash as the golden
models generated them when the digest was recorded. A change meant to keep
every generation fails here when it does not."""

from conftest import ROOT, script_module

GOLDEN_DIGEST = "db2a8ad00dfc3742a90c6a49cd1b12c7eae9129d194864f0cf9c79e2b1194028"


def test_every_generation_of_the_demo_config_is_unchanged():
    digest = script_module("generation_digest").digest(str(ROOT / "configs" / "demo.json"))
    assert digest == (GOLDEN_DIGEST, 2016)
