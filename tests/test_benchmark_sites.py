"""The names the pipeline benchmark (`pipebench/`) instruments must exist.

The benchmark's tracer and probe look functions up by module and name, and
fail only when a traced run starts. Resolving them here makes removing or
renaming a traced function fail the test suite instead.
"""

import importlib
from pathlib import Path

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def test_every_traced_and_probed_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    import probe
    import tracer

    with tracer.Tracer():  # entering looks up every traced name
        for module_name, attr, _kind in probe.SITES:
            assert callable(getattr(importlib.import_module(module_name), attr)), attr
