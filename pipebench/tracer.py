"""Span tracer that instruments mpgen from outside the package.

Every traced function is replaced by a timing wrapper at *every* binding
site: the defining module (or class, for methods) and every loaded
``mpgen`` module that imported it with ``from ... import``. ``decode``, for
one, binds ``tool_complete`` and ``insert`` that way, and ``metrics`` binds
``lex`` and ``levenshtein``; wrapping the defining module alone would miss
those calls. Leaving the ``with`` block puts every original back.

Each call records one span ``(name, start, end, parent)``. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time

# (metric layer, defining module, attribute path). Metric names may not
# start with "_", so the `_kernels` package reports as layer "kernels".
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("minilang", "mpgen.minilang.lexer", "lex"),
    ("minilang", "mpgen.minilang.parser", "parse"),
    ("minilang", "mpgen.minilang.parser", "parse_body"),
    ("repo", "mpgen.repo", "Repository.with_text"),
    ("analysis", "mpgen.analysis.scope", "build_scope_index"),
    ("analysis", "mpgen.analysis.complete", "classify_caret"),
    ("analysis", "mpgen.analysis.complete", "tool_complete"),
    ("analysis", "mpgen.analysis.insert", "insert"),
    ("analysis", "mpgen.analysis.lint", "lint_check"),
    ("lm", "mpgen.lm.tokenizer", "tokenize"),
    ("lm", "mpgen.lm.tokenizer", "detokenize"),
    ("lm", "mpgen.lm.ngram", "NGramModel.predict"),
    ("lm", "mpgen.lm.ngram", "train"),
    ("lm", "mpgen.lm.ngram", "NGramModel.corpus_nll"),
    ("lm", "mpgen.lm.ngram", "load_model"),
    ("decode", "mpgen.decode", "generate"),
    ("decode", "mpgen.decode", "build_trie"),
    ("decode", "mpgen.decode", "select_suggestion"),
    ("trigger", "mpgen.trigger", "insert_triggers"),
    ("metrics", "mpgen.metrics", "identify_dependencies"),
    ("metrics", "mpgen.metrics", "pair_is_valid"),
    ("metrics", "mpgen.metrics", "edit_similarity"),
    ("metrics", "mpgen.metrics", "corpus_bleu"),
    ("kernels", "mpgen._kernels", "levenshtein"),
    ("kernels", "mpgen._kernels", "smoothed_distribution"),
    ("pipeline", "mpgen.pipeline", "derive_tasks"),
    ("pipeline", "mpgen.pipeline", "corpus_vocab"),
)


def span_names() -> list[str]:
    return [f"{layer}.{attr.split('.')[-1]}" for layer, _, attr in TARGETS]


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self) -> None:
        # name, start, end, parent index (-1 for a root span)
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        open_ = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            open_.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self) -> "Tracer":
        for layer, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[fn_name]
            wrapper = self._wrap(f"{layer}.{fn_name}", original)
            self._patch(owner, fn_name, original, wrapper)
            if cls_path:
                continue  # methods are looked up on the class only
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod is owner:
                    continue
                if mod_name != "mpgen" and not mod_name.startswith("mpgen."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in span_names()
        }
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        spans = self.spans
        n = 0
        for span_name, _s, _e, parent in spans:
            if span_name != name:
                continue
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = spans[parent][3]
        return n

