"""Timing a run of one of the program's entry points from outside.

A pass calls a program entry point, such as ``pipeline.run_evaluate``, as a
user of the package would. To split that run into units that can be compared
across passes, a ``Probe`` rebinds a few functions at the names the entry
points look them up by (``pipeline.generate``, ``pipeline.evaluate_pairs``,
...) to timing wrappers, and puts the originals back on exit.

The run is cut into consecutive segments: every call to a probed function is
one segment, labelled with the function's kind, and the program code between
two probed calls is another, labelled ``program``. A call nested inside a
probed call (``collect_repos`` inside ``load_tasks``) is part of the outer
segment. Each segment's time is scaled by the reference loops measured right
before and after it (see calibration.py); the loops themselves fall between
segments and are not counted.

A segment's key is its position in the run plus its stage and kind. With one
job, the program makes its calls in the same order on every pass, so a key
names the same unit of work in every pass of a run.
"""

from __future__ import annotations

import importlib
from time import perf_counter

from calibration import ScaledClock

SETUP = "setup"
GENERATE = "generate"
SCORE = "score"
PROGRAM = "program"

# (module, attribute, kind). The attribute is rebound in that module only:
# it is the name the entry points call the function by. `run_evaluate`
# imports `load_model` inside its body, so that one is read from its module.
SITES: tuple[tuple[str, str, str], ...] = (
    ("mpgen.pipeline", "load_config", SETUP),
    ("mpgen.pipeline", "load_tasks", SETUP),
    ("mpgen.pipeline", "derive_tasks", SETUP),
    ("mpgen.pipeline", "collect_repos", SETUP),
    ("mpgen.lm.ngram", "load_model", SETUP),
    ("mpgen.pipeline", "generate", GENERATE),
    ("mpgen.pipeline", "evaluate_pairs", SCORE),
)

COUNTERS = (
    "steps",
    "tool_invocations",
    "cache_hits",
    "dropped_triggers",
    "shadowed_suggestions",
    "truncated",
)


def variant_of(args, kwargs) -> str:
    """'tool' or 'vanilla', from the GenerationConfig of a generate call."""
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    return "tool" if cfg.tool_enabled else "vanilla"


class Probe:
    """Segments of one pass; ``with probe:`` around the program calls.

    ``tracer``, if given, is entered before the wrappers are installed and
    left after they are removed, so it traces exactly the probed part.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.stage_name = "pass"
        # (key, kind, stage, scaled seconds) in the order they ran
        self.segments: list[tuple[str, str, str, float]] = []
        # variant -> GenerationTrace counter totals, plus "tokens" emitted
        self.counters: dict[str, dict[str, int]] = {}
        self.loop_s: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._depth = 0

    def __enter__(self) -> "Probe":
        if self.tracer is not None:
            self.tracer.__enter__()
        for module_name, attr, kind in SITES:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(kind, original))
            self._patches.append((owner, attr, original))
        self._clock = ScaledClock()
        self._mark = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._cut(PROGRAM)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.loop_s = self._clock.loop_s
        if self.tracer is not None:
            self.tracer.__exit__(*exc)

    def stage(self, name: str) -> None:
        """Close the current program segment; later segments belong to `name`."""
        self._cut(PROGRAM)
        self.stage_name = name

    def _cut(self, kind: str) -> None:
        """Close the segment that began at the last cut."""
        elapsed = perf_counter() - self._mark
        key = f"{len(self.segments):04d}:{self.stage_name}:{kind}"
        self.segments.append((key, kind, self.stage_name, self._clock.scaled(elapsed)))
        self._mark = perf_counter()

    def _wrap(self, kind: str, fn):
        def probed(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._cut(PROGRAM)
            self._depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if kind == GENERATE:
                variant = variant_of(args, kwargs)
                self._cut(f"{GENERATE}:{variant}")
                self._count(variant, result[1])
            else:
                self._cut(kind)
            return result

        probed.__wrapped__ = fn
        return probed

    def _count(self, variant: str, trace) -> None:
        totals = self.counters.setdefault(variant, dict.fromkeys(COUNTERS + ("tokens",), 0))
        for name in COUNTERS:
            totals[name] += int(getattr(trace, name))
        totals["tokens"] += len(trace.tokens) - 1  # <BOS> is given, not emitted
