"""Pipeline benchmark for mpgen: one workload per run, timed or traced.

Run from the repository root:

    python3 pipebench/run.py --workload evaluate --seed 1 --seconds 35 --trace 0

A pass runs the program as a user would (``pipeline.run_evaluate``, for
one); probe.py cuts it into timed segments from outside. With ``--trace 0``
the workload makes passes for about ``--seconds`` and the end-to-end metrics
are reported, with times scaled to a reference host speed (see
calibration.py). With ``--trace 1`` the same passes run once untraced and
once under the tracer, and the per-layer metrics are reported. Every pass
is checked against the committed ``out/`` golden. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the environment
and the run for a human reader. ``--record PATH`` also writes
the whole result, environment included, as JSON (see compare.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from probe import COUNTERS, GENERATE, SETUP, Probe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".pipebench_work"
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_mean": "ms",
    "tok_per_s": "1/s",
    "peak_rss_mb": "MB",
}
RATIOS = (
    "decode.cache_hit_ratio",
    "decode.trigger_yield",
    "analysis.parses_per_tool_call",
    "analysis.index_builds_per_tool_call",
    "lm.predicts_per_token",
    "trace.overhead_frac",
)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least `min_beyond` samples above it."""
    fitting = [q for q in TAIL_CANDIDATES if round(n * (100.0 - q) / 100.0, 6) >= min_beyond]
    return max(fitting) if fitting else None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    from mpgen import _kernels

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "backend": _kernels.BACKEND,
    }


@dataclass
class Pass:
    """One pass of a workload, as the probe cut it into segments."""

    ops: int     # operations attempted
    failed: int  # operations that raised or gave a wrong output
    segments: list = field(default_factory=list)   # (key, kind, stage, scaled s)
    counters: dict = field(default_factory=dict)   # variant -> GenerationTrace totals
    loop_s: list = field(default_factory=list)     # reference-loop times measured

    @property
    def scaled_s(self) -> float:
        return sum(seg[3] for seg in self.segments)


def run_pass(wl, directory: Path, tracer=None) -> Pass:
    """One pass with its outputs in `directory`, removed afterwards.

    A pass that raises counts every operation as failed.
    """
    gc.collect()
    probe = Probe(tracer)
    try:
        failed = wl.run_pass(directory, probe)
    except Exception:
        traceback.print_exc()
        failed = wl.ops
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return Pass(wl.ops, failed, probe.segments, probe.counters, probe.loop_s)


def timed_passes(wl, work: Path, seconds: float) -> list[Pass]:
    """Passes, repeated while the next one still fits in `seconds`."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        passes.append(run_pass(wl, work / f"pass-{len(passes)}"))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def unit_medians(passes: list[Pass]) -> list[tuple[str, str, float]]:
    """(kind, stage, median scaled time) of every segment key over the passes."""
    samples: dict[str, list[float]] = {}
    labels: dict[str, tuple[str, str]] = {}
    for p in passes:
        for key, kind, stage, t in p.segments:
            samples.setdefault(key, []).append(t)
            labels[key] = (kind, stage)
    return [(*labels[key], statistics.median(ts)) for key, ts in samples.items()]


def tokens_emitted(p: Pass) -> int:
    return sum(c["tokens"] for c in p.counters.values())


def end_to_end(wl, work: Path, seconds: float) -> tuple[dict, list, dict]:
    """Metrics from the median scaled time of each segment over the passes.

    Times are scaled to the reference speed of calibration.py. Set-up is
    every `setup` segment; the other segments are the work the operations
    and tokens are divided by.
    """
    passes = timed_passes(wl, work, seconds)
    good = [p for p in passes if not p.failed] or passes
    units = unit_medians(good)

    def total(test, stage=None) -> float:
        return sum(t for kind, st, t in units if test(kind) and stage in (None, st))

    def work_in(stage=None) -> float:
        return total(lambda k: k != SETUP, stage)

    ops_s = work_in(wl.ops_stage)
    if wl.token_stage:
        tokens, token_s = wl.tokens, work_in(wl.token_stage)
    else:
        tokens = tokens_emitted(good[0])
        token_s = total(lambda k: k.startswith(GENERATE))
    latency_ms = [t * 1000.0 for kind, _stage, t in units if kind == f"{GENERATE}:tool"]
    if not latency_ms:  # no decoding: one operation is the whole pass
        latency_ms = [work_in() * 1000.0]
    tail = tail_percentile(len(latency_ms))
    values = {
        "setup_s": total(lambda k: k == SETUP),
        "ops_per_s": wl.ops / ops_s if ops_s else 0.0,
        "op_ms_mean": statistics.fmean(latency_ms),
        "tok_per_s": tokens / token_s if token_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    loop_s = [t for p in passes for t in p.loop_s]
    detail = {
        "passes": len(passes),
        "pass_scaled_s": [p.scaled_s for p in passes],
        "reference_loop_ms": statistics.median(loop_s) * 1000.0 if loop_s else None,
        "segments": len(units),
        "op_samples": len(latency_ms),
        "op_ms_p50": percentile(latency_ms, 50.0),
        "op_ms_tail_percentile": tail,
        "op_ms_tail": percentile(latency_ms, tail) if tail else None,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, passes, detail


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(wl, work: Path, seconds: float) -> tuple[dict, list, dict]:
    """Untraced passes for about seconds/2, then as many traced passes.

    Calls, self times and counters are per pass, so with identical passes
    the counts are whole numbers that repeat exactly between runs.
    """
    untraced = timed_passes(wl, work, seconds / 2.0)
    tracer = Tracer()
    traced = [run_pass(wl, work / f"traced-{i}", tracer) for i in range(len(untraced))]
    n = len(traced)
    summary = tracer.summary()
    counters = {
        name: sum(c[name] for p in traced for c in p.counters.values()) for name in COUNTERS
    }
    tool_calls = summary["analysis.tool_complete"]["calls"]
    triggers = counters["tool_invocations"] + counters["cache_hits"]
    tokens = sum(tokens_emitted(p) for p in traced)
    values: dict[str, tuple[float, str]] = {}
    for name, entry in summary.items():
        values[f"{name}.calls"] = (_per_pass(entry["calls"], n), "count")
        values[f"{name}.self_s"] = (entry["self_s"] / n, "s")
    for name, total in counters.items():
        values[f"decode.{name}"] = (_per_pass(total, n), "count")
    untraced_wall = sum(p.scaled_s for p in untraced)
    traced_wall = sum(p.scaled_s for p in traced)
    ratios = {
        "decode.cache_hit_ratio": _ratio(counters["cache_hits"], triggers),
        "decode.trigger_yield": _ratio(triggers - counters["dropped_triggers"], triggers),
        "analysis.parses_per_tool_call": _ratio(
            tracer.count_under("minilang.parse", "analysis.tool_complete"), tool_calls
        ),
        "analysis.index_builds_per_tool_call": _ratio(
            tracer.count_under("analysis.build_scope_index", "analysis.tool_complete"),
            tool_calls,
        ),
        "lm.predicts_per_token": _ratio(
            tracer.count_under("lm.predict", "decode.generate"), tokens
        ),
        "trace.overhead_frac": _ratio(traced_wall - untraced_wall, untraced_wall),
    }
    for name in RATIOS:
        values[name] = (ratios[name], "ratio")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    detail = {"passes": n, "untraced_scaled_s": untraced_wall, "traced_scaled_s": traced_wall}
    return metrics, untraced + traced, detail


def _per_pass(total: int, n: int) -> float:
    return total // n if total % n == 0 else total / n


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="also write the full result here")
    return parser.parse_args(argv)


def run(args) -> dict:
    """Run one workload and return the full record."""
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    work = WORK_DIR / f"run-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        measure = per_layer if args.trace else end_to_end
        metrics, passes, detail = measure(wl, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    detail["fail_frac"] = failed / attempted if attempted else 1.0
    if not args.trace:
        detail["counters"] = passes[0].counters
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "detail": detail,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mpgen").is_dir() or not (ROOT / "out" / "report.json").is_file():
        print("error: run from a full checkout (src/mpgen and out/ are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    record = run(args)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    print("# detail " + json.dumps(record["detail"], sort_keys=True))
    for name, m in record["result"]["metrics"].items():
        print(f"# {record['workload']} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
