"""Scaling measured times to a fixed reference speed of the host.

On a shared host the CPU speed available to one process can drift by a
factor of two within minutes (seen on a 2-core VM: the same pass took 0.47 s
and 1.05 s within one run), which swamps the differences a benchmark is
meant to resolve. So every timed unit of work is bracketed by a short,
fixed pure-Python loop (regex tokenizing, dict counting, sorting: the kind
of work mpgen does), and the unit's time is scaled by how long that loop
took right around it:

    scaled = measured * REFERENCE_S / (mean of the loop times before and after)

A scaled time is the time the unit would take on a host where the loop
takes exactly ``REFERENCE_S``. The loop does not depend on mpgen, so a
change to mpgen moves scaled times as it moves raw ones; drifts of the host
move both the unit and the loop, and largely cancel. On that host, across
chunks of 60 `generate` calls on padded repositories, the coefficient of
variation was 21% raw and 8% scaled. A loop that also allocated a small
object per token tracked the drift no better.
"""

from __future__ import annotations

import gc
import re
from time import perf_counter

REFERENCE_S = 0.0002
_TEXT = (
    "def total_for(self, items, scale):\n"
    '    "Sum the scaled item weights"\n'
    "    acc = 0\n"
    "    for item in items:\n"
    "        acc = acc + item.weight * scale - 1\n"
    "    return self.store.put(acc, 42)\n"
) * 6
_TOKEN = re.compile(r"[A-Za-z_]+|\d+|\S")


def reference_loop_s() -> float:
    """Run the reference loop once and return how long it took."""
    enabled = gc.isenabled()
    gc.disable()  # never collect the program's garbage inside the loop
    try:
        start = perf_counter()
        counts: dict[str, int] = {}
        for m in _TOKEN.finditer(_TEXT):
            token = m.group(0)
            counts[token] = counts.get(token, 0) + 1
        sorted(counts.items())
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Scales consecutive units of work by the loop times around each one."""

    def __init__(self) -> None:
        self._before = reference_loop_s()
        self.loop_s: list[float] = [self._before]

    def scaled(self, measured_s: float) -> float:
        """Scale a unit that ended just now (no other work since it ended)."""
        after = reference_loop_s()
        self.loop_s.append(after)
        reference = (self._before + after) / 2.0
        self._before = after
        return measured_s * REFERENCE_S / reference
