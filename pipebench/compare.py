"""Compare two result records written by `run.py --record`.

    python3 pipebench/compare.py BEFORE.json AFTER.json

Prints each metric of the two records side by side with the relative
change. The environment of each side is printed too. A comparison whose two
sides ran different kernel backends (``mpgen._kernels.BACKEND``) is flagged
and exits with status 1: the backend decides which kernel code is timed, so
such a comparison says nothing about the change.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare(before: dict, after: dict) -> tuple[list[str], bool]:
    """Report lines, and whether both sides used the same kernel backend."""
    lines = [
        f"before: {before['workload']} seed {before['seed']} {json.dumps(before['env'], sort_keys=True)}",
        f"after:  {after['workload']} seed {after['seed']} {json.dumps(after['env'], sort_keys=True)}",
    ]
    same_backend = before["env"]["backend"] == after["env"]["backend"]
    if not same_backend:
        lines.append(
            f"WARNING: kernel backends differ ({before['env']['backend']} vs "
            f"{after['env']['backend']}); the two sides timed different kernels"
        )
    if before["workload"] != after["workload"]:
        lines.append("WARNING: the two records ran different workloads")
    b_metrics = before["result"]["metrics"]
    a_metrics = after["result"]["metrics"]
    for name in sorted(b_metrics.keys() & a_metrics.keys()):
        b, a = b_metrics[name]["value"], a_metrics[name]["value"]
        change = f"{(a - b) / b:+.1%}" if b else "n/a"
        lines.append(f"{name:<45} {b:>14.6g} {a:>14.6g} {change:>8} {a_metrics[name]['unit']}")
    return lines, same_backend


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines, same_backend = compare(load(argv[0]), load(argv[1]))
    print("\n".join(lines))
    return 0 if same_backend else 1


if __name__ == "__main__":
    sys.exit(main())
