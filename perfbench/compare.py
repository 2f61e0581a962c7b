"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files as ``run.py`` writes them under
``.perfbench/out/`` (``<workload>-seed<n>-trace<t>.json``).  Runs are
paired by workload, trace mode and seed.  A pair whose input digests or
core counts differ is refused: the numbers would not measure the same
work on the same machine shape.  For each metric the medians and the
interquartile spread of both sides are printed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from stats import spread

__all__ = ["load", "pair_mismatches", "main"]


def load(directory: Path) -> dict:
    """``(workload, trace, seed) -> result`` for every result file."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        key = (result["workload"], result["trace"],
               result["provenance"]["seed"])
        runs[key] = result
    return runs


def pair_mismatches(base: dict, change: dict) -> list[str]:
    """Why paired runs may not be compared; empty when they may."""
    problems = []
    for key in sorted(set(base) & set(change)):
        a, b = base[key]["provenance"], change[key]["provenance"]
        for field in ("input_digest", "nproc"):
            if a[field] != b[field]:
                problems.append(f"{key}: {field} differs "
                                f"({a[field]} vs {b[field]})")
    return problems


def _summary(values: list[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return f"{median:12.4f}"
    return f"{median:12.4f} (iqr {spread(values):6.1%})"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    problems = pair_mismatches(base, change)
    if problems:
        for problem in problems:
            print(f"refused: {problem}", file=sys.stderr)
        return 2
    paired = sorted(set(base) & set(change))
    if not paired:
        print("no runs to pair", file=sys.stderr)
        return 2
    values: dict = defaultdict(lambda: ([], []))
    for key in paired:
        workload, trace, _ = key
        for side, runs in enumerate((base, change)):
            for name, metric in runs[key]["metrics"].items():
                values[(workload, trace, name, metric["unit"])][side] \
                    .append(metric["value"])
    print(f"{'workload':14s} {'metric':28s} {'base':>26s} {'change':>26s}")
    for (workload, trace, name, unit), (a, b) in sorted(values.items()):
        print(f"{workload:14s} {name + ' [' + unit + ']':28s} "
              f"{_summary(a):>26s} {_summary(b):>26s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
