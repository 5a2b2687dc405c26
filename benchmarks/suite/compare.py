"""Compare two benchmark results under the bounds in ``BENCHMARK.json``.

    python3 benchmarks/suite/compare.py BASE.json NEW.json

Both files come from ``bench.py --out``. For every end-to-end metric and
every workload in both files, NEW is labelled against BASE:

* ``better`` / ``worse`` when the medians differ by more than the
  metric's bound (a share of BASE's median);
* ``same`` when they differ by less;
* ``unresolved`` when either side's spread (interquartile range over
  median) is wider than the bound, unless every run of one side beats
  every run of the other.

``failed_frac`` has no bound: any increase is ``worse``. One row per
workload is printed. Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]


def _spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def label(base: dict, new: dict, bound: float, higher_is_better: bool) -> Tuple[str, float]:
    """Label NEW's summary of one metric against BASE's; also the change."""
    change = (new["median"] - base["median"]) / base["median"] if base["median"] else 0.0
    gain = change if higher_is_better else -change
    if max(_spread(base), _spread(new)) > bound:
        b, n = base["samples"], new["samples"]
        if not (min(n) > max(b) or max(n) < min(b)):
            return "unresolved", change
    if gain > bound:
        return "better", change
    if gain < -bound:
        return "worse", change
    return "same", change


def compare(base: dict, new: dict, spec: dict) -> List[Tuple[str, Dict[str, Tuple[str, float]]]]:
    """Rows of (workload, {metric: (label, relative change of the median)})."""
    rows = []
    for workload, b in base["workloads"].items():
        n: Optional[dict] = new["workloads"].get(workload)
        if n is None:
            continue
        cells: Dict[str, Tuple[str, float]] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name in b["metrics"] and name in n["metrics"]:
                cells[name] = label(
                    b["metrics"][name],
                    n["metrics"][name],
                    metric["bound"],
                    metric["better"] == "higher",
                )
        fb = b["metrics"]["failed_frac"]["median"]
        fn = n["metrics"]["failed_frac"]["median"]
        cells["failed_frac"] = ("worse" if fn > fb else "better" if fn < fb else "same", fn - fb)
        rows.append((workload, cells))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    rows = compare(base, new, spec)
    names = [m["name"] for m in spec["end_to_end"]] + ["failed_frac"]
    print(f"{'workload':<20}" + "".join(f"{name:>24}" for name in names))
    worse = False
    for workload, cells in rows:
        line = f"{workload:<20}"
        for name in names:
            if name in cells:
                verdict, change = cells[name]
                worse |= verdict == "worse"
                line += f"{verdict + f' ({change:+.1%})':>24}"
            else:
                line += f"{'-':>24}"
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
