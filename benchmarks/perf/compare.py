"""Compare a parent's and a change's runs under BENCHMARK.json's bounds.

    python benchmarks/perf/compare.py PARENT.json CHANGE.json

Both files come from ``run.py --out`` (untraced).  Run i of PARENT is
paired with run i of CHANGE, so collect them alternately: parent, change,
parent, ... each appending one run to its own file.  For every workload
and end-to-end metric the verdict is:

* ``improved``   -- at least 10 pairs, the change wins at least 9/10 of
  them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
* ``unresolved`` -- not improved, and the parent's own spread (IQR over
  median) is wider than the metric's bound, unless every change run
  beats every parent run;
* ``regressed``  -- the change's median is worse than the parent's by
  more than the bound;
* ``unchanged``  -- otherwise.

``fail_frac`` (failed / attempted) regresses on any increase.  Prints
one row per workload; exits 1 when anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> dict:
    """Workload -> its untraced runs, in file order."""
    out: dict = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            out.setdefault(run["workload"], []).append(run)
    return out


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, better: str, bound: float) -> str:
    """One metric's verdict from its parent and change samples."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (mc - mp) > iqr(parent)):
        return "improved"
    if mp and iqr(parent) / abs(mp) > bound:
        worst_change = min(change) if sign > 0 else max(change)
        best_parent = max(parent) if sign > 0 else min(parent)
        if sign * (worst_change - best_parent) <= 0:
            return "unresolved"
    if mp and sign * (mc - mp) / abs(mp) < -bound:
        return "regressed"
    return "unchanged"


def fail_frac(runs) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent: dict, change: dict, spec: dict):
    """Yield (workload, [(metric, verdict, relative change)])."""
    for workload in sorted(set(parent) & set(change)):
        a, b = parent[workload], change[workload]
        row = []
        for m in spec["end_to_end"]:
            pa = [r["metrics"][m["name"]] for r in a]
            pb = [r["metrics"][m["name"]] for r in b]
            mp = statistics.median(pa)
            rel = (statistics.median(pb) - mp) / mp if mp else 0.0
            row.append((m["name"], verdict(pa, pb, m["better"], m["bound"]), rel))
        fa, fb = fail_frac(a), fail_frac(b)
        row.append(("fail_frac", "regressed" if fb > fa else "unchanged", fb - fa))
        yield workload, row


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    regressed = False
    for workload, row in compare(parent, change, spec):
        n = min(len(parent[workload]), len(change[workload]))
        cells = [f"{name}={v}({rel:+.1%})" for name, v, rel in row]
        print(f"{workload:12} pairs={n:<3} " + "  ".join(cells))
        regressed |= any(v == "regressed" for _, v, _ in row)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
