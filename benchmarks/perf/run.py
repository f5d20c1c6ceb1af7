"""The perf harness: every workload, end-to-end and per-layer metrics.

    python benchmarks/perf/run.py [--workload W]... [--seed S] [--repeat N]
                                  [--trace] [--smoke] [--out FILE]

Each (workload, repeat) runs in a fresh child process of this script.
Untraced runs give the end-to-end metrics of ``BENCHMARK.json``, traced
runs (``--trace``) its per-layer metrics.  Every metric prints as
``workload metric value unit``; with ``--repeat`` the value is the
median over the repeats.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (metric
names carry a ``workload.`` prefix when several workloads ran).
``--out FILE`` writes every run, plus medians and quartiles, to FILE;
runs are appended when FILE already exists, so parent and change runs
can alternate into two files for ``compare.py``.  Traced runs with
``--out`` also write a Chrome trace per workload next to FILE.

The exit code is 0 only when every run passed its correctness checks.

The measured time per run is ``run_seconds`` of ``BENCHMARK.json`` (1 s
with ``--smoke``).  ``BENCHMARK.json``'s command is called as
``run.py --workload W --seed N --seconds T --trace 0|1``, so ``--seconds``
overrides that time and ``--trace`` also takes an explicit 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = ("campaign", "ladder", "stream", "serve")
#: Below the runner's 180 s limit for one invocation.
CHILD_TIMEOUT_S = 170
SETTINGS = ("seconds", "smoke", "trace")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: dict, traced: bool) -> dict:
    """Metric name -> unit for the mode's metric list."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(runs, spec: dict) -> dict:
    """Per workload and metric: median, quartiles and sample count."""
    out: dict = {}
    for run in runs:
        for name, value in run["metrics"].items():
            out.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    units = {**metric_units(spec, False), **metric_units(spec, True)}
    summary: dict = {}
    for workload, metrics in out.items():
        summary[workload] = {}
        for name, values in metrics.items():
            q1, q3 = quartiles(values)
            summary[workload][name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "n": len(values), "unit": units.get(name, ""),
            }
    return summary


# -- child: one workload in this process ---------------------------------------


def span_table(spans) -> list:
    """Per span name: count, total and self seconds (self = duration
    minus the time direct children cover), by self time."""
    from workloads import self_times

    own = self_times(spans)
    rows: dict = {}
    for s in spans:
        row = rows.setdefault(s.name, {"span": s.name, "count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.span_id]
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def write_chrome_trace(path: Path, spans) -> None:
    """Chrome ``trace_event`` JSON; each span on the thread it ran on."""
    events = []
    for s in sorted(spans, key=lambda s: (s.start, s.span_id)):
        args = {"span_id": s.span_id, "parent_id": s.parent_id, "run": s.attrs.get("run")}
        events.append({"name": s.name, "cat": s.cat, "ph": "X", "pid": 1,
                       "tid": s.attrs.get("thread", 0), "ts": s.start * 1e6,
                       "dur": s.duration * 1e6, "args": args})
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def extra_unit(name: str) -> str:
    """Unit of a workload-specific number, read off its name."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def child(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    spec = load_spec()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    (workload,) = args.workload
    seconds = args.seconds or sizes.seconds
    trace = workloads.Trace(enabled=bool(args.trace), run_id=f"{workload}-{args.seed}-{os.getpid()}")
    outcome = workloads.WORKLOADS[workload](args.seed, seconds, sizes, trace)
    values = outcome.metrics()
    units = metric_units(spec, bool(args.trace))
    if args.trace:
        # A layer the workload never enters did no work: its counts are 0.
        values = {**{name: 0.0 for name in units}, **values}
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{workload} did not produce {missing}")
    result = {
        "workload": workload, "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "trace": args.trace,
        "correct": outcome.failed == 0, "attempted": outcome.attempted,
        "failed": outcome.failed, "errors": outcome.errors[:5],
        "metrics": {name: values[name] for name in units},
        "values": values,
    }
    if args.trace:
        spans = trace.tracer.spans
        result["spans"] = span_table(spans)
        print(f"\n{workload}: spans by self time", file=sys.stderr)
        print(f"{'span':32} {'count':>7} {'total s':>10} {'self s':>10}", file=sys.stderr)
        for row in result["spans"]:
            print(f"{row['span']:32} {row['count']:7d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}", file=sys.stderr)
        if args.trace_file:
            write_chrome_trace(Path(args.trace_file), spans)
    print(json.dumps(result))
    return 0


# -- parent: one child process per (workload, repeat) -------------------------


def run_child(args, workload: str):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.seconds:
        cmd += ["--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace and args.out:
        cmd += ["--trace-file", str(Path(args.out).with_suffix(f".{workload}.trace.json"))]
    # A hung child must not hang us.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run exited with code {proc.returncode}")
    return json.loads(lines[-1])


def write_out(path: Path, runs, spec: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    doc["runs"].extend(runs)
    mixed = [key for key in SETTINGS if len({r[key] for r in doc["runs"]}) > 1]
    if mixed:
        raise SystemExit(f"{path}: runs would differ in {mixed}; refusing to mix")
    doc["summary"] = summarize(doc["runs"], spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=2025)
    p.add_argument("--seconds", type=float,
                   help="measured time per run (default: run_seconds; 1 with --smoke)")
    p.add_argument("--repeat", type=int, default=1, help="runs per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="record spans; report per-layer metrics")
    p.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    p.add_argument("--out", help="JSON file to write (runs are appended)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeat < 1 or (args.seconds is not None and args.seconds <= 0):
        p.error("--repeat and --seconds must be positive")
    if args.child:
        return child(args)

    names = args.workload or list(WORKLOAD_NAMES)
    units = metric_units(spec, bool(args.trace))
    runs = []
    for workload in names:
        for _ in range(args.repeat):
            t = time.perf_counter()
            runs.append(run_child(args, workload))
            print(f"[{workload}] run {len(runs)} took {time.perf_counter() - t:.1f} s",
                  file=sys.stderr)
    summary = summarize(runs, spec)
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in names:
        for name, unit in units.items():
            print(f"{workload} {name} {summary[workload][name]['median']!r} {unit}")
        # Workload-specific numbers BENCHMARK.json does not list.
        extras: dict = {}
        for run in runs:
            if run["workload"] == workload:
                for name, value in run["values"].items():
                    if name not in declared:
                        extras.setdefault(name, []).append(value)
        for name, values in extras.items():
            print(f"{workload} {name} {statistics.median(values)!r} {extra_unit(name)}")
    if args.out:
        write_out(Path(args.out), runs, spec)

    prefix = len(names) > 1
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            (f"{w}.{name}" if prefix else name): {"value": summary[w][name]["median"], "unit": unit}
            for w in names for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
