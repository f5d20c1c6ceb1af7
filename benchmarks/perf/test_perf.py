"""Self-test of the perf harness at smoke sizes (about half a minute).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf.py -q

Checks that one command prints every metric BENCHMARK.json names, with
its unit, for every workload, and that the correctness checks reject a
corrupted result: a dropped pair, a dropped job, a broken method ladder.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from repro.core.matching.rm3 import RM3Matcher  # noqa: E402
from repro.exec.executor import default_matchers  # noqa: E402
from repro.exec.plan import WindowPlan  # noqa: E402
from repro.workload.scale import ScaleConfig, synthesize  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("flags, kind", [([], "end_to_end"), (["--trace"], "per_layer")])
def test_every_metric_is_printed_with_its_unit(flags, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *flags],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    units = {tuple(f[:2]): f[3] for f in (line.split() for line in lines[:-1]) if len(f) == 4}
    for workload in WORKLOAD_NAMES:
        for metric in SPEC[kind]:
            assert units.get((workload, metric["name"])) == metric["unit"], (workload, metric)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4


@pytest.fixture(scope="module")
def smoke_ladder():
    """The smoke ladder pass at the pinned seed."""
    ds = synthesize(ScaleConfig(n_jobs=workloads.SMOKE.scale_jobs, seed=workloads.PIN_SEED))
    matchers = default_matchers(ds.known_sites) + [RM3Matcher(ds.known_sites)]
    _, _, report = workloads.match_and_analyze(
        ds.source, WindowPlan(*ds.window), matchers, workloads.Trace(False, "test"))
    return ds, report


def replace_matches(report, method, matches):
    result = dataclasses.replace(report[method], matches=matches)
    return dataclasses.replace(report, results={**report.results, method: result})


def drop_one_pair(report, method):
    matches = list(report[method].matches)
    i = next(i for i, jm in enumerate(matches) if len(jm.transfers) > 1)
    matches[i] = dataclasses.replace(matches[i], transfers=matches[i].transfers[1:])
    return replace_matches(report, method, matches)


def test_dropped_pair_fails_the_stream_check(smoke_ladder):
    ds, report = smoke_ladder
    assert workloads.check_stream(report, report, ds.expected_matches) is None
    corrupted = drop_one_pair(report, "exact")
    assert workloads.check_stream(corrupted, report, ds.expected_matches) is not None


def test_dropped_pair_fails_the_pinned_digest(smoke_ladder):
    _, report = smoke_ladder
    key = ("ladder", workloads.SMOKE.scale_jobs)
    assert workloads.PINS[key]
    assert workloads.check_pin(key, workloads.digest(report["rm3"].matched_pairs())) is None
    corrupted = drop_one_pair(report, "rm3")
    assert workloads.check_pin(key, workloads.digest(corrupted["rm3"].matched_pairs())) is not None
    agree = workloads.Agreement()
    assert agree.check(0, workloads.digest(report["rm3"].matched_pairs())) is None
    assert agree.check(0, workloads.digest(corrupted["rm3"].matched_pairs())) is not None


def test_dropped_job_fails_the_ground_truth_counts(smoke_ladder):
    ds, report = smoke_ladder
    sweep = {0.35: report["rm3"].n_matched_jobs}
    assert workloads.check_ladder(report, sweep, ds.expected_matches) is None
    corrupted = replace_matches(report, "rm1", report["rm1"].matches[1:])
    assert workloads.check_ladder(corrupted, sweep, ds.expected_matches) is not None
    assert workloads.check_ladder(report, {0.2: 10, 0.5: 11}, ds.expected_matches) is not None


def test_job_missing_from_a_looser_method_fails_the_ladder_check(smoke_ladder):
    _, report = smoke_ladder
    assert workloads.check_campaign(report) is None
    exact_ids = {jm.job.pandaid for jm in report["exact"].matches}
    kept = [jm for jm in report["rm1"].matches if jm.job.pandaid != min(exact_ids)]
    assert workloads.check_campaign(replace_matches(report, "rm1", kept)) is not None
