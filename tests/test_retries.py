"""Tests for JEDI-style automatic retries of failed analysis jobs."""

import pytest

from repro.grid.presets import build_mini
from repro.panda.job import DataAccessMode, JobKind
from repro.scenarios.runtime import HarnessConfig, SimulationHarness
from repro.workload.generator import WorkloadConfig


def run_harness(retry_limit: int, seed: int = 29) -> SimulationHarness:
    h = SimulationHarness(
        HarnessConfig(
            seed=seed,
            workload=WorkloadConfig(
                duration=12 * 3600.0,
                analysis_tasks_per_hour=8.0,
                production_tasks_per_hour=0.3,
                background_transfers_per_hour=10.0,
            ),
            drain=36 * 3600.0,
            retry_limit=retry_limit,
        ),
        topology=build_mini(seed=seed),
    )
    h.run()
    return h


class TestRetries:
    def test_disabled_by_default(self):
        h = run_harness(retry_limit=0)
        assert h.panda.retries_issued == 0

    def test_retries_issued_for_failed_analysis(self):
        h = run_harness(retry_limit=1)
        assert h.panda.retries_issued > 0

    def test_retry_shares_task_and_chunk(self):
        h = run_harness(retry_limit=1)
        attempts = h.panda._attempt
        assert attempts, "retry attempts must be tracked"
        for retry_pid in attempts:
            retry = h.panda.jobs[retry_pid]
            # same task has an earlier failed job with the same chunk
            originals = [
                j for j in h.panda.jobs.values()
                if j.jeditaskid == retry.jeditaskid
                and j.pandaid != retry_pid
                and j.input_file_dids == retry.input_file_dids
            ]
            assert originals, f"retry {retry_pid} has no original attempt"
            assert any(not o.succeeded for o in originals)

    def test_retry_pandaids_unique(self):
        h = run_harness(retry_limit=2)
        pids = [j.pandaid for j in h.panda.jobs.values()]
        assert len(pids) == len(set(pids))

    def test_retries_raise_success_of_work(self):
        """Per-task completion improves with retries: more tasks end up
        with every chunk eventually processed successfully."""
        def chunk_success_rate(h):
            ok = total = 0
            for task in h.panda.tasks.values():
                if task.kind is not JobKind.ANALYSIS:
                    continue
                chunks = {}
                for j in task.jobs:
                    key = tuple(j.input_file_dids)
                    chunks.setdefault(key, []).append(j)
                for js in chunks.values():
                    total += 1
                    if any(j.succeeded for j in js):
                        ok += 1
            return ok / total if total else 0.0

        without = chunk_success_rate(run_harness(retry_limit=0))
        with_retries = chunk_success_rate(run_harness(retry_limit=2))
        assert with_retries > without

    def test_production_never_retried(self):
        h = run_harness(retry_limit=2)
        for retry_pid in h.panda._attempt:
            assert h.panda.jobs[retry_pid].kind is JobKind.ANALYSIS

    def test_retry_pollutes_exact_matching_but_subset_recovers(self):
        """A retried copy job re-transfers the same files under the same
        jeditaskid: both attempts' candidates mix, the whole-set size
        check fails for both, and only subset selection untangles them
        — the real-ATLAS ambiguity the paper's Algorithm 1 inherits."""
        from repro.columnar import ColumnarIndex
        from repro.core.matching.exact import ExactMatcher
        from repro.core.matching.subset import SubsetMatcher
        from tests.helpers import make_file, make_job, make_transfer

        # attempt 1 (failed) and attempt 2 of the same chunk
        a1 = make_job(pandaid=1, end=1000.0, nin=2000)
        a2 = make_job(pandaid=2, creation=1500.0, start=2500.0, end=3500.0, nin=2000)
        files = lambda pid: [make_file(pandaid=pid, lfn=f"f{i}", size=1000)
                             for i in range(2)]
        transfers = [
            make_transfer(row_id=1, lfn="f0", size=1000, start=100.0, end=150.0),
            make_transfer(row_id=2, lfn="f1", size=1000, start=150.0, end=200.0),
            make_transfer(row_id=3, lfn="f0", size=1000, start=1600.0, end=1650.0),
            make_transfer(row_id=4, lfn="f1", size=1000, start=1650.0, end=1700.0),
        ]
        index = ColumnarIndex([a1, a2], files(1) + files(2), transfers)

        exact = index.run(ExactMatcher(), 4)
        # attempt 2 sees all four transfers -> S=4000 != 2000 -> unmatched;
        # attempt 1 only sees the pre-end pair -> matched.
        assert {m.job.pandaid for m in exact.matched_jobs()} == {1}

        subset = index.run(SubsetMatcher(), 4)
        assert {m.job.pandaid for m in subset.matched_jobs()} == {1, 2}
