"""Scale-ladder smoke gates — the §5.5 scalability floor, pinned in CI.

Two gates at the 36k rung (10% of paper scale, small enough for a CI
runner, big enough that per-record Python costs would dominate if they
crept back in):

* the full synthesize → match → analyze rung must hold a throughput
  floor and a peak-RSS ceiling, with its analytic ground truth intact;
* seeding parallel workers from the zero-copy pack archive must beat
  the pre-refactor baseline — re-pickling the record-based source into
  every worker — by >=1.5x, with bit-identical matched pairs.

Both paths in the seeding gate use the *spawn* start method: under the
Linux default (fork) the pickled source would ride along in the
copy-on-write image for free, and the gate would measure nothing.
"""

import multiprocessing as mp
import time

from conftest import write_comparison

from repro.exec.executor import ParallelExecutor
from repro.exec.plan import WindowPlan
from repro.scenarios.scale import run_rung
from repro.workload.scale import ScaleConfig, synthesize

from tests.oracle import RecordSource

RUNG = 36_000
#: ~1/4 of the serial columnar throughput on a 1-core dev box; a rung
#: that falls below this has lost an order of magnitude somewhere.
JOBS_PER_SEC_FLOOR = 15_000.0
#: Process-lifetime ceiling: the rung itself peaks well under 200 MiB;
#: blowing past this means something rematerialized the window as
#: per-record Python objects.
PEAK_RSS_MB_CEILING = 2_048.0
SEEDING_SPEEDUP_FLOOR = 1.5


def test_36k_rung_throughput_and_memory(results_dir):
    row = run_rung(ScaleConfig(n_jobs=RUNG))

    assert row["matched_jobs"] == row["expected_matches"]
    assert row["match_jobs_per_sec"] >= JOBS_PER_SEC_FLOOR, (
        f"36k rung fell below the throughput floor: "
        f"{row['match_jobs_per_sec']:,.0f} jobs/s < {JOBS_PER_SEC_FLOOR:,.0f}")
    assert row["peak_rss_mb"] <= PEAK_RSS_MB_CEILING, (
        f"36k rung exceeded the memory ceiling: "
        f"{row['peak_rss_mb']:.0f} MiB > {PEAK_RSS_MB_CEILING:.0f} MiB")

    write_comparison(
        "scale_smoke",
        paper={"note": "§5.5: ~1M jobs / ~6.8M transfers in 8 days; "
                       "this gate pins 10% of that scale in CI"},
        measured={
            "n_jobs": row["n_jobs"],
            "n_transfers": row["n_transfers"],
            "match_seconds": row["match_seconds"],
            "match_jobs_per_sec": row["match_jobs_per_sec"],
            "peak_rss_mb": row["peak_rss_mb"],
            "shards": row["shards"],
            "floor_jobs_per_sec": JOBS_PER_SEC_FLOOR,
            "ceiling_peak_rss_mb": PEAK_RSS_MB_CEILING,
        },
        notes="Full synthesize->match->analyze rung; matched counts "
              "verified against the generator's analytic ground truth.",
    )


def _timed_execute(source, ds, plan, ctx, shared_memory):
    ex = ParallelExecutor(workers=2, mp_context=ctx, shared_memory=shared_memory)
    start = time.perf_counter()
    with ex:
        report = ex.execute(source, [plan], known_sites=ds.known_sites)[0]
    return time.perf_counter() - start, ex.seed_mode, report


def test_shm_seeding_beats_repickling(results_dir):
    ds = synthesize(ScaleConfig(n_jobs=RUNG))
    plan = WindowPlan(*ds.window)

    # The pre-refactor baseline: the same window as plain record
    # lists, pickled whole into each worker's initializer.
    src = ds.source
    ref = RecordSource(
        [src.job_record(i) for i in range(ds.n_jobs)],
        [src.file_record(i) for i in range(ds.n_files)],
        [src.transfer_record(i) for i in range(ds.n_transfers)],
    )

    ctx = mp.get_context("spawn")
    t_shm, shm_mode, shm_report = _timed_execute(src, ds, plan, ctx, True)
    t_pkl, pkl_mode, pkl_report = _timed_execute(ref, ds, plan, ctx, False)

    assert shm_mode == "shm"
    assert pkl_mode == "pickle"
    for m in shm_report.methods:
        assert shm_report[m].matched_pairs() == pkl_report[m].matched_pairs()

    speedup = t_pkl / t_shm if t_shm > 0 else float("inf")
    assert speedup >= SEEDING_SPEEDUP_FLOOR, (
        f"zero-copy seeding must beat re-pickling by >="
        f"{SEEDING_SPEEDUP_FLOOR}x: {speedup:.2f}x "
        f"(shm {t_shm:.2f}s, pickle {t_pkl:.2f}s)")

    write_comparison(
        "scale_shm_seeding",
        paper={"note": "paper reports no timings; §5.5 demands scalability"},
        measured={
            "n_jobs": ds.n_jobs,
            "n_transfers": ds.n_transfers,
            "workers": 2,
            "start_method": "spawn",
            "shm_seconds": round(t_shm, 3),
            "pickle_seconds": round(t_pkl, 3),
            "speedup": round(speedup, 2),
            "floor": SEEDING_SPEEDUP_FLOOR,
        },
        notes="Pool init + full-window Exact/RM1/RM2 at the 36k rung, "
              "spawn context for both paths, matched_pairs() verified "
              "identical per method.",
    )
