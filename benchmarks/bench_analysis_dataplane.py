"""Analysis dataplane — the persistent-pool gate.

The §5 analysis batch fans across the :class:`ParallelExecutor`'s
persistent pool.  The gate enforced here: interleaved sweeps, analysis
batches and maps re-use one pool — a single worker initialization — and
the fanned-out batch reports the serial numbers.  Match and analysis
timings of the same path live in the perf harness (``benchmarks/perf``).
"""

import pytest

from repro.exec import ParallelExecutor, growing_plans, run_analyses
from repro.scenarios.eightday import EightDayConfig, EightDayStudy

DAYS = 2.0
N_PLANS = 4


@pytest.fixture(scope="module")
def campaign():
    study = EightDayStudy(EightDayConfig(seed=2025, days=DAYS)).run()
    w0, w1 = study.harness.window
    return {
        "source": study.source,
        "plans": growing_plans(w0, w1, n_points=N_PLANS),
        "known": study.harness.known_site_names(),
    }


def test_persistent_pool_single_init(campaign):
    """Interleaved sweep + analysis batch + map: one pool initialization."""
    source, plans, known = campaign["source"], campaign["plans"], campaign["known"]
    with ParallelExecutor(workers=2) as ex:
        ex.execute(source, plans, known_sites=known)
        batch = run_analyses(source, plans[-1], known_sites=known, executor=ex)
        assert ex.map(abs, [-1]) == [1]
        ex.execute(source, plans[:1], known_sites=known)
        assert ex.pool_inits == 1
    serial = run_analyses(source, plans[-1], known_sites=known)
    assert batch["headline"] == serial["headline"]
